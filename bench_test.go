// Package bench provides the testing.B entry points that regenerate every
// table and figure of the paper's evaluation (Section 4). Each benchmark
// drives the same experiment code as cmd/benchrun on a reduced suite so
// that `go test -bench=. -benchmem` completes in minutes on a small
// container; run `go run ./cmd/benchrun -all -synth 120 -timeout 10s` for
// the full-scale reproduction.
//
// Reported custom metrics:
//
//	fails        — runs that exceeded the time/state budget (Table 2's #Fail)
//	avg-ms       — average verification time per run
//	speedup-x    — trimmed-mean speedup of an optimization (Table 3)
//	overhead-pct — repeated-reachability overhead (Section 4.2)
package bench

import (
	"context"
	"testing"
	"time"

	"verifas/internal/benchmark"
)

func quickConfig() benchmark.Config {
	return benchmark.Config{
		Timeout:       3 * time.Second,
		MaxStates:     200_000,
		SpinMaxStates: 60_000,
		SpinFresh:     2,
		Seed:          1,
	}
}

func smallReal(b *testing.B) []*benchmark.Spec {
	b.Helper()
	return benchmark.RealSuite()[:6]
}

func smallSynth(b *testing.B) []*benchmark.Spec {
	b.Helper()
	return benchmark.SyntheticSuite(4, 17)
}

func report(b *testing.B, runs []benchmark.Run) {
	var fails int
	var total time.Duration
	for _, r := range runs {
		if r.Fail {
			fails++
		}
		total += r.Time
	}
	if len(runs) > 0 {
		b.ReportMetric(float64(fails), "fails")
		b.ReportMetric(float64(total.Milliseconds())/float64(len(runs)), "avg-ms")
	}
}

// BenchmarkTable1Stats regenerates Table 1 (workflow-set statistics).
func BenchmarkTable1Stats(b *testing.B) {
	real := benchmark.RealSuite()
	synth := smallSynth(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = benchmark.Table1(real, synth)
	}
	b.Log("\n" + benchmark.Table1(real, synth))
}

// BenchmarkTable2Verifiers regenerates Table 2: the spin-like baseline vs
// VERIFAS-NoSet vs VERIFAS on both suites (average time + failures).
func BenchmarkTable2Verifiers(b *testing.B) {
	cfg := quickConfig()
	real, synth := smallReal(b), smallSynth(b)
	for _, verifier := range []string{benchmark.VSpinlike, benchmark.VVerifasNoSet, benchmark.VVerifas} {
		b.Run(verifier, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runs := append(benchmark.RunSuite(context.Background(), real, verifier, cfg),
					benchmark.RunSuite(context.Background(), synth, verifier, cfg)...)
				if i == b.N-1 {
					report(b, runs)
				}
			}
		})
	}
}

// BenchmarkTable3Optimizations regenerates Table 3: the speedup of each
// optimization (SP = ⪯ pruning, SA = static analysis, DSS = indexes).
func BenchmarkTable3Optimizations(b *testing.B) {
	cfg := quickConfig()
	specs := append(smallReal(b), smallSynth(b)...)
	var base []benchmark.Run
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base = benchmark.RunSuite(context.Background(), specs, benchmark.VVerifas, cfg)
		}
		report(b, base)
	})
	for _, opt := range []struct{ name, verifier string }{
		{"noSP", benchmark.VNoSP},
		{"noSA", benchmark.VNoSA},
		{"noDSS", benchmark.VNoDSS},
	} {
		b.Run(opt.name, func(b *testing.B) {
			var off []benchmark.Run
			for i := 0; i < b.N; i++ {
				off = benchmark.RunSuite(context.Background(), specs, opt.verifier, cfg)
			}
			report(b, off)
			if len(base) == len(off) && len(base) > 0 {
				var ratios []float64
				for i := range base {
					if base[i].Fail || off[i].Fail || base[i].Time <= 0 {
						continue
					}
					ratios = append(ratios, off[i].Time.Seconds()/base[i].Time.Seconds())
				}
				if len(ratios) > 0 {
					var s float64
					for _, r := range ratios {
						s += r
					}
					b.ReportMetric(s/float64(len(ratios)), "speedup-x")
				}
			}
		})
	}
}

// BenchmarkTable4Templates regenerates Table 4: average verification time
// per LTL template class.
func BenchmarkTable4Templates(b *testing.B) {
	cfg := quickConfig()
	real := smallReal(b)
	tmpls := benchmark.Templates()
	for ti, tmpl := range tmpls {
		name := tmpl.Class + "/" + tmpl.Name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var runs []benchmark.Run
				for si, spec := range real {
					props := benchmark.Properties(spec.Sys, cfg.Seed+int64(si))
					runs = append(runs, benchmark.RunOne(context.Background(), spec, props[ti], benchmark.VVerifas, cfg))
				}
				if i == b.N-1 {
					report(b, runs)
				}
			}
		})
	}
}

// BenchmarkFigure9Cyclomatic regenerates the Figure 9 series: average
// verification time against cyclomatic complexity.
func BenchmarkFigure9Cyclomatic(b *testing.B) {
	cfg := quickConfig()
	real, synth := smallReal(b), smallSynth(b)
	var out string
	for i := 0; i < b.N; i++ {
		_, out = benchmark.Figure9(context.Background(), real, synth, cfg)
	}
	b.Log("\n" + out)
}

// BenchmarkRepeatedReachabilityOverhead measures the overhead of the
// repeated-reachability module (Section 4.2).
func BenchmarkRepeatedReachabilityOverhead(b *testing.B) {
	cfg := quickConfig()
	specs := smallReal(b)
	var full, noRR []benchmark.Run
	for i := 0; i < b.N; i++ {
		full = benchmark.RunSuite(context.Background(), specs, benchmark.VVerifas, cfg)
		noRR = benchmark.RunSuite(context.Background(), specs, benchmark.VNoRR, cfg)
	}
	var overheads []float64
	for i := range full {
		if full[i].Fail || noRR[i].Fail || noRR[i].Time <= 0 {
			continue
		}
		overheads = append(overheads, (full[i].Time.Seconds()-noRR[i].Time.Seconds())/noRR[i].Time.Seconds())
	}
	if len(overheads) > 0 {
		var s float64
		for _, o := range overheads {
			s += o
		}
		b.ReportMetric(100*s/float64(len(overheads)), "overhead-pct")
	}
}
