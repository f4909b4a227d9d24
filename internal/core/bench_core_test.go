package core

import (
	"context"
	"sort"
	"testing"
	"time"

	"verifas/internal/fol"
	"verifas/internal/ltl"
	"verifas/internal/workflows"
)

// BenchmarkVerifySafety measures the full pipeline on the paper's running
// example with a safety property (compile + static analysis + search).
func BenchmarkVerifySafety(b *testing.B) {
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		b.Fatal(err)
	}
	prop := &Property{
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Verify(context.Background(), sys, prop, Options{Budget: Budget{Timeout: 30 * time.Second}})
		if err != nil || !res.Holds() {
			b.Fatal("unexpected result")
		}
	}
}

// BenchmarkVerifyLiveness exercises the repeated-reachability module.
func BenchmarkVerifyLiveness(b *testing.B) {
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		b.Fatal(err)
	}
	prop := &Property{
		Task:    "ProcessOrders",
		Formula: ltl.MustParse(`F open(ShipItem)`),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Verify(context.Background(), sys, prop, Options{Budget: Budget{Timeout: 30 * time.Second}})
		if err != nil || res.Holds() {
			b.Fatal("unexpected result")
		}
	}
}

// BenchmarkVerifyNoPruning quantifies the ⪯ pruning win on the same
// property (Table 3's SP row in miniature).
func BenchmarkVerifyNoPruning(b *testing.B) {
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		b.Fatal(err)
	}
	prop := &Property{
		Task:    "ProcessOrders",
		Formula: ltl.MustParse(`F open(ShipItem)`),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Verify(context.Background(), sys, prop, Options{Budget: Budget{Timeout: 30 * time.Second}, NoStatePruning: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// nopObserver receives every event and drops it: the cheapest possible
// attached observer, isolating the instrumentation's own cost.
type nopObserver struct{}

func (nopObserver) PhaseStart(Phase)           {}
func (nopObserver) PhaseEnd(Phase, PhaseStats) {}
func (nopObserver) Progress(ProgressEvent)     {}
func (nopObserver) Verdict(VerdictEvent)       {}

// BenchmarkVerifySafetyObserved is BenchmarkVerifySafety with a no-op
// observer attached at the default stride — compare the two to see the
// instrumentation cost when enabled.
func BenchmarkVerifySafetyObserved(b *testing.B) {
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		b.Fatal(err)
	}
	prop := &Property{
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Verify(context.Background(), sys, prop, Options{Budget: Budget{Timeout: 30 * time.Second, Observer: nopObserver{}}})
		if err != nil || !res.Holds() {
			b.Fatal("unexpected result")
		}
	}
}

// TestObserverOverheadGuard bounds the observability layer's cost on the
// BenchmarkVerifySafety workload: a no-op observer at the default stride
// must stay within 2% of the nil-observer run. The nil path does strictly
// less work than the attached path (one nil check per loop iteration
// instead of event construction), so the bound covers it a fortiori.
// Each measurement alternates nil-observer and observed verifications,
// swapping which goes first, and takes the median of the per-pair time
// ratios, so load from the rest of the host falls on both sides alike.
// The guard still retries and accepts the best of several attempts.
func TestObserverOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison skipped in -short mode")
	}
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	prop := &Property{
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	}
	run := func(opts Options) time.Duration {
		opts.Timeout = 30 * time.Second
		start := time.Now()
		res, err := Verify(context.Background(), sys, prop, opts)
		if err != nil || !res.Holds() {
			t.Fatal("unexpected result")
		}
		return time.Since(start)
	}
	// measure returns the median observed/nil time ratio over pairs of
	// verifications run for about a second.
	measure := func(opts Options) float64 {
		var ratios []float64
		for start := time.Now(); time.Since(start) < time.Second || len(ratios) < 50; {
			var base, observed time.Duration
			if len(ratios)%2 == 0 {
				base = run(Options{})
				observed = run(opts)
			} else {
				observed = run(opts)
				base = run(Options{})
			}
			ratios = append(ratios, float64(observed)/float64(base))
		}
		sort.Float64s(ratios)
		return ratios[len(ratios)/2]
	}
	const attempts = 4
	guard := func(name string, opts Options, bound float64) {
		worst := 0.0
		for i := 0; i < attempts; i++ {
			ratio := measure(opts)
			t.Logf("%s attempt %d: median observed/nil ratio %.4f", name, i, ratio)
			if ratio <= bound {
				return
			}
			if ratio > worst {
				worst = ratio
			}
		}
		t.Errorf("%s overhead above %.0f%% in all %d attempts (worst ratio %.4f)",
			name, (bound-1)*100, attempts, worst)
	}
	guard("observer", Options{Budget: Budget{Observer: nopObserver{}}}, 1.02)
	// Progress observers at stride 1 build one snapshot per explored
	// state; with the rate-limited runtime/metrics heap sampler this must
	// stay cheap (the old per-snapshot ReadMemStats was a stop-the-world
	// pause that blew far past this bound).
	guard("progress-stride-1", Options{Budget: Budget{Observer: nopObserver{}, ProgressStride: 1}}, 1.30)
}
