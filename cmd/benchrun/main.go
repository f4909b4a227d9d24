// Command benchrun regenerates the paper's evaluation artifacts: Tables
// 1-4, the Figure 9 series, and the repeated-reachability overhead
// measurement (paper Section 4).
//
// Usage:
//
//	benchrun [-table 1|2|3|4|rr] [-figure 9] [-all]
//	         [-synth N] [-real N] [-timeout D] [-seed S]
//	         [-j N] [-json] [-quiet]
//	         [-trace FILE] [-debug-addr ADDR]
//
// -j fans the independent (spec, property, verifier) runs over N worker
// goroutines (default GOMAXPROCS); table content is unaffected by the
// parallelism. -json emits one machine-readable record per run on stdout
// (the human-readable tables and progress move to stderr so stdout stays
// parseable). -trace records every run's verification event stream
// (phase boundaries, progress snapshots, verdicts) to FILE as JSON lines;
// -debug-addr serves net/http/pprof and expvar (including the aggregated
// verifier metrics) on ADDR for live inspection of a running suite.
// Ctrl-C cancels the running searches cooperatively.
//
// Absolute numbers depend on the host; the shapes (who wins, by what
// factor, where timeouts appear) reproduce the paper — see EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"time"

	"verifas/internal/benchmark"
	"verifas/internal/core"
	"verifas/internal/memsize"
	"verifas/internal/obs"
	"verifas/internal/version"
)

func main() {
	var (
		table     = flag.String("table", "", "regenerate one table: 1, 2, 3, 4 or rr")
		figure    = flag.String("figure", "", "regenerate one figure: 9")
		all       = flag.Bool("all", false, "regenerate everything")
		synthN    = flag.Int("synth", 12, "number of synthetic specifications")
		realN     = flag.Int("real", 0, "cap on real specifications (0 = all)")
		timeout   = flag.Duration("timeout", 5*time.Second, "per-run timeout")
		seed      = flag.Int64("seed", 1, "suite and property seed")
		spinMax   = flag.Int("spin-max-states", 150000, "state budget of the spin-like baseline")
		maxState  = flag.Int("max-states", 400000, "state budget per VERIFAS search phase")
		memBudget = flag.String("mem-budget", "", "per-run memory budget (e.g. 64M, 2G; empty = unlimited); exhausted runs count as failures")
		workers   = flag.Int("j", runtime.GOMAXPROCS(0), "parallel verification workers per suite")
		jsonOut   = flag.Bool("json", false, "emit one JSON record per run on stdout (tables move to stderr)")
		quiet     = flag.Bool("quiet", false, "suppress the live progress line")
		traceFile = flag.String("trace", "", "write the verification event stream to FILE as JSON lines")
		debugAddr = flag.String("debug-addr", "", "serve pprof and expvar on this address (e.g. localhost:6060)")
		showVer   = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Printf("benchrun %s %s\n", version.String(), runtime.Version())
		return
	}
	if *table == "" && *figure == "" && !*all {
		*all = true
	}
	memBytes, err := memsize.Parse(*memBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "-mem-budget:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// With -json, stdout carries only the per-run records; everything
	// human-readable goes to stderr.
	var out io.Writer = os.Stdout
	if *jsonOut {
		out = os.Stderr
	}

	cfg := benchmark.Config{
		Timeout:       *timeout,
		MaxStates:     *maxState,
		MaxMemBytes:   memBytes,
		SpinMaxStates: *spinMax,
		Seed:          *seed,
		Workers:       *workers,
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	if *jsonOut {
		cfg.OnRun = func(r benchmark.Run) {
			if err := benchmark.WriteRecord(os.Stdout, r); err != nil {
				fmt.Fprintln(os.Stderr, "json:", err)
			}
		}
	}

	// Observability: the debug server and the JSONL event trace share the
	// run observers; without either flag the runs stay unobserved (the
	// meter aside) and the searches keep their nil fast path.
	// finish runs the shutdown actions (close the trace file, stop the
	// debug server) before the explicit os.Exit calls below — defers
	// would be skipped.
	exitCode := 0
	var finishers []func()
	finish := func() {
		for _, f := range finishers {
			f()
		}
	}
	if *debugAddr != "" || *traceFile != "" {
		reg := obs.NewRegistry()
		reg.Publish("verifas")
		var tw *obs.TraceWriter
		if *debugAddr != "" {
			dbg, err := obs.ServeDebug(*debugAddr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "debug server:", err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/ (metrics on /debug/vars)\n", dbg.Addr)
			finishers = append(finishers, func() { _ = dbg.Close() })
		}
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
				os.Exit(2)
			}
			tw = obs.NewTraceWriter(f)
			finishers = append(finishers, func() {
				if err := tw.Err(); err != nil {
					fmt.Fprintln(os.Stderr, "trace:", err)
					exitCode = 2
				}
				if err := f.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "trace:", err)
					exitCode = 2
				}
			})
		}
		cfg.ObserverFor = func(spec *benchmark.Spec, template, verifier string) core.Observer {
			var t core.Observer
			if tw != nil {
				t = tw.Run(spec.Name + "/" + template + "/" + verifier)
			}
			return core.MultiObserver(t, reg.Run())
		}
	}

	fmt.Fprintf(out, "building suites (synthetic N=%d, seed=%d)...\n", *synthN, *seed)
	real := benchmark.RealSuite()
	if *realN > 0 && *realN < len(real) {
		real = real[:*realN]
	}
	synthetic := benchmark.SyntheticSuite(*synthN, *seed)
	fmt.Fprintf(out, "suites ready: %d real, %d synthetic (j=%d)\n\n", len(real), len(synthetic), *workers)

	// Once cancelled, skip the remaining sections instead of printing
	// degenerate all-error tables.
	want := func(t string) bool { return ctx.Err() == nil && (*all || *table == t) }

	if want("1") {
		fmt.Fprintln(out, benchmark.Table1(real, synthetic))
	}
	if want("2") {
		start := time.Now()
		fmt.Fprintln(out, benchmark.Table2(ctx, real, synthetic, cfg))
		fmt.Fprintf(out, "(table 2 took %s)\n\n", time.Since(start).Round(time.Second))
	}
	if want("3") {
		start := time.Now()
		fmt.Fprintln(out, benchmark.Table3(ctx, real, synthetic, cfg))
		fmt.Fprintf(out, "(table 3 took %s)\n\n", time.Since(start).Round(time.Second))
	}
	if want("4") {
		start := time.Now()
		fmt.Fprintln(out, benchmark.Table4(ctx, real, synthetic, cfg))
		fmt.Fprintf(out, "(table 4 took %s)\n\n", time.Since(start).Round(time.Second))
	}
	if ctx.Err() == nil && (*all || *figure == "9") {
		start := time.Now()
		_, figOut := benchmark.Figure9(ctx, real, synthetic, cfg)
		fmt.Fprintln(out, figOut)
		fmt.Fprintf(out, "(figure 9 took %s)\n\n", time.Since(start).Round(time.Second))
	}
	if want("rr") {
		start := time.Now()
		fmt.Fprintln(out, benchmark.RROverhead(ctx, real, synthetic, cfg))
		fmt.Fprintf(out, "(rr overhead took %s)\n", time.Since(start).Round(time.Second))
	}
	finish()
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted")
		os.Exit(130)
	}
	os.Exit(exitCode)
}
