// Command bench is the verifier's benchmark. It runs one workload for a
// set time, checks every verdict against the workload's golden verdicts,
// and prints its metrics by name, with units, as one JSON object on the
// last line of standard output: the end-to-end metrics by default, the
// per-layer metrics of one traced pass with -trace 1. run.sh builds it and
// the daemons it drives; README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"verifas/internal/benchmark/envinfo"
	"verifas/internal/core"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name        = flag.String("workload", "real-suite", "workload: real-suite, synth-wide or service-mixed")
		seed        = flag.Int64("seed", 1, "seed ordering the suites' passes and generating the service schedule")
		seconds     = flag.Int("seconds", 30, "how long the end-to-end run measures; it runs whole passes")
		traceFlag   = flag.Int("trace", 0, "1 runs one untraced and one traced pass and reports the per-layer metrics")
		out         = flag.String("out", ".bench_build/out", "directory for the run's report and spans")
		binDir      = flag.String("bin", ".bench_build/bin", "directory holding the verifasd and verifas-router binaries")
		repeat      = flag.Bool("repeat", false, "run the end-to-end measurement twice and check each metric's spread against its bound in BENCHMARK.json")
		writeGolden = flag.String("write-golden", "", "record the workload's golden verdicts into this directory and exit")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || flag.NArg() > 0 || *traceFlag < 0 || *traceFlag > 1 || *seconds < 1 {
		flag.Usage()
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *repeat {
		if *traceFlag != 0 {
			fmt.Fprintln(os.Stderr, "bench: -repeat compares end-to-end metrics; run it without -trace")
			return 2
		}
		return runRepeat(ctx, *out)
	}
	r := &runner{w: w, seed: *seed, seconds: *seconds, trace: *traceFlag, binDir: *binDir, out: *out}
	defer os.RemoveAll(r.work())
	if *writeGolden != "" {
		if err := r.recordGolden(ctx, *writeGolden); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	rep, err := r.run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, s := range rep.Wrong {
		fmt.Fprintln(os.Stderr, "bench: wrong verdict:", s)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Result.Correct || rep.Result.Failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d wrong verdicts, %d failed operations\n", len(rep.Wrong), rep.Result.Failed)
		return 1
	}
	return 0
}

// runner runs one workload at one seed.
type runner struct {
	w       *workload
	seed    int64
	seconds int
	trace   int
	binDir  string
	out     string
	golden  *golden
}

// name is the stem of the run's output files.
func (r *runner) name() string {
	n := fmt.Sprintf("%s-seed%d", r.w.name, r.seed)
	if r.trace == 1 {
		n += "-trace"
	}
	return n
}

// work is scratch space for the fleet's stores, removed at exit.
func (r *runner) work() string { return filepath.Join(r.out, "work", r.name()) }

// run measures, then writes the report.
func (r *runner) run(ctx context.Context) (*report, error) {
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return nil, err
	}
	items, err := r.w.items()
	if err != nil {
		return nil, err
	}
	if r.golden, err = loadGolden(r.w, items); err != nil {
		return nil, err
	}
	var rep *report
	if r.trace == 1 {
		rep, err = r.traced(ctx)
	} else {
		rep, err = r.measure(ctx)
	}
	if err != nil {
		return nil, err
	}
	rep.Env = envinfo.Collect()
	rep.Workload, rep.Seed, rep.Seconds, rep.Trace = r.w.name, r.seed, r.seconds, r.trace
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return rep, os.WriteFile(filepath.Join(r.out, r.name()+".json"), append(b, '\n'), 0o644)
}

// passResult is one pass over the workload's inputs.
type passResult struct {
	items   []item
	setup   time.Duration // building the inputs, and booting the fleet
	ops     []op
	elapsed time.Duration
}

// setup builds a pass's inputs and, for the service, draws the run's
// schedule and boots a fresh fleet. Its duration is one setup_s sample. On
// error no fleet is left running.
func (r *runner) setup(ctx context.Context, n int) (*passResult, *fleet, schedule, error) {
	t0 := time.Now()
	items, err := r.w.items()
	if err != nil {
		return nil, nil, nil, err
	}
	p := &passResult{items: items}
	if !r.w.service {
		p.setup = time.Since(t0)
		return p, nil, nil, nil
	}
	s := newSchedule(len(items), r.seed)
	f, err := startFleet(ctx, r.binDir, r.passDir(n), false)
	p.setup = time.Since(t0)
	return p, f, s, err
}

// setupOnly sets up and tears down at once, for one more setup_s sample.
func (r *runner) setupOnly(ctx context.Context, n int) (float64, error) {
	p, f, _, err := r.setup(ctx, n)
	if err == nil {
		err = r.teardown(f, n)
	}
	if err != nil {
		return 0, err
	}
	return p.setup.Seconds(), nil
}

func (r *runner) passDir(n int) string { return filepath.Join(r.work(), fmt.Sprintf("pass%d", n)) }

// teardown stops a pass's fleet and removes its store.
func (r *runner) teardown(f *fleet, n int) error {
	if f == nil {
		return nil
	}
	f.stop()
	return os.RemoveAll(r.passDir(n))
}

// pass builds the inputs and runs them once: in-process for the suites,
// through a fresh fleet for the service.
func (r *runner) pass(ctx context.Context, n int, tr *tracer) (*passResult, error) {
	p, f, s, err := r.setup(ctx, n)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if f == nil {
		p.ops, err = runSuitePass(ctx, r.w.cfg, p.items, passOrder(len(p.items), r.seed, n), tr)
	} else {
		p.ops, _ = runSchedule(ctx, f.router, p.items, s, tr)
		err = ctx.Err()
	}
	p.elapsed = time.Since(start)
	if terr := r.teardown(f, n); err == nil {
		err = terr
	}
	return p, err
}

// setupsPerPass is how often the run sets up per pass: once for the pass,
// the other times torn down at once, so that setup_s is the median of
// samples spread over the run.
const setupsPerPass = 3

// measure is the end-to-end run: whole passes until the next one would end
// past the time budget, and at least minPasses.
func (r *runner) measure(ctx context.Context) (*report, error) {
	budget := time.Duration(r.seconds) * time.Second
	start := time.Now()
	var passes []*passResult
	var setups []float64
	for {
		t0 := time.Now()
		for k := 1; k < setupsPerPass; k++ {
			s, err := r.setupOnly(ctx, len(passes))
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		p, err := r.pass(ctx, len(passes), nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		setups = append(setups, p.setup.Seconds())
		fmt.Fprintf(os.Stderr, "bench: %s pass %d: setup %.3fs, %d ops in %.3fs\n",
			r.w.name, len(passes), p.setup.Seconds(), len(p.ops), p.elapsed.Seconds())
		if len(passes) >= minPasses && time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	return r.endToEnd(passes, setups)
}

// endToEnd computes the end-to-end metrics over all passes. Percentiles
// pool the passes.
func (r *runner) endToEnd(passes []*passResult, setups []float64) (*report, error) {
	rep := &report{Passes: len(passes), Samples: map[string]int{}, TailPercentile: r.w.tail * 100}
	var elapsed, lat []float64
	decided, attempted, failed := 0, 0, 0
	var mem int64
	for _, p := range passes {
		elapsed = append(elapsed, p.elapsed.Seconds())
		f, wrong := r.golden.check(p.items, p.ops)
		failed += f
		rep.Wrong = append(rep.Wrong, wrong...)
		for _, o := range p.ops {
			attempted++
			if o.err != nil {
				// A failed operation misses every latency limit.
				lat = append(lat, math.Inf(1))
				continue
			}
			lat = append(lat, millis(o.latency))
			if decisive(o.verdict) {
				decided++
			}
			for _, ps := range []core.PhaseStats{o.stats.Reachability, o.stats.RR, o.stats.Confirm} {
				mem = max(mem, ps.MemBytes)
			}
		}
	}
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return nil, err
	}
	tail, err := percentile(lat, r.w.tail)
	if err != nil {
		return nil, err
	}
	rep.Samples["setup_s"] = len(setups)
	rep.Samples["suite_s"] = len(elapsed)
	rep.Samples["verdict_p50_ms"] = len(lat)
	rep.Samples["verdict_tail_ms"] = len(lat)
	m := map[string]float64{
		"setup_s":           median(setups),
		"suite_s":           median(elapsed),
		"verdict_p50_ms":    p50,
		"verdict_tail_ms":   tail,
		"decided_frac":      ratio(float64(decided), float64(attempted)),
		"search_mem_mb_max": float64(mem) / 1e6,
	}
	return rep, rep.finish(endToEndMetrics, m, attempted, failed)
}

// traced runs one untraced pass, the baseline of the tracing overhead, and
// one traced pass, then replays each layer on the pass's inputs, and
// reports the per-layer metrics.
func (r *runner) traced(ctx context.Context) (*report, error) {
	base, err := r.pass(ctx, 0, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	m := map[string]float64{}
	var t *passResult
	results := map[string]*core.Result{}
	if r.w.service {
		t, err = r.tracedService(ctx, base, m, tr)
	} else {
		t, err = r.tracedSuite(ctx, m, tr)
	}
	if err != nil {
		return nil, err
	}
	for _, o := range t.ops {
		if o.result != nil {
			results[t.items[o.item].id] = o.result
		}
	}
	lm, err := replayLayers(t.items, results, r.seed, filepath.Join(r.work(), "store-replay"), tr)
	if err != nil {
		return nil, err
	}
	for k, v := range lm {
		m[k] = v
	}
	m["bench.trace_overhead_pct"] = (t.elapsed.Seconds()/base.elapsed.Seconds() - 1) * 100

	rep := &report{Passes: 2, Spans: tr.summary()}
	failed, wrong := r.golden.check(base.items, base.ops)
	f2, w2 := r.golden.check(t.items, t.ops)
	rep.Wrong = append(wrong, w2...)
	if err := tr.writeJSONL(filepath.Join(r.out, r.name()+"-spans.jsonl")); err != nil {
		return nil, err
	}
	return rep, rep.finish(perLayerMetrics, m, len(base.ops)+len(t.ops), failed+f2)
}

// tracedSuite runs the traced suite pass with a CPU profile. The suites
// send no service traffic, so their service-layer metrics are 0.
func (r *runner) tracedSuite(ctx context.Context, m map[string]float64, tr *tracer) (*passResult, error) {
	var before, after runtime.MemStats
	var prof bytes.Buffer
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	p, err := r.pass(ctx, 1, tr)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	cpu, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	engineMetrics(m, p.ops, cpu, after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc)
	m["core.compile_ms"] = millis(tr.total(string(core.PhaseCompile)))
	m["core.static_ms"] = millis(tr.total(string(core.PhaseStatic)))
	m["core.reach_ms"] = millis(tr.total(string(core.PhaseReach)))
	m["core.rr_ms"] = millis(tr.total(string(core.PhaseRR)) + tr.total(string(core.PhaseRRConfirm)))
	for _, name := range serviceOnlyMetrics {
		m[name] = 0
	}
	return p, nil
}

// tracedService serves the schedule through a fleet whose replicas are
// profiled, then verifies the inputs in-process for the store replay.
func (r *runner) tracedService(ctx context.Context, base *passResult, m map[string]float64, tr *tracer) (*passResult, error) {
	items := base.items
	// The profile covers the traced pass, which runs about as long as the
	// untraced one.
	secs := int(math.Ceil(base.elapsed.Seconds()*1.25)) + 1
	st, err := traceService(ctx, r.binDir, filepath.Join(r.work(), "traced"), items, newSchedule(len(items), r.seed), secs, tr)
	if err != nil {
		return nil, err
	}
	daemonEngineMetrics(m, st)
	if err := serviceMetrics(m, st); err != nil {
		return nil, err
	}
	ops, err := runSuitePass(ctx, r.w.cfg, items, passOrder(len(items), r.seed, 1), nil)
	if err != nil {
		return nil, err
	}
	return &passResult{items: items, ops: append(st.ops, ops...), elapsed: st.elapsed}, nil
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's record: the environment, how the run was made, the
// samples behind each end-to-end metric, and the result line.
type report struct {
	Env            envinfo.Env            `json:"env"`
	Workload       string                 `json:"workload"`
	Seed           int64                  `json:"seed"`
	Seconds        int                    `json:"seconds"`
	Trace          int                    `json:"trace"`
	Passes         int                    `json:"passes"`
	Samples        map[string]int         `json:"samples,omitempty"`
	TailPercentile float64                `json:"tail_percentile,omitempty"`
	Wrong          []string               `json:"wrong,omitempty"`
	Result         result                 `json:"result"`
	Spans          map[string]spanSummary `json:"spans,omitempty"`
}

// finish fills the result from the computed metrics, checking that every
// metric of the set is present and finite.
func (rep *report) finish(set []metricSpec, m map[string]float64, attempted, failed int) error {
	rep.Result = result{Correct: len(rep.Wrong) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, s := range set {
		v, ok := m[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s: no finite value (%v)", s.name, v)
		}
		rep.Result.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if attempted == 0 {
		return errors.New("no operation attempted")
	}
	return nil
}

// recordGolden verifies the workload's inputs in-process, with the
// workload's budgets, and writes their verdicts as its golden file.
func (r *runner) recordGolden(ctx context.Context, dir string) error {
	items, err := r.w.items()
	if err != nil {
		return err
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	ops, err := runSuitePass(ctx, r.w.cfg, items, order, nil)
	if err != nil {
		return err
	}
	return writeGolden(dir, r.w, items, ops)
}
