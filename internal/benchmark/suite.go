package benchmark

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"verifas/internal/core"
	"verifas/internal/cyclo"
	"verifas/internal/engines"
	"verifas/internal/has"
	"verifas/internal/spinlike"
	"verifas/internal/synth"
	"verifas/internal/workflows"
)

// Spec is one benchmark specification.
type Spec struct {
	Name string
	Set  string // "Real" or "Synthetic"
	Sys  *has.System
	// M is the cyclomatic complexity M(A).
	M int
}

// RealSuite returns the hand-written workflow suite.
func RealSuite() []*Spec {
	var out []*Spec
	for _, e := range workflows.All() {
		sys := e.Build()
		if err := sys.Validate(); err != nil {
			panic("benchmark: real workflow " + e.Name + " invalid: " + err.Error())
		}
		m, _, _ := cyclo.Complexity(sys)
		out = append(out, &Spec{Name: e.Name, Set: "Real", Sys: sys, M: m})
	}
	return out
}

// syntheticTiers sweeps the generator sizes from small to the paper's
// full synthetic sizes, spreading cyclomatic complexity for Figure 9.
func syntheticTiers() []synth.Params {
	return []synth.Params{
		{Relations: 2, Tasks: 2, VarsPerTask: 4, ServicesPerTask: 3, AtomsPerCond: 2, NonKeyAttrs: 2, Constants: 3},
		{Relations: 3, Tasks: 2, VarsPerTask: 6, ServicesPerTask: 5, AtomsPerCond: 3, NonKeyAttrs: 2, Constants: 3},
		{Relations: 3, Tasks: 3, VarsPerTask: 8, ServicesPerTask: 8, AtomsPerCond: 3, NonKeyAttrs: 3, Constants: 4},
		{Relations: 4, Tasks: 4, VarsPerTask: 10, ServicesPerTask: 10, AtomsPerCond: 4, NonKeyAttrs: 3, Constants: 4},
		{Relations: 5, Tasks: 5, VarsPerTask: 12, ServicesPerTask: 12, AtomsPerCond: 4, NonKeyAttrs: 4, Constants: 5},
		{Relations: 5, Tasks: 5, VarsPerTask: 15, ServicesPerTask: 15, AtomsPerCond: 5, NonKeyAttrs: 4, Constants: 5},
	}
}

// SyntheticSuite generates n random specifications (paper: 120), cycling
// through the size tiers and filtering out empty-state-space candidates.
func SyntheticSuite(n int, seed int64) []*Spec {
	tiers := syntheticTiers()
	var out []*Spec
	for i := 0; i < n; i++ {
		p := tiers[i%len(tiers)]
		sys := synth.GenerateValid(p, seed+int64(i)*104729, 3, 20)
		if err := sys.Validate(); err != nil {
			continue
		}
		m, _, _ := cyclo.Complexity(sys)
		out = append(out, &Spec{
			Name: fmt.Sprintf("synth-%02d", i),
			Set:  "Synthetic",
			Sys:  sys,
			M:    m,
		})
	}
	return out
}

// synthWideNames are the specifications of the benchmark's synth-wide
// workload (bench/workloads.go): the tier-3 and tier-4 outputs of
// SyntheticSuite(11, 1), two of each tier, the widest pisotypes the
// generator makes whose searches stay within seconds.
var synthWideNames = []string{"synth-03", "synth-04", "synth-09", "synth-10"}

// SynthWide returns the specifications of the synth-wide workload, in
// synthWideNames order, or an error naming one the generator dropped.
func SynthWide() ([]*Spec, error) {
	byName := map[string]*Spec{}
	for _, s := range SyntheticSuite(11, 1) {
		byName[s.Name] = s
	}
	out := make([]*Spec, 0, len(synthWideNames))
	for _, n := range synthWideNames {
		s, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("synthetic suite has no %s", n)
		}
		out = append(out, s)
	}
	return out, nil
}

// Config bounds the benchmark runs. The paper used a 10-minute timeout
// and 8 GB; this container scales the budget down (relative behaviour is
// preserved — see DESIGN.md).
type Config struct {
	// Timeout is the per-run wall-clock budget.
	Timeout time.Duration
	// MaxStates is the per-phase state budget of VERIFAS runs.
	MaxStates int
	// MaxMemBytes is the per-run memory budget threaded to both engines
	// (0 = unlimited); budget-exhausted runs count as Fail like
	// timeouts.
	MaxMemBytes int64
	// SpinMaxStates and SpinFresh configure the spin-like baseline.
	SpinMaxStates int
	SpinFresh     int
	// Seed drives property instantiation.
	Seed int64
	// Workers bounds RunSuite's parallelism: n > 1 fans the independent
	// (spec, property) jobs over n goroutines; <= 1 runs serially. Result
	// order, content and seeding are identical either way — only the
	// wall-clock timings vary with scheduling.
	Workers int
	// Progress, when non-nil, receives a live single-line progress report
	// (completed/total, failures, live state count and throughput, ETA)
	// rewritten in place with '\r'; point it at a terminal's stderr, not
	// at a log file. The live counters are fed by the same Observer
	// events the verifiers emit.
	Progress io.Writer
	// OnRun, when non-nil, is called once per completed run, in
	// deterministic suite order after the worker pool drains (used by
	// benchrun -json to emit per-run records).
	OnRun func(Run)
	// ObserverFor, when non-nil, supplies the Observer attached to each
	// run (trace writers, metrics registries); it is called once per
	// (spec, property, verifier) job and may return nil to leave that
	// run unobserved. Handles it returns are used by one run at a time.
	ObserverFor func(spec *Spec, template, verifier string) core.Observer
	// ProgressStride overrides the state-count stride between Progress
	// events (0 = core.DefaultProgressStride).
	ProgressStride int
	// Engines is the portfolio contender list (registry names, tie-break
	// order) used by the VPortfolio verifier; empty means the default
	// portfolio (verifas + spinlike). All contenders share one budget
	// derived from Timeout/MaxStates/MaxMemBytes.
	Engines []string
}

// DefaultConfig returns a budget suitable for a small container.
func DefaultConfig() Config {
	return Config{
		Timeout:       5 * time.Second,
		MaxStates:     400_000,
		SpinMaxStates: 150_000,
		SpinFresh:     2,
		Seed:          1,
	}
}

// Run is one (spec, property, verifier) measurement.
type Run struct {
	Spec     *Spec
	Template string
	Class    string
	Verifier string
	Time     time.Duration
	// Fail marks budget exhaustion: the wall-clock timeout, the state
	// budget or the memory budget expired before the search finished.
	Fail bool
	// Err records a hard verifier error (invalid property, compilation
	// failure, cancellation). Errored runs are NOT timeouts: they are
	// excluded from time averages and counted separately — see avgTime.
	Err error
	// Verdict is the engine's three-valued outcome (VerdictUnknown for
	// errored runs).
	Verdict core.Verdict
	// Stats carries the verifier's search-effort counters. Spin-like
	// runs populate only the Reachability phase.
	Stats core.Stats
	// Portfolio carries the per-engine outcomes of a VPortfolio run
	// (winner, contender verdicts and durations); nil for single-engine
	// runs.
	Portfolio *core.PortfolioStats
}

// Winner is the portfolio race winner's engine name ("" for
// single-engine runs or undecided portfolios).
func (r Run) Winner() string {
	if r.Portfolio == nil {
		return ""
	}
	return r.Portfolio.Winner
}

// Holds reports whether the run's verdict was VerdictHolds.
func (r Run) Holds() bool { return r.Verdict == core.VerdictHolds }

// Verifier names: the canonical variant labels, derived from the options
// each one dispatches to (core.Options.Variant / spinlike.Variant), so
// table labels and configurations cannot drift apart.
var (
	VVerifas      = core.Options{}.Variant()
	VVerifasNoSet = core.Options{IgnoreSets: true}.Variant()
	VSpinlike     = spinlike.Variant
	VNoSP         = core.Options{NoStatePruning: true}.Variant()
	VNoSA         = core.Options{NoStaticAnalysis: true}.Variant()
	VNoDSS        = core.Options{NoIndexes: true}.Variant()
	VNoRR         = core.Options{SkipRepeatedReachability: true}.Variant()
)

// VPortfolio is the portfolio verifier label: the engines of
// Config.Engines race per property and the first decisive verdict wins.
const VPortfolio = "Portfolio"

// budget assembles the shared run budget from the config's knobs.
func (cfg Config) budget(maxStates int, obs core.Observer) core.Budget {
	return core.Budget{
		MaxStates:      maxStates,
		MaxMemBytes:    cfg.MaxMemBytes,
		Timeout:        cfg.Timeout,
		Observer:       obs,
		ProgressStride: cfg.ProgressStride,
	}
}

// Engine resolves a verifier name into a core.Engine with the config's
// budgets and the given observer attached. VPortfolio builds the
// Config.Engines contenders from the built-in registry and races them
// per property (the observer then sees the portfolio-level stream, not
// the contenders'). Unknown names report core.ErrUnknownVariant.
func (cfg Config) Engine(verifier string, obs core.Observer) (core.Engine, error) {
	if verifier == VSpinlike {
		return spinlike.Engine(spinlike.Options{
			Budget:       cfg.budget(cfg.SpinMaxStates, obs),
			FreshPerSort: cfg.SpinFresh,
		}), nil
	}
	if verifier == VPortfolio {
		names := cfg.Engines
		if len(names) == 0 {
			names = engines.DefaultPortfolio
		}
		contenders, err := engines.Default().BuildAll(names, cfg.budget(cfg.MaxStates, nil))
		if err != nil {
			return nil, err
		}
		return core.PortfolioEngine(contenders, false, obs), nil
	}
	opts := core.Options{Budget: cfg.budget(cfg.MaxStates, obs)}
	switch verifier {
	case VVerifas:
	case VVerifasNoSet:
		opts.IgnoreSets = true
	case VNoSP:
		opts.NoStatePruning = true
	case VNoSA:
		opts.NoStaticAnalysis = true
	case VNoDSS:
		opts.NoIndexes = true
	case VNoRR:
		opts.SkipRepeatedReachability = true
	default:
		return nil, fmt.Errorf("benchmark: %w %q", core.ErrUnknownVariant, verifier)
	}
	return core.Verifas(opts), nil
}

// templateClasses maps template names to their Table 4 class.
var templateClasses = func() map[string]string {
	m := map[string]string{}
	for _, t := range Templates() {
		m[t.Name] = t.Class
	}
	return m
}()

// TemplateClass returns the Table 4 class of a template name, or "" for
// properties outside the template set.
func TemplateClass(name string) string { return templateClasses[name] }

// RunOne verifies one property of a spec with the named verifier,
// dispatching through Config.Engine. The template class is resolved from
// the property name, so direct callers get a populated Run.Class without
// going through RunSuite.
func RunOne(ctx context.Context, spec *Spec, prop *core.Property, verifier string, cfg Config) Run {
	run := Run{Spec: spec, Template: prop.Name, Class: TemplateClass(prop.Name), Verifier: verifier}
	var obsv core.Observer
	if cfg.ObserverFor != nil {
		obsv = cfg.ObserverFor(spec, prop.Name, verifier)
	}
	eng, err := cfg.Engine(verifier, obsv)
	if err != nil {
		run.Err = err
		return run
	}
	res, err := eng.Verify(ctx, spec.Sys, prop)
	if err != nil {
		run.Err = err
		return run
	}
	run.Time = res.Stats.Elapsed
	run.Fail = res.TimedOut() || res.BudgetExhausted()
	run.Verdict = res.Verdict
	run.Stats = res.Stats
	run.Portfolio = res.Portfolio
	return run
}

// RunSuite verifies the 12 template properties of every spec with the
// named verifier, fanning the independent (spec, property) jobs over
// cfg.Workers goroutines. Properties are instantiated up front with the
// per-spec seeds, and results land at their job index, so the returned
// slice is identical in order and content to a serial run regardless of
// parallelism (timings aside). Cancelling ctx stops the suite promptly;
// unfinished runs carry ctx's error in Run.Err.
func RunSuite(ctx context.Context, specs []*Spec, verifier string, cfg Config) []Run {
	if ctx == nil {
		ctx = context.Background()
	}
	type job struct {
		spec  *Spec
		prop  *core.Property
		class string
	}
	tmpls := Templates()
	var jobs []job
	for si, spec := range specs {
		props := Properties(spec.Sys, cfg.Seed+int64(si))
		for ti, prop := range props {
			jobs = append(jobs, job{spec: spec, prop: prop, class: tmpls[ti].Class})
		}
	}
	out := make([]Run, len(jobs))
	meter := newProgressMeter(cfg.Progress, verifier, len(jobs))
	// The meter taps the runs' event streams for its live state counter,
	// stacked in front of any caller-supplied observers.
	userFor := cfg.ObserverFor
	cfg.ObserverFor = func(spec *Spec, template, verifier string) core.Observer {
		var user core.Observer
		if userFor != nil {
			user = userFor(spec, template, verifier)
		}
		return core.MultiObserver(meter.observer(), user)
	}
	runJob := func(i int) {
		j := jobs[i]
		r := RunOne(ctx, j.spec, j.prop, verifier, cfg)
		r.Class = j.class
		out[i] = r
		meter.completed(r)
	}
	workers := cfg.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i := range jobs {
			runJob(i)
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= len(jobs) {
						return
					}
					runJob(i)
				}
			}()
		}
		wg.Wait()
	}
	meter.finish()
	if cfg.OnRun != nil {
		for i := range out {
			cfg.OnRun(out[i])
		}
	}
	return out
}

// progressMeter renders the live progress line. All methods are safe for
// concurrent use; a nil writer disables everything. Besides the
// done/failed/ETA counters updated per completed run, it taps the event
// stream of every in-flight run (see observer) for a live aggregate state
// count and throughput.
type progressMeter struct {
	mu       sync.Mutex
	w        io.Writer
	label    string
	total    int
	done     int
	fails    int
	errs     int
	start    time.Time
	lastDraw time.Time

	states atomic.Int64
}

func newProgressMeter(w io.Writer, label string, total int) *progressMeter {
	return &progressMeter{w: w, label: label, total: total, start: time.Now()}
}

func (p *progressMeter) completed(r Run) {
	if p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	switch {
	case r.Err != nil:
		p.errs++
	case r.Fail:
		p.fails++
	}
	p.draw()
}

// draw renders the line; the caller holds p.mu.
func (p *progressMeter) draw() {
	p.lastDraw = time.Now()
	eta := time.Duration(0)
	elapsed := time.Since(p.start)
	if p.done > 0 && p.done < p.total {
		eta = elapsed / time.Duration(p.done) * time.Duration(p.total-p.done)
	}
	states := p.states.Load()
	rate := float64(0)
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(states) / secs
	}
	fmt.Fprintf(p.w, "\r%-16s %d/%d done, %d failed, %d errors, %d states (%.0f/s), ETA %-8s",
		p.label, p.done, p.total, p.fails, p.errs, states, rate, eta.Round(time.Second))
}

// meterRedrawInterval throttles event-driven redraws so fast runs do not
// spend their time repainting the terminal.
const meterRedrawInterval = 200 * time.Millisecond

// maybeRedraw repaints on a Progress event, rate-limited.
func (p *progressMeter) maybeRedraw() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if time.Since(p.lastDraw) < meterRedrawInterval {
		return
	}
	p.draw()
}

func (p *progressMeter) finish() {
	if p.w == nil || p.total == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintln(p.w)
}

// observer returns a fresh per-run observer handle feeding the live state
// counter, or nil when the meter is disabled.
func (p *progressMeter) observer() core.Observer {
	if p.w == nil {
		return nil
	}
	return &meterHandle{m: p}
}

// meterHandle converts one run's cumulative per-phase counters into
// deltas on the meter's aggregate state count.
type meterHandle struct {
	m          *progressMeter
	lastStates int
}

func (h *meterHandle) PhaseStart(core.Phase) { h.lastStates = 0 }

func (h *meterHandle) Progress(e core.ProgressEvent) {
	h.m.states.Add(int64(e.States - h.lastStates))
	h.lastStates = e.States
	h.m.maybeRedraw()
}

func (h *meterHandle) PhaseEnd(_ core.Phase, ps core.PhaseStats) {
	h.m.states.Add(int64(ps.States - h.lastStates))
	h.lastStates = 0
}

func (h *meterHandle) Verdict(core.VerdictEvent) {}
