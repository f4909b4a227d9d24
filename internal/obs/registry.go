// Package obs provides the observability sinks layered on the core event
// model: an expvar-backed metrics registry aggregating across concurrent
// verifications, a JSONL trace writer recording the raw event stream, and
// a debug HTTP server exposing pprof and expvar.
package obs

import (
	"encoding/json"
	"expvar"
	"sync"
	"sync/atomic"
	"time"

	"verifas/internal/core"
)

// Registry aggregates the event streams of many concurrent verifications
// into atomic counters. It implements expvar.Var, rendering the current
// totals as one JSON object, so Publish exposes it on /debug/vars.
//
// Each verification gets its own handle from Run; the handle converts the
// run's cumulative per-phase counters into deltas before adding them, so
// totals stay correct however often a run snapshots its progress.
type Registry struct {
	runsActive atomic.Int64
	runsDone   atomic.Int64
	holds      atomic.Int64
	violated   atomic.Int64
	timedOut   atomic.Int64
	budget     atomic.Int64

	states        atomic.Int64
	pruned        atomic.Int64
	skipped       atomic.Int64
	accelerations atomic.Int64

	// phaseNanos accumulates wall time per phase, indexed by phaseIdx.
	phaseNanos [numPhases]atomic.Int64

	// engMu guards engines: the per-engine outcome counters fed by
	// portfolio runs (EngineStart/EngineDone events). Unlike the hot
	// per-state counters above, these fire at most a handful of times
	// per run, so a mutex-guarded map is fine.
	engMu   sync.Mutex
	engines map[string]*engineCounters
}

// engineCounters tallies one engine's portfolio outcomes. Guarded by
// Registry.engMu.
type engineCounters struct {
	starts, wins, holds, violated, timedOut, budget, canceled, errs int64
}

// engineLocked returns the counters for name, creating them lazily.
// Caller holds engMu.
func (r *Registry) engineLocked(name string) *engineCounters {
	if r.engines == nil {
		r.engines = map[string]*engineCounters{}
	}
	c, ok := r.engines[name]
	if !ok {
		c = &engineCounters{}
		r.engines[name] = c
	}
	return c
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

var phaseOrder = [...]core.Phase{
	core.PhaseCompile,
	core.PhaseStatic,
	core.PhaseReach,
	core.PhaseRR,
}

const numPhases = len(phaseOrder)

func phaseIdx(p core.Phase) int {
	for i, q := range phaseOrder {
		if p == q {
			return i
		}
	}
	return -1
}

// Run returns the observer handle for one verification. The handle is not
// safe for concurrent use (matching the Observer contract: one run's
// events arrive sequentially); the registry it feeds is.
//
// RunsActive counts handles whose Verdict event has not arrived yet; a
// run aborted by cancellation or a validation error never emits one, so
// the gauge counts such runs until process exit.
func (r *Registry) Run() core.Observer {
	r.runsActive.Add(1)
	return &regRun{reg: r}
}

// Publish registers the registry with the expvar package under name,
// making it visible on /debug/vars. Panics (like expvar.Publish) if the
// name is already in use.
func (r *Registry) Publish(name string) { expvar.Publish(name, r) }

// Snapshot is the JSON shape rendered by String.
type Snapshot struct {
	RunsActive int64 `json:"runs_active"`
	RunsDone   int64 `json:"runs_done"`
	Holds      int64 `json:"holds"`
	Violated   int64 `json:"violated"`
	TimedOut   int64 `json:"timed_out"`
	// BudgetExhausted counts runs stopped by their memory budget.
	BudgetExhausted int64 `json:"budget_exhausted"`

	States        int64 `json:"states"`
	Pruned        int64 `json:"pruned"`
	Skipped       int64 `json:"skipped"`
	Accelerations int64 `json:"accelerations"`

	// PhaseMillis is wall time spent per phase, in milliseconds.
	PhaseMillis map[string]int64 `json:"phase_millis"`

	// Engines tallies per-engine portfolio outcomes (absent until the
	// first portfolio run): how often each contender launched, won the
	// race, and how its own runs ended.
	Engines map[string]EngineSnapshot `json:"engines,omitempty"`
}

// EngineSnapshot is one engine's portfolio outcome totals.
type EngineSnapshot struct {
	// Starts counts portfolio launches of this engine.
	Starts int64 `json:"starts"`
	// Wins counts races this engine's decisive verdict settled.
	Wins int64 `json:"wins"`
	// Verdict outcomes of the engine's own runs.
	Holds           int64 `json:"holds"`
	Violated        int64 `json:"violated"`
	TimedOut        int64 `json:"timed_out"`
	BudgetExhausted int64 `json:"budget_exhausted"`
	// Canceled counts runs stopped early as portfolio losers.
	Canceled int64 `json:"canceled"`
	// Errors counts hard engine failures.
	Errors int64 `json:"errors"`
}

// Snapshot returns the current totals.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		RunsActive:      r.runsActive.Load(),
		RunsDone:        r.runsDone.Load(),
		Holds:           r.holds.Load(),
		Violated:        r.violated.Load(),
		TimedOut:        r.timedOut.Load(),
		BudgetExhausted: r.budget.Load(),
		States:          r.states.Load(),
		Pruned:          r.pruned.Load(),
		Skipped:         r.skipped.Load(),
		Accelerations:   r.accelerations.Load(),
		PhaseMillis:     map[string]int64{},
	}
	for i, p := range phaseOrder {
		s.PhaseMillis[string(p)] = r.phaseNanos[i].Load() / int64(time.Millisecond)
	}
	r.engMu.Lock()
	if len(r.engines) > 0 {
		s.Engines = make(map[string]EngineSnapshot, len(r.engines))
		for name, c := range r.engines {
			s.Engines[name] = EngineSnapshot{
				Starts:          c.starts,
				Wins:            c.wins,
				Holds:           c.holds,
				Violated:        c.violated,
				TimedOut:        c.timedOut,
				BudgetExhausted: c.budget,
				Canceled:        c.canceled,
				Errors:          c.errs,
			}
		}
	}
	r.engMu.Unlock()
	return s
}

// String implements expvar.Var.
func (r *Registry) String() string {
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// regRun is one verification's handle: it remembers the last cumulative
// counters seen for the current phase and feeds deltas to the registry.
type regRun struct {
	reg  *Registry
	last core.PhaseStats
}

func (h *regRun) PhaseStart(core.Phase) {
	h.last = core.PhaseStats{}
}

func (h *regRun) addDelta(cur core.PhaseStats) {
	h.reg.states.Add(int64(cur.States - h.last.States))
	h.reg.pruned.Add(int64(cur.Pruned - h.last.Pruned))
	h.reg.skipped.Add(int64(cur.Skipped - h.last.Skipped))
	h.reg.accelerations.Add(int64(cur.Accelerations - h.last.Accelerations))
	h.last = cur
}

func (h *regRun) Progress(e core.ProgressEvent) {
	h.addDelta(core.PhaseStats{
		States:        e.States,
		Pruned:        e.Pruned,
		Skipped:       e.Skipped,
		Accelerations: e.Accelerations,
	})
}
func (h *regRun) PhaseEnd(p core.Phase, ps core.PhaseStats) {
	h.addDelta(ps)
	if i := phaseIdx(p); i >= 0 {
		h.reg.phaseNanos[i].Add(int64(ps.Elapsed))
	}
}

// EngineStart counts a portfolio contender launching (the
// core.PortfolioObserver extension; single-engine runs never call it).
func (h *regRun) EngineStart(engine string) {
	h.reg.engMu.Lock()
	h.reg.engineLocked(engine).starts++
	h.reg.engMu.Unlock()
}

// EngineDone tallies a portfolio contender's outcome.
func (h *regRun) EngineDone(o core.EngineOutcome) {
	h.reg.engMu.Lock()
	defer h.reg.engMu.Unlock()
	c := h.reg.engineLocked(o.Engine)
	if o.Winner {
		c.wins++
	}
	switch {
	case o.Canceled:
		c.canceled++
	case o.Error != "":
		c.errs++
	default:
		switch o.Verdict {
		case core.VerdictHolds:
			c.holds++
		case core.VerdictViolated:
			c.violated++
		case core.VerdictTimedOut:
			c.timedOut++
		case core.VerdictBudget:
			c.budget++
		}
	}
}

func (h *regRun) Verdict(e core.VerdictEvent) {
	h.reg.runsActive.Add(-1)
	h.reg.runsDone.Add(1)
	switch e.Verdict {
	case core.VerdictHolds:
		h.reg.holds.Add(1)
	case core.VerdictViolated:
		h.reg.violated.Add(1)
	case core.VerdictTimedOut:
		h.reg.timedOut.Add(1)
	case core.VerdictBudget:
		h.reg.budget.Add(1)
	}
}
