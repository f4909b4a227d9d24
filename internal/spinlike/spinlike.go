// Package spinlike is the baseline verifier standing in for the Spin-based
// artifact verifier of [33] that the paper compares against (Section 4.1).
//
// Spin is a finite-state explicit model checker: the verifier of [33] had
// to bound the data domain (symbolic constants) and could not handle
// updatable artifact relations. This package re-implements that class of
// verifier natively: every artifact variable ranges over a bounded
// abstract domain (the specification/property constants plus k fresh
// values per sort plus null); the read-only database is represented by
// lazily materialized frozen rows over the same domain (each relation has
// k abstract identifiers, each either absent or holding one of the
// possible tuples — chosen nondeterministically at first access and frozen
// thereafter, preserving database immutability); artifact relations are
// ignored, exactly like the restricted model of [33]. The property
// automaton is the same Büchi construction used by VERIFAS, and acceptance
// cycles are found with the nested depth-first search Spin itself uses.
//
// The result is sound and complete FOR THE BOUNDED DOMAIN: a reported
// violation is witnessed by a run over ≤k data values per sort; a
// "holds" verdict may miss violations requiring more values. Its state
// space explodes with data combinatorics — the behaviour Table 2
// demonstrates.
package spinlike

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"verifas/internal/core"
	"verifas/internal/fol"
	"verifas/internal/has"
	"verifas/internal/ltl"
	"verifas/internal/vass"
)

// Options configure the bounded search. The embedded core.Budget
// carries the engine-neutral resource knobs, with spinlike-specific
// defaults and semantics:
//
//   - MaxStates bounds the number of distinct product states (default
//     200000, not core.DefaultMaxStates). Exceeding it aborts with a
//     timed-out verdict.
//   - MaxMemBytes bounds the estimated retained bytes of the search
//     (state table plus records; 0 = unlimited). Exceeding it aborts
//     with core.VerdictBudget and partial stats.
//   - Timeout bounds wall-clock time (0 = none).
//   - Observer, if non-nil, receives the run's event stream (the same
//     core event model as core.Verify: PhaseCompile + PhaseReach with
//     Progress snapshots, terminated by a Verdict event);
//     ProgressStride is the interned-state stride between snapshots.
type Options struct {
	core.Budget
	// Bitstate replaces the exact state table (which retains every
	// state's full serialized key) with a double-64-bit-hash table:
	// dramatically less memory per state, at the cost of LOSSY coverage —
	// a hash collision (~2⁻¹²⁸ per pair) silently merges two distinct
	// states, so a "holds" verdict no longer guarantees full bounded-
	// domain coverage and a reported cycle could in principle be
	// fabricated. Off by default; engines that enable it declare
	// Caps().Lossy so portfolio mode never lets their "holds" decide.
	Bitstate bool
}

const (
	// freshPerSort is k, the number of abstract values/identifiers per
	// sort beyond the named constants.
	freshPerSort = 2
	// maxBranch caps the nondeterministic branching of one transition
	// (assignment × row-materialization choices); exceeding it aborts.
	maxBranch = 1 << 16
)

// rowKey identifies an abstract database row.
type rowKey struct {
	Rel string
	ID  fol.Value
}

// rowMap is an immutable frozen-row interpretation; extensions share the
// parent (persistent association list).
type rowMap struct {
	parent *rowMap
	key    rowKey
	// absent marks "this id has no row"; otherwise attrs is the tuple.
	absent bool
	attrs  []fol.Value
}

func (m *rowMap) lookup(k rowKey) (*rowMap, bool) {
	for cur := m; cur != nil; cur = cur.parent {
		if cur.key == k {
			return cur, true
		}
	}
	return nil, false
}

func (m *rowMap) with(k rowKey, absent bool, attrs []fol.Value) *rowMap {
	return &rowMap{parent: m, key: k, absent: absent, attrs: attrs}
}

// entries returns the frozen rows, newest first, deduplicated.
func (m *rowMap) entries() []*rowMap {
	var out []*rowMap
	seen := map[rowKey]bool{}
	for cur := m; cur != nil; cur = cur.parent {
		if cur.key.Rel == "" || seen[cur.key] {
			continue
		}
		seen[cur.key] = true
		out = append(out, cur)
	}
	return out
}

// checker holds the bounded verification context.
type checker struct {
	sys   *has.System
	task  *has.Task
	prop  *core.Property
	buchi *ltl.Buchi
	opts  Options

	tasks    []*has.Task // all tasks, index = bit position
	taskIdx  map[string]int
	valDom   []fol.Value            // bounded DOMval
	idDom    map[string][]fol.Value // bounded Dom(R.ID) per relation
	svcAtoms map[string]bool

	budget   int
	ctx      context.Context
	overflow bool
	// memBudget/memBytes implement MaxMemBytes: estimated retained bytes
	// of the per-valuation state tables. budgetHit records that overflow
	// was forced by the memory budget (not MaxStates/maxBranch), turning
	// the verdict into core.VerdictBudget.
	memBudget int64
	memBytes  int64
	budgetHit bool
	// bitstate keys the state table by double 64-bit hash instead of the
	// serialized state (Options.Bitstate).
	bitstate bool

	// interned counts distinct product states across all global
	// valuations (monotone); drives the stride-based Progress events.
	interned    int
	obs         core.Observer
	stride      int
	nextEmit    int
	searchStart time.Time
}

// emitProgress publishes a Progress snapshot when the stride has been
// reached (or unconditionally with force, for the final snapshot every
// search emits). Disabled observation costs one nil check.
func (c *checker) emitProgress(frontier int, force bool) {
	if c.obs == nil || (!force && c.interned < c.nextEmit) {
		return
	}
	c.nextEmit = c.interned + c.stride
	c.obs.Progress(core.NewProgressEvent(core.PhaseReach, c.searchStart, vass.Progress{
		Created:  c.interned,
		Frontier: frontier,
	}))
}

// Verify runs the bounded explicit-state check of the property.
//
// VerdictHolds means no violation exists within the bounded domain
// (violations requiring more data values may still exist);
// VerdictViolated is witnessed by a run over the bounded domain, though
// the result carries no trace; VerdictTimedOut means the state or time
// budget ran out first. The whole nested DFS is reported as the
// reachability phase of Result.Stats.
//
// Cancellation contract (mirrors core.Verify): the property translation
// and the nested DFS poll ctx cooperatively. A cancelled ctx makes Verify
// return promptly with ctx.Err(); an expired deadline (ctx's or
// opts.Timeout, whichever fires first) is reported as Result.TimedOut
// with a nil error. A nil ctx is treated as context.Background().
func Verify(ctx context.Context, sys *has.System, prop *core.Property, opts Options) (*core.Result, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err == context.Canceled {
		return nil, err
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = 200000
	}
	task, ok := sys.Task(prop.Task)
	if !ok {
		return nil, fmt.Errorf("spinlike: %w %q", core.ErrUnknownTask, prop.Task)
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	obs := opts.Observer
	stride := opts.ProgressStride
	if stride <= 0 {
		stride = core.DefaultProgressStride
	}
	compileStart := time.Now()
	if obs != nil {
		obs.PhaseStart(core.PhaseCompile)
	}
	c := &checker{
		sys:       sys,
		task:      task,
		prop:      prop,
		opts:      opts,
		idDom:     map[string][]fol.Value{},
		budget:    opts.MaxStates,
		memBudget: opts.MaxMemBytes,
		bitstate:  opts.Bitstate,
		ctx:       ctx,
		obs:       obs,
		stride:    stride,
	}
	c.tasks = sys.Tasks()
	c.taskIdx = map[string]int{}
	for i, t := range c.tasks {
		c.taskIdx[t.Name] = i
	}
	if len(c.tasks) > 32 {
		return nil, fmt.Errorf("spinlike: too many tasks")
	}
	// Bounded domains.
	consts := map[string]bool{}
	for _, s := range sys.Constants() {
		consts[s] = true
	}
	for _, f := range prop.Conds {
		for _, s := range fol.Constants(f) {
			consts[s] = true
		}
	}
	var cs []string
	for s := range consts {
		cs = append(cs, s)
	}
	sort.Strings(cs)
	for _, s := range cs {
		c.valDom = append(c.valDom, fol.ConstValue(s))
	}
	for i := 0; i < freshPerSort; i++ {
		c.valDom = append(c.valDom, fol.ConstValue(fmt.Sprintf("\x00d%d", i)))
	}
	for _, rel := range sys.Schema.Relations {
		for i := 0; i < freshPerSort; i++ {
			c.idDom[rel.Name] = append(c.idDom[rel.Name], fol.IDValue(rel.Name, i))
		}
	}
	c.svcAtoms = map[string]bool{
		"open:" + task.Name:  true,
		"close:" + task.Name: true,
	}
	for _, s := range task.Services {
		c.svcAtoms["call:"+s.Name] = true
	}
	for _, ch := range task.Children {
		c.svcAtoms["open:"+ch.Name] = true
		c.svcAtoms["close:"+ch.Name] = true
	}
	var err error
	c.buchi, err = ltl.TranslateContext(ctx, ltl.Not(prop.Formula))
	if obs != nil {
		obs.PhaseEnd(core.PhaseCompile, core.PhaseStats{Elapsed: time.Since(compileStart)})
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return c.finish(core.VerdictTimedOut, start), nil
	case err != nil:
		return nil, err
	}

	// ∀ globals: enumerate global valuations; the property holds iff it
	// holds for every one. The whole nested DFS is one reachability
	// phase in the event stream.
	c.searchStart = time.Now()
	c.nextEmit = stride
	if obs != nil {
		obs.PhaseStart(core.PhaseReach)
	}
	violated, timedOut, budgetHit := c.checkAllGlobals(c.globalValuations())
	c.emitProgress(0, true)
	if obs != nil {
		obs.PhaseEnd(core.PhaseReach, core.PhaseStats{
			States:   c.interned,
			Elapsed:  time.Since(c.searchStart),
			MemBytes: c.memBytes,
		})
	}
	if timedOut {
		if err := ctx.Err(); err == context.Canceled {
			return nil, err
		}
	}
	v := core.VerdictHolds
	switch {
	case budgetHit:
		v = core.VerdictBudget
	case timedOut:
		v = core.VerdictTimedOut
	case violated:
		v = core.VerdictViolated
	}
	return c.finish(v, start), nil
}

// finish seals the run started at start: the verdict, the whole run's
// stats reported as its reachability phase, and the terminal Verdict
// event.
func (c *checker) finish(v core.Verdict, start time.Time) *core.Result {
	elapsed := time.Since(start)
	res := &core.Result{Verdict: v, Stats: core.Stats{
		Reachability: core.PhaseStats{
			States:   c.interned,
			Elapsed:  elapsed,
			MemBytes: c.memBytes,
		},
		Elapsed:         elapsed,
		TimedOut:        v == core.VerdictTimedOut,
		BudgetExhausted: v == core.VerdictBudget,
	}}
	if c.obs != nil {
		c.obs.Verdict(core.VerdictEvent{Verdict: v, Stats: res.Stats})
	}
	return res
}

// checkAllGlobals checks the property for every global valuation, in
// order: the property holds iff it holds for all of them, so the first
// deciding (violated, timed-out or over-budget) valuation settles the run.
func (c *checker) checkAllGlobals(gvs []fol.MapValuation) (bool, bool, bool) {
	for _, gv := range gvs {
		violated, timedOut, budget := c.checkForGlobals(gv)
		if violated || timedOut || budget {
			return violated, timedOut, budget
		}
	}
	return false, false, false
}

func (c *checker) globalValuations() []fol.MapValuation {
	out := []fol.MapValuation{{}}
	for _, g := range c.prop.Globals {
		var cands []fol.Value
		if g.Type.IsID() {
			cands = append(cands, c.idDom[g.Type.Rel]...)
		} else {
			cands = append(cands, c.valDom...)
		}
		cands = append(cands, fol.NullValue())
		var next []fol.MapValuation
		for _, base := range out {
			for _, v := range cands {
				nv := fol.MapValuation{}
				for k, x := range base {
					nv[k] = x
				}
				nv[g.Name] = v
				next = append(next, nv)
			}
		}
		out = next
	}
	return out
}
