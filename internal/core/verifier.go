package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"verifas/internal/fol"
	"verifas/internal/has"
	"verifas/internal/ltl"
	"verifas/internal/static"
	"verifas/internal/symbolic"
	"verifas/internal/vass"
)

// Property is an LTL-FO property ∀ȳ φ_f of one task (paper Section 2.1):
// an LTL formula over service propositions and named condition
// propositions, the conditions f interpreting them (quantifier-free, over
// the task's variables and the globals ȳ), and the universally quantified
// global variables.
type Property struct {
	Name string
	// Task names the task whose local runs are verified.
	Task string
	// Globals are the universally quantified variables ȳ.
	Globals []has.Variable
	// Conds interprets the condition propositions.
	Conds map[string]fol.Formula
	// Formula is the LTL skeleton.
	Formula ltl.Formula
}

// Options configure the verifier; the zero value enables every
// optimization (the full VERIFAS configuration). The embedded Budget
// carries the engine-neutral resource knobs (MaxStates, MaxMemBytes,
// Timeout, Observer, ProgressStride).
type Options struct {
	Budget
	// NoStatePruning disables the ⪯-based aggressive pruning (SP, paper
	// Section 3.5), falling back to the coverage order ≤.
	NoStatePruning bool
	// NoStaticAnalysis disables the constraint-graph edge filter (SA,
	// Section 3.7).
	NoStaticAnalysis bool
	// NoIndexes disables the Trie/inverted-list candidate indexes (DSS,
	// Section 3.6).
	NoIndexes bool
	// IgnoreSets verifies with artifact relations ignored (VERIFAS-NoSet).
	IgnoreSets bool
	// SkipRepeatedReachability turns off the infinite-run module
	// (Section 3.8); only finite-run violations are then detected.
	SkipRepeatedReachability bool
	// NoInterning disables the hash-consing of pisotypes into a shared
	// intern table. Interning is semantically transparent (structural
	// equality is unchanged; equal types just share one allocation), so
	// this exists for memory benchmarking and defensive bisection, and —
	// like the Budget fields — does not contribute to EngineName.
	NoInterning bool
}

// DefaultMaxStates bounds each search phase unless overridden.
const DefaultMaxStates = 2_000_000

// Step is one transition of a counterexample trace. The JSON field names
// are part of the persistent result-store envelope (internal/store), so
// they must stay stable across releases.
type Step struct {
	Service symbolic.ServiceRef `json:"service"`
	// State describes the reached symbolic state (constraints on the
	// artifact variables).
	State string `json:"state"`
}

// Violation describes a counterexample: a symbolic local run violating the
// property.
type Violation struct {
	// Kind is "finite" (the run closes in a Qfin state), "pumping"
	// (an accepting state recurs via a counter-pumping cycle found during
	// acceleration), or "cycle" (an accepting cycle of the coverability
	// graph).
	Kind string `json:"kind"`
	// Prefix is the stem of the run.
	Prefix []Step `json:"prefix,omitempty"`
	// Cycle is the repeated part for infinite violations.
	Cycle []Step `json:"cycle,omitempty"`
}

// Stats reports search effort, broken down per phase.
type Stats struct {
	BuchiStates int `json:"buchi_states"`
	// Reachability is phase 1: the reachability search with on-the-fly
	// violation detection. The spin-like baseline reports its whole
	// nested DFS here.
	Reachability PhaseStats `json:"reachability"`
	// RR is the repeated-reachability phase: the classical coverability
	// search whose graph is checked for accepting cycles.
	RR PhaseStats `json:"rr"`
	// Confirm is never set; removed at the next benchmark change. The
	// JSON tag stays so stored results still decode.
	Confirm  PhaseStats    `json:"confirm"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	TimedOut bool          `json:"timed_out"`
	// BudgetExhausted mirrors TimedOut for the memory budget: the search
	// stopped because Options.MaxMemBytes was exceeded, and the phase
	// stats are partial.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
}

// StatesExplored aggregates the states created across all search phases.
func (s Stats) StatesExplored() int {
	return s.Reachability.States + s.RR.States
}

// Pruned aggregates the nodes deactivated by pruning across all phases.
func (s Stats) Pruned() int {
	return s.Reachability.Pruned + s.RR.Pruned
}

// Skipped aggregates the dominated/duplicate states across all phases.
func (s Stats) Skipped() int {
	return s.Reachability.Skipped + s.RR.Skipped
}

// Accelerations aggregates the ω-acceleration count across all phases.
func (s Stats) Accelerations() int {
	return s.Reachability.Accelerations + s.RR.Accelerations
}

// RRStates is the state count of the repeated-reachability module.
func (s Stats) RRStates() int { return s.RR.States }

// Result is the outcome of a verification.
type Result struct {
	// Verdict is the three-valued outcome: VerdictHolds, VerdictViolated
	// (see Violation) or VerdictTimedOut (budget exhaustion; nothing is
	// known).
	Verdict   Verdict    `json:"verdict"`
	Violation *Violation `json:"violation,omitempty"`
	Stats     Stats      `json:"stats"`
}

// Holds reports whether every local run of the task satisfies the
// property. It is the derived form of Verdict == VerdictHolds; note that
// !Holds() does NOT imply a violation — check Verdict (or TimedOut) to
// distinguish budget exhaustion.
func (r *Result) Holds() bool { return r.Verdict == VerdictHolds }

// TimedOut reports budget exhaustion (wall clock or state count).
func (r *Result) TimedOut() bool { return r.Verdict == VerdictTimedOut }

// BudgetExhausted reports that the memory budget (Options.MaxMemBytes)
// stopped the search; the stats are partial and nothing is known about
// the property.
func (r *Result) BudgetExhausted() bool { return r.Verdict == VerdictBudget }

// Verify checks that every local run of the property's task satisfies the
// property (paper Section 3). The system must already be validated.
//
// Cancellation contract: the property translation and the search poll
// ctx cooperatively in their hot loops. If ctx is cancelled, Verify returns promptly with ctx.Err() and a
// nil Result (no Verdict event is emitted). If ctx's deadline or
// opts.Timeout expires (or MaxStates is exhausted), Verify returns a
// Result with VerdictTimedOut and a nil error; this holds also when the
// search finished but ctx expired during it, since a cut search may have
// missed states. A nil ctx is treated as context.Background().
func Verify(ctx context.Context, sys *has.System, prop *Property, opts Options) (*Result, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err == context.Canceled {
		return nil, err
	}
	task, err := ValidateProperty(sys, prop)
	if err != nil {
		return nil, err
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}

	em := newEmitter(opts)
	res := &Result{}
	// finish seals the result: verdict, elapsed time, terminal event.
	finish := func(v Verdict) (*Result, error) {
		res.Verdict = v
		res.Stats.TimedOut = v == VerdictTimedOut
		res.Stats.BudgetExhausted = v == VerdictBudget
		res.Stats.Elapsed = time.Since(start)
		em.verdict(res)
		return res, nil
	}

	// ---- Compile: Büchi automaton of the NEGATED property, translated
	// under the run's ctx, plus the task's symbolic semantics with the
	// property bound.
	compileStart := time.Now()
	em.phaseStart(PhaseCompile)
	buchi, err := ltl.TranslateContext(ctx, ltl.Not(prop.Formula))
	var ts *symbolic.TaskSystem
	if err == nil {
		ts, err = symbolic.CompileTask(sys, task, symbolic.PropertyBinding{
			Globals: prop.Globals,
			Conds:   prop.Conds,
		}, symbolic.Options{IgnoreSets: opts.IgnoreSets})
	}
	em.phaseEnd(PhaseCompile, PhaseStats{Elapsed: time.Since(compileStart)})
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return finish(VerdictTimedOut)
	case err != nil:
		return nil, err
	}

	// ---- Static analysis: the constraint-graph edge filter.
	if !opts.NoStaticAnalysis {
		saStart := time.Now()
		em.phaseStart(PhaseStatic)
		ts.SetFilter(static.Analyze(ts))
		em.phaseEnd(PhaseStatic, PhaseStats{Elapsed: time.Since(saStart)})
	}

	// ---- Interning: hash-cons the pisotypes retained in states. Must be
	// attached before the first Initial()/Successors() call; shared by
	// every search phase of this run so cross-phase duplicates collapse
	// too.
	if !opts.NoInterning {
		ts.SetInterner(symbolic.NewInterner())
	}

	res.Stats.BuchiStates = buchi.NumStates()
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}

	// ---- Phase 1: reachability with on-the-fly violation detection.
	order := OrderPrecedes
	if opts.NoStatePruning {
		order = OrderLeq
	}
	prod := newProduct(ts, buchi, order)
	prod.ctx = ctx

	var finViolation *vass.Node
	var pumpAncestor *vass.Node
	anyAccepting := false

	reachStart := time.Now()
	em.phaseStart(PhaseReach)
	tree, exploreErr := vass.Explore(prod, vass.Options{
		Prune:          true,
		Accelerate:     true,
		UseIndex:       !opts.NoIndexes,
		MaxStates:      maxStates,
		MaxMemBytes:    opts.MaxMemBytes,
		MemExtra:       internerExtra(ts),
		Ctx:            ctx,
		OnProgress:     em.searchProgress(PhaseReach),
		ProgressStride: em.stride,
		OnNode: func(n *vass.Node) bool {
			ps := n.S.(*PState)
			if prod.FinViolation(ps) {
				finViolation = n
				return true
			}
			if prod.Accepting(ps) {
				anyAccepting = true
			}
			return false
		},
		OnAccelerate: func(anc *vass.Node, _ vass.State) bool {
			// The tree path from the ancestor to the current node is a
			// pumpable cycle: every Büchi node on it recurs infinitely
			// often. Only the ancestor's Büchi node is tested: if it is
			// accepting, the property is violated (ω states are
			// inherently repeatedly reachable). An accepting node
			// elsewhere on the path is left to the RR phase.
			if opts.SkipRepeatedReachability {
				return false
			}
			if prod.Accepting(anc.S.(*PState)) {
				pumpAncestor = anc
				return true
			}
			return false
		},
	})
	res.Stats.Reachability = treeStats(tree, reachStart)
	em.phaseEnd(PhaseReach, res.Stats.Reachability)
	if exploreErr != nil {
		if errors.Is(exploreErr, context.Canceled) {
			return nil, exploreErr
		}
		if errors.Is(exploreErr, vass.ErrMemBudget) {
			return finish(VerdictBudget)
		}
		// State budget or deadline exhausted.
		return finish(VerdictTimedOut)
	}

	if finViolation != nil {
		res.Violation = &Violation{Kind: "finite", Prefix: tracePath(ts, finViolation)}
		return finish(VerdictViolated)
	}
	if pumpAncestor != nil {
		res.Violation = &Violation{Kind: "pumping", Prefix: tracePath(ts, pumpAncestor)}
		return finish(VerdictViolated)
	}

	// ---- Phase 2: repeated reachability for infinite-run violations.
	if !opts.SkipRepeatedReachability && anyAccepting {
		v, rrStats, stop, err := repeatedReachability(ctx, ts, buchi, opts, maxStates, em)
		res.Stats.RR = rrStats
		if err != nil {
			return nil, err
		}
		if stop != VerdictUnknown {
			return finish(stop)
		}
		if v != nil {
			res.Violation = v
			return finish(VerdictViolated)
		}
	}

	// A search cut by ctx may have dropped successors (product.Successors
	// truncates once ctx is done) and still run to an empty worklist, so
	// "holds" stands only if ctx was live after the last search step.
	// A violation found before the cut is a real path and stands anyway.
	if err := ctx.Err(); errors.Is(err, context.Canceled) {
		return nil, err
	} else if err != nil {
		return finish(VerdictTimedOut)
	}
	return finish(VerdictHolds)
}

// treeStats converts an exploration's counters into PhaseStats.
func treeStats(t *vass.Tree, start time.Time) PhaseStats {
	return PhaseStats{
		States:        t.Created,
		Pruned:        t.Pruned,
		Skipped:       t.Skipped,
		Accelerations: t.Accelerations,
		Elapsed:       time.Since(start),
		MemBytes:      t.MemBytes,
	}
}

// internerExtra returns the shared intern-table byte accounting for the
// memory budget (vass.Options.MemExtra), or nil when interning is off —
// per-state estimates exclude interned types, so the table is charged
// exactly once here.
func internerExtra(ts *symbolic.TaskSystem) func() int64 {
	in := ts.Interner()
	if in == nil {
		return nil
	}
	return in.Bytes
}

// ValidateProperty resolves the property's task and type-checks the
// property against the system without running any search, returning the
// resolved task. It is the exact pre-flight check Verify performs, so
// front ends (the verification service, CLIs) can reject bad requests
// cheaply before queueing work. Failures wrap ErrUnknownTask or
// ErrInvalidProperty for errors.Is dispatch.
func ValidateProperty(sys *has.System, prop *Property) (*has.Task, error) {
	task, ok := sys.Task(prop.Task)
	if !ok {
		return nil, fmt.Errorf("core: %w %q", ErrUnknownTask, prop.Task)
	}
	if err := validateProperty(sys, task, prop); err != nil {
		return nil, err
	}
	return task, nil
}

// PropertySignature renders the property's content deterministically, so
// that structurally equal properties (rebuilt per suite run, or re-parsed
// from identical request bodies) compare equal as strings. It is the
// property component of the verification service's content-addressed
// result-cache key.
func PropertySignature(prop *Property) string {
	var sb strings.Builder
	sb.WriteString(prop.Task)
	sb.WriteString("|")
	sb.WriteString(ltl.String(prop.Formula))
	for _, g := range prop.Globals {
		fmt.Fprintf(&sb, "|g:%s:%v", g.Name, g.Type)
	}
	names := make([]string, 0, len(prop.Conds))
	for n := range prop.Conds {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "|c:%s=%s", n, fol.String(prop.Conds[n]))
	}
	return sb.String()
}

// validateProperty type-checks the property against the system and task.
// Every failure wraps ErrInvalidProperty.
func validateProperty(sys *has.System, task *has.Task, prop *Property) error {
	scope := has.TaskScope(task)
	seen := map[string]bool{}
	for _, g := range prop.Globals {
		if _, clash := scope[g.Name]; clash || seen[g.Name] {
			return invalidPropf("global variable %q clashes", g.Name)
		}
		seen[g.Name] = true
		if g.Type.IsID() {
			if _, ok := sys.Schema.Relation(g.Type.Rel); !ok {
				return invalidPropf("global %q has unknown ID sort %q", g.Name, g.Type.Rel)
			}
		}
		scope = scope.With(g)
	}
	for name, f := range prop.Conds {
		if err := sys.CheckCondition(f, scope, "property condition "+name); err != nil {
			return fmt.Errorf("core: %w: %w", ErrInvalidProperty, err)
		}
	}
	// Every LTL atom is either a service proposition of the task or a
	// defined condition.
	svc := task.ServiceAtoms()
	for _, a := range ltl.Atoms(prop.Formula) {
		if svc[a] {
			continue
		}
		if _, ok := prop.Conds[a]; !ok {
			return invalidPropf("atom %q is neither a service proposition of task %s nor a defined condition", a, task.Name)
		}
	}
	return nil
}

// tracePath renders the tree path to a node as a counterexample prefix.
func tracePath(ts *symbolic.TaskSystem, n *vass.Node) []Step {
	var out []Step
	for _, nd := range n.Path() {
		ps := nd.S.(*PState)
		ref := ts.OpenRef()
		if nd.Label != nil {
			ref = nd.Label.(Label).Ref
		}
		out = append(out, Step{Service: ref, State: ps.PSI.Tau.String()})
	}
	return out
}
