package core

import (
	"context"
	"errors"
	"time"

	"verifas/internal/ltl"
	"verifas/internal/symbolic"
	"verifas/internal/vass"
)

// repeatedReachability implements the infinite-run module (paper Section
// 3.8 and Appendix C): it decides whether an accepting Büchi state is
// repeatedly reachable, i.e. lies on a cycle of the coverability graph.
//
// The default strategy is the classical one: a ≤-pruned Karp-Miller
// search with acceleration yields a coverability set, and an accepting
// state is repeatedly reachable iff it lies on a cycle of the coverability
// graph (paper Section 3.3, Blockelet-Schmitz). This is sound and
// complete.
//
// With AggressiveRR the Appendix C construction runs instead: a second
// search pruned with the strict relation ⪯+ and no acceleration,
// additionally pruning against the first phase's ω states (which are
// inherently repeatedly reachable and were already handled by the
// acceleration shortcut). Violations it finds are re-confirmed classically
// unless NoRRConfirmation is set; its "holds" verdicts are not — the
// paper's completeness argument for ⪯+ is informal, and differential
// testing exposed real violations it can miss, which is why it is opt-in.
//
// The two returned PhaseStats separate the RR search proper from the
// optional confirmation pass; both searches stream Progress events to the
// emitter's observer (PhaseRR and PhaseRRConfirm respectively).
//
// The stop Verdict is VerdictUnknown when the module ran to completion,
// and VerdictTimedOut or VerdictBudget when a budget expired mid-search —
// in that case the caller must finish with that verdict and the stats are
// partial.
func repeatedReachability(ctx context.Context, ts *symbolic.TaskSystem, buchi *ltl.Buchi, phase1 *vass.Tree, opts Options, maxStates int, em emitter) (*Violation, PhaseStats, PhaseStats, Verdict, error) {
	var confirm PhaseStats
	if !opts.AggressiveRR {
		v, st, stop, err := rrClassical(ctx, ts, buchi, opts, maxStates, em, PhaseRR)
		return v, st, confirm, stop, err
	}
	v, st, stop, err := rrAggressive(ctx, ts, buchi, phase1, opts, maxStates, em)
	if err != nil || stop != VerdictUnknown || v == nil {
		return v, st, confirm, stop, err
	}
	if opts.NoRRConfirmation {
		return v, st, confirm, VerdictUnknown, nil
	}
	cv, cst, cstop, err := rrClassical(ctx, ts, buchi, opts, maxStates, em, PhaseRRConfirm)
	confirm = cst
	if err != nil {
		return nil, st, confirm, VerdictUnknown, err
	}
	if cstop != VerdictUnknown {
		// The confirmation ran out of budget; report the aggressive
		// finding but note the budget exhaustion.
		return v, st, confirm, cstop, nil
	}
	return cv, st, confirm, VerdictUnknown, nil
}

// rrClassical: ≤-pruned Karp-Miller with acceleration; the active nodes
// form a coverability set, and an accepting state is repeatedly reachable
// iff it lies on a cycle of the coverability graph (paper Section 3.3).
// The phase label distinguishes the primary RR search from the Appendix C
// confirmation pass in the event stream.
func rrClassical(ctx context.Context, ts *symbolic.TaskSystem, buchi *ltl.Buchi, opts Options, maxStates int, em emitter, phase Phase) (*Violation, PhaseStats, Verdict, error) {
	prod := newProduct(ts, buchi, OrderLeq)
	prod.ctx = ctx
	start := time.Now()
	em.phaseStart(phase)
	tree, err := vass.Explore(prod, vass.Options{
		Prune:          true,
		Accelerate:     true,
		UseIndex:       !opts.NoIndexes,
		MaxStates:      maxStates,
		MaxMemBytes:    opts.MaxMemBytes,
		MemExtra:       internerExtra(ts),
		Ctx:            ctx,
		OnProgress:     em.searchProgress(phase),
		ProgressStride: em.stride,
	})
	stats := treeStats(tree, start)
	em.phaseEnd(phase, stats)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return nil, stats, VerdictUnknown, err
		}
		return nil, stats, stopVerdict(err), nil
	}
	return cycleViolation(ts, prod, tree.Active(), !opts.NoIndexes), stats, VerdictUnknown, nil
}

// rrAggressive: the Appendix C second phase with ⪯+ pruning, no
// acceleration, pruning against the first phase's ω states.
func rrAggressive(ctx context.Context, ts *symbolic.TaskSystem, buchi *ltl.Buchi, phase1 *vass.Tree, opts Options, maxStates int, em emitter) (*Violation, PhaseStats, Verdict, error) {
	prod := newProduct(ts, buchi, OrderPrecedesStrict)
	prod.ctx = ctx
	var omegaDoms []vass.State
	for _, n := range phase1.Active() {
		if n.S.(*PState).PSI.HasOmega() {
			omegaDoms = append(omegaDoms, n.S)
		}
	}
	start := time.Now()
	em.phaseStart(PhaseRR)
	tree, err := vass.Explore(prod, vass.Options{
		Prune:           true,
		Accelerate:      false,
		UseIndex:        !opts.NoIndexes,
		MaxStates:       maxStates,
		MaxMemBytes:     opts.MaxMemBytes,
		MemExtra:        internerExtra(ts),
		Ctx:             ctx,
		OnProgress:      em.searchProgress(PhaseRR),
		ProgressStride:  em.stride,
		ExtraDominators: omegaDoms,
	})
	stats := treeStats(tree, start)
	em.phaseEnd(PhaseRR, stats)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return nil, stats, VerdictUnknown, err
		}
		return nil, stats, stopVerdict(err), nil
	}
	return cycleViolation(ts, prod, tree.Active(), !opts.NoIndexes), stats, VerdictUnknown, nil
}

// stopVerdict maps a non-cancellation Explore error to the terminal
// verdict it forces: memory budget → VerdictBudget, state budget or
// deadline → VerdictTimedOut.
func stopVerdict(err error) Verdict {
	if errors.Is(err, vass.ErrMemBudget) {
		return VerdictBudget
	}
	return VerdictTimedOut
}

// cycleViolation extracts an accepting state on a cycle of the
// coverability graph, if any, and builds the counterexample lasso. Without
// useIndex (Options.NoIndexes) the graph is built by an all-pairs scan.
func cycleViolation(ts *symbolic.TaskSystem, prod *product, active []*vass.Node, useIndex bool) *Violation {
	g := vass.NewCoverGraph(prod, active, useIndex)
	cyc := g.CycleNodes()
	// Scan in tree order, not map order: the extracted lasso must be
	// the same on every run, and ranging over the pointer-keyed set
	// rotates it randomly.
	for _, n := range active {
		if !cyc[n] || !prod.Accepting(n.S.(*PState)) {
			continue
		}
		v := &Violation{Kind: "cycle", Prefix: tracePath(ts, n)}
		for _, label := range g.CycleWitness(n) {
			if l, ok := label.(Label); ok {
				v.Cycle = append(v.Cycle, Step{Service: l.Ref})
			}
		}
		return v
	}
	return nil
}
