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
// 3.8): it decides whether an accepting Büchi state is repeatedly
// reachable, i.e. lies on a cycle of the coverability graph.
//
// A ≤-pruned Karp-Miller search with acceleration yields a coverability
// set, and an accepting state is repeatedly reachable iff it lies on a
// cycle of the coverability graph (paper Section 3.3, Blockelet-Schmitz).
// This is sound and complete. The paper's Appendix C ⪯+ search is not
// used: pruned against the first phase's ω states it misses violations,
// and unpruned it does not finish (DESIGN.md §5).
//
// The search streams Progress events to the emitter's observer under
// PhaseRR. The stop Verdict is VerdictUnknown when the module ran to
// completion, and VerdictTimedOut or VerdictBudget when a budget expired
// mid-search — in that case the caller must finish with that verdict and
// the stats are partial.
func repeatedReachability(ctx context.Context, ts *symbolic.TaskSystem, buchi *ltl.Buchi, opts Options, maxStates int, em emitter) (*Violation, PhaseStats, Verdict, error) {
	prod := newProduct(ts, buchi, OrderLeq)
	prod.ctx = ctx
	start := time.Now()
	em.phaseStart(PhaseRR)
	tree, err := vass.Explore(prod, vass.Options{
		Prune:          true,
		Accelerate:     true,
		UseIndex:       !opts.NoIndexes,
		MaxStates:      maxStates,
		MaxMemBytes:    opts.MaxMemBytes,
		MemExtra:       internerExtra(ts),
		Ctx:            ctx,
		OnProgress:     em.searchProgress(PhaseRR),
		ProgressStride: em.stride,
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
