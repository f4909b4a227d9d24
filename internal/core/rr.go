package core

import (
	"context"

	"verifas/internal/vass"
)

// repeatedReachability implements the infinite-run module (paper Section
// 3.8) on prod, the run's product under the coverage order ≤: it
// decides whether an accepting Büchi state is repeatedly reachable, i.e.
// lies on a cycle of the coverability graph.
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
func repeatedReachability(ctx context.Context, prod *product, opts Options, em emitter) (*Violation, PhaseStats, Verdict, error) {
	tree, stats, stop, err := search(ctx, prod, PhaseRR, opts, em, nil, nil)
	if err != nil || stop != VerdictUnknown {
		return nil, stats, stop, err
	}
	return cycleViolation(prod, tree), stats, VerdictUnknown, nil
}

// cycleViolation extracts an accepting state on a cycle of the RR tree's
// coverability graph, if any, and builds the counterexample lasso. A tree
// searched without indexes (Options.NoIndexes) gets its graph from an
// all-pairs scan. The graph reads each active node's successor list from
// the run's memo, where the RR search stored it.
func cycleViolation(prod *product, tree *vass.Tree) *Violation {
	g := tree.CoverGraph(prod)
	cyc := g.CycleNodes()
	// Scan in tree order, not map order: the extracted lasso must be
	// the same on every run, and ranging over the pointer-keyed set
	// rotates it randomly.
	for _, n := range tree.Nodes {
		if !cyc[n] || !prod.Accepting(n.S.(*PState)) {
			continue
		}
		v := &Violation{Kind: "cycle", Prefix: tracePath(prod.ts, n)}
		for _, label := range g.CycleWitness(n) {
			if l, ok := label.(Label); ok {
				v.Cycle = append(v.Cycle, Step{Service: l.Ref})
			}
		}
		return v
	}
	return nil
}
