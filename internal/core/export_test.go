package core

import (
	"context"
	"testing"

	"verifas/internal/has"
)

// CoverGraphLookups runs prop's repeated-reachability search with a fresh
// successor memo, then builds the RR tree's coverability graph. It
// returns the graph's node count and the memo lookups and hits of the
// graph build alone; ok is false when the search stopped on its budget.
func CoverGraphLookups(tb testing.TB, sys *has.System, prop *Property, maxStates int) (nodes, calls, hits int, ok bool) {
	tb.Helper()
	ts, buchi := compileReach(tb, sys, prop, false)
	prod := newProduct(ts, buchi, OrderLeq, newSuccMemo())
	opts := Options{Budget: Budget{MaxStates: maxStates}}
	tree, _, stop, err := search(context.Background(), prod, PhaseRR, opts, newEmitter(opts), nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if stop != VerdictUnknown {
		return 0, 0, 0, false
	}
	calls0, hits0 := prod.memo.calls, prod.memo.hits
	tree.CoverGraph(prod)
	return len(tree.Active()), prod.memo.calls - calls0, prod.memo.hits - hits0, true
}
