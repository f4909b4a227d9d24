package core

import (
	"context"
	"testing"

	"verifas/internal/symbolic"
	"verifas/internal/workflows"
)

// pollLimit is a context that reports itself canceled from its n-th Err
// poll on, cutting product.Successors partway through a list.
type pollLimit struct {
	context.Context
	n int
}

func (c *pollLimit) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// memoFixture compiles OrderFulfillment's ship-guarded property into a
// phase 1 product with a fresh memo.
func memoFixture(t *testing.T, noInterning bool) (*product, *PState) {
	t.Helper()
	ts, buchi := compileReach(t, workflows.OrderFulfillment(false), memBenchProp(), noInterning)
	prod := newProduct(ts, buchi, OrderPrecedes, newSuccMemo())
	prod.ctx = context.Background()
	return prod, prod.Initial()[0].(*PState)
}

// TestMemoSkipsCutList: a list cut short by the context is returned but
// not stored, and a later call with a live context computes and stores
// the full list.
func TestMemoSkipsCutList(t *testing.T) {
	prod, init := memoFixture(t, false)
	// Walk, outside the memo, to the first state with two symbolic
	// successors.
	for len(prod.ts.Successors(init.PSI)) < 2 {
		next, _ := prod.expand(init)
		if len(next) == 0 {
			t.Fatal("no state with two symbolic successors on the first path")
		}
		init = next[0].S.(*PState)
	}
	prod.ctx = &pollLimit{Context: context.Background(), n: 1}
	cut := prod.Successors(init)
	if _, ok := prod.memo.lookup(memoKey(init), init); ok {
		t.Fatal("the cut list was stored")
	}
	if prod.memo.bytes != 0 {
		t.Errorf("memo charges %d bytes for no stored list", prod.memo.bytes)
	}
	prod.ctx = context.Background()
	full := prod.Successors(init)
	if len(cut) >= len(full) {
		t.Fatalf("cut list has %d successors, full list %d: nothing was cut", len(cut), len(full))
	}
	if prod.memo.hits != 0 {
		t.Errorf("%d hits: the live call was served the cut list", prod.memo.hits)
	}
	stored, ok := prod.memo.lookup(memoKey(init), init)
	if !ok || len(stored) != len(full) || &stored[0] != &full[0] {
		t.Fatal("the full list was not stored")
	}
	if want, _ := prod.expand(init); len(full) != len(want) {
		t.Errorf("full list after a cut has %d successors, an uncut expansion %d", len(full), len(want))
	}
}

// TestMemoSharesEqualStates: structurally equal states get the same
// slice and the same successor states back, also through the run's
// other product.
func TestMemoSharesEqualStates(t *testing.T) {
	prod, a := memoFixture(t, true)
	// Without interning a second Initial call builds a fresh, equal type.
	b := prod.Initial()[0].(*PState)
	if a.PSI.Tau == b.PSI.Tau || !a.PSI.Equal(b.PSI) {
		t.Fatal("fixture: want distinct but equal types")
	}
	la := prod.Successors(a)
	rr := newProduct(prod.ts, prod.buchi, OrderLeq, prod.memo)
	lb := rr.Successors(b)
	if len(la) == 0 || len(la) != len(lb) || &la[0] != &lb[0] {
		t.Fatalf("equal states got different lists (%d and %d successors)", len(la), len(lb))
	}
	for i := range la {
		if la[i].S != lb[i].S {
			t.Fatalf("successor %d is a different state", i)
		}
	}
	if prod.memo.calls != 2 || prod.memo.hits != 1 {
		t.Errorf("calls=%d hits=%d, want 2 and 1", prod.memo.calls, prod.memo.hits)
	}
	// A state that differs only in its closed flag is another key.
	c := &PState{PSI: symbolic.NewPSI(a.PSI.Tau, a.PSI.Bags, a.PSI.Mask), Node: a.Node, Closed: true}
	if got := prod.Successors(c); len(got) != 0 || prod.memo.hits != 1 {
		t.Errorf("closed copy: %d successors, %d hits; want 0 and 1", len(got), prod.memo.hits)
	}
}

// TestMemBudgetChargesMemo: the memo's bytes count against MaxMemBytes.
// The tree and the intern table only grow, so a budget equal to their
// final sum never trips on them alone; with the memo charged it does.
func TestMemBudgetChargesMemo(t *testing.T) {
	run := func(budget int64) (*product, int64, Verdict) {
		ts, buchi := compileReach(t, workflows.OrderFulfillment(false), memBenchProp(), false)
		prod := newProduct(ts, buchi, OrderPrecedes, newSuccMemo())
		opts := Options{Budget: Budget{MaxStates: DefaultMaxStates, MaxMemBytes: budget}}
		tree, _, stop, err := search(context.Background(), prod, PhaseReach, opts, newEmitter(opts), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return prod, tree.MemBytes + ts.Interner().Bytes(), stop
	}
	prod, withoutMemo, stop := run(0)
	if stop != VerdictUnknown {
		t.Fatalf("unbudgeted search stopped: %v", stop)
	}
	if prod.memo.bytes <= 0 {
		t.Fatal("the memo charged no bytes")
	}
	t.Logf("tree + intern table %d B, memo %d B", withoutMemo, prod.memo.bytes)
	if _, _, stop := run(withoutMemo); stop != VerdictBudget {
		t.Errorf("budget of %d B: stop %v, want %v from the memo's bytes", withoutMemo, stop, VerdictBudget)
	}
}
