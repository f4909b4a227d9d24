package symbolic

import (
	"strings"
	"testing"

	"verifas/internal/fol"
	"verifas/internal/has"
)

func TestServiceRefAtomNames(t *testing.T) {
	cases := []struct {
		ref  ServiceRef
		want string
	}{
		{ServiceRef{Kind: SvcInternal, Name: "Store"}, "call:Store"},
		{ServiceRef{Kind: SvcOpenSelf, Name: "Main"}, "open:Main"},
		{ServiceRef{Kind: SvcOpenChild, Name: "Check"}, "open:Check"},
		{ServiceRef{Kind: SvcCloseSelf, Name: "Main"}, "close:Main"},
		{ServiceRef{Kind: SvcCloseChild, Name: "Check"}, "close:Check"},
	}
	for _, c := range cases {
		if got := c.ref.AtomName(); got != c.want {
			t.Errorf("AtomName(%v) = %q, want %q", c.ref, got, c.want)
		}
		if c.ref.String() != c.want {
			t.Errorf("String mismatch for %v", c.ref)
		}
	}
}

func TestTaskSystemAccessors(t *testing.T) {
	ts := compileMini(t, Options{})
	if ts.OpenRef().AtomName() != "open:Main" {
		t.Error("OpenRef wrong")
	}
	if ts.NumChildren() != 1 || ts.ChildName(0) != "Check" {
		t.Error("child accessors wrong")
	}
	conds := ts.AllConditions()
	// 3 services × 2 + 1 child opening + global pre = 8 (root has no
	// closing condition).
	if len(conds) != 8 {
		t.Errorf("AllConditions = %d, want 8", len(conds))
	}
	for _, c := range conds {
		if c == nil {
			t.Fatal("nil compiled condition")
		}
		_ = c.Source()
	}
	ins, rets := ts.UpdateChannels()
	if len(ins) != 2 || len(rets) != 2 {
		t.Errorf("UpdateChannels = %d inserts, %d retrieves; want 2 each", len(ins), len(rets))
	}
	nulls := ts.InitialNullRoots()
	if len(nulls) != 2 {
		t.Errorf("InitialNullRoots = %d, want 2 (root task: all vars)", len(nulls))
	}
	// SetFilter threads into fresh pisotypes.
	ts.SetFilter(nil)
	if ts.Opts.Filter != nil {
		t.Error("SetFilter(nil) should clear")
	}
}

func TestPisotypeMiscMethods(t *testing.T) {
	u := testUniverse(t)
	x, y := root(t, u, "x"), root(t, u, "y")
	tau := NewPisotype(u, nil)
	tau.AddEq(x, y)
	tau.AddNeq(x, root(t, u, "z"))
	if tau.Universe() != u {
		t.Error("Universe accessor")
	}
	if tau.NumConstraints() == 0 {
		t.Error("NumConstraints should count canonical edges")
	}
	s := tau.String()
	if !strings.Contains(s, "x=") && !strings.Contains(s, "=x") {
		t.Errorf("String rendering missing class: %s", s)
	}
	if !strings.Contains(s, "!=") {
		t.Errorf("String rendering missing neq: %s", s)
	}

	// MergeFrom: copy constraints into an independent type.
	dst := NewPisotype(u, nil)
	if !dst.MergeFrom(tau) {
		t.Fatal("MergeFrom failed")
	}
	if !dst.Eq(x, y) || !dst.Neq(x, root(t, u, "z")) {
		t.Error("MergeFrom lost constraints")
	}
	// Conflicting merge fails.
	bad := NewPisotype(u, nil)
	bad.AddEq(x, root(t, u, "z"))
	if bad.MergeFrom(tau) {
		t.Error("conflicting MergeFrom should report inconsistency")
	}
}

// TestPisotypeStringDeterministic checks that the rendering of ≠ pairs
// does not depend on map iteration order: witnesses print it, and the
// daemon returns and persists them.
func TestPisotypeStringDeterministic(t *testing.T) {
	u := testUniverse(t)
	x, y, z := root(t, u, "x"), root(t, u, "y"), root(t, u, "z")
	uu, v := root(t, u, "u"), root(t, u, "v")
	c1 := konst(t, u, "c1")
	tau := NewPisotype(u, nil)
	for _, p := range [][2]ExprID{{x, y}, {z, x}, {y, z}, {uu, c1}, {c1, v}, {v, uu}} {
		if !tau.AddNeq(p[0], p[1]) {
			t.Fatalf("AddNeq(%v, %v) inconsistent", p[0], p[1])
		}
	}
	want := tau.String()
	for i := 0; i < 50; i++ {
		if got := tau.String(); got != want {
			t.Fatalf("String() = %s, earlier %s", got, want)
		}
		if got := tau.Clone().String(); got != want {
			t.Fatalf("Clone().String() = %s, original %s", got, want)
		}
	}
}

// skipEqFilter skips exactly the =-edge between a and b.
type skipEqFilter struct{ a, b ExprID }

func (f skipEqFilter) SkipEq(a, b ExprID) bool {
	return (a == f.a && b == f.b) || (a == f.b && b == f.a)
}

func (skipEqFilter) SkipNeq(a, b ExprID) bool { return false }

// TestAddEqSortClashFilteredNull equates classes of different sorts, which
// forces both to null, with a filter that skips the first side's equality
// with null: AddEq must terminate and still record the other side's.
func TestAddEqSortClashFilteredNull(t *testing.T) {
	u := testUniverse(t)
	x, uu := root(t, u, "x"), root(t, u, "u") // R.ID and val
	tau := NewPisotype(u, skipEqFilter{x, u.NullExpr})
	if !tau.AddEq(x, uu) {
		t.Fatal("AddEq reported an inconsistency")
	}
	if !tau.Eq(uu, u.NullExpr) {
		t.Errorf("u = null not recorded: %s", tau)
	}
	if tau.Eq(x, u.NullExpr) {
		t.Errorf("the filtered x = null was recorded: %s", tau)
	}
}

func TestPSIString(t *testing.T) {
	u := slotUniverse(t)
	p := root(t, u, "p")
	k1 := konst(t, u, "k1")
	st := NewPisotype(u, nil)
	st.AddEq(p, k1)
	var b Bag
	b = b.WithDelta(st, 2)
	b = b.WithCount(0, Omega)
	psi := NewPSI(NewPisotype(u, nil), []Bag{b}, 1)
	s := psi.String()
	if !strings.Contains(s, "ω") || !strings.Contains(s, "mask=1") {
		t.Errorf("PSI rendering: %s", s)
	}
}

func TestAddRootDuplicate(t *testing.T) {
	schema := has.NewSchema(has.RelDef("R", has.NK("A")))
	if err := schema.Validate(); err != nil {
		t.Fatal(err)
	}
	b := NewUniverseBuilder(schema)
	b.AddRoot("x", has.ValType(), StateRoot)
	b.AddRoot("x", has.ValType(), StateRoot) // same type/class: no-op
	u := b.Build()
	if _, ok := u.Root("x"); !ok {
		t.Fatal("root missing")
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting re-registration should panic")
		}
	}()
	b2 := NewUniverseBuilder(schema)
	b2.AddRoot("x", has.ValType(), StateRoot)
	b2.AddRoot("x", has.IDType("R"), StateRoot)
}

func TestFlattenRelNullCases(t *testing.T) {
	// Atoms with a literal null key are constant-false (or constant-true
	// when negated).
	schema := has.NewSchema(has.RelDef("R", has.NK("A")))
	root := &has.Task{
		Name: "T",
		Vars: []has.Variable{has.IDV("x", "R"), has.V("v")},
		Services: []*has.Service{
			{
				Name: "S1",
				Pre:  fol.Rel{Name: "R", Args: []fol.Term{fol.Null(), fol.Var("v")}},
				Post: fol.MustParse(`true`),
			},
			{
				Name: "S2",
				Pre:  fol.MkNot(fol.Rel{Name: "R", Args: []fol.Term{fol.Null(), fol.Var("v")}}),
				Post: fol.MustParse(`v == null`),
			},
			{
				Name: "S3",
				// Negated atom with a null attribute argument: vacuously
				// true disjunct x.A != null.
				Pre:  fol.MkNot(fol.Rel{Name: "R", Args: []fol.Term{fol.Var("x"), fol.Null()}}),
				Post: fol.MustParse(`true`),
			},
		},
	}
	sys := &has.System{Name: "t", Schema: schema, Root: root}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	ts, err := CompileTask(sys, sys.Root, PropertyBinding{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tau := NewPisotype(ts.U, nil)
	psi := NewPSI(tau, nil, 0)
	var names []string
	for _, s := range ts.Successors(psi) {
		names = append(names, s.Ref.Name)
	}
	joined := strings.Join(names, ",")
	if strings.Contains(joined, "S1") {
		t.Error("R(null, v) must be unsatisfiable")
	}
	if !strings.Contains(joined, "S2") {
		t.Error("!R(null, v) must be trivially satisfiable")
	}
	if !strings.Contains(joined, "S3") {
		t.Error("!R(x, null) must be satisfiable (atom is false)")
	}
}

func TestConditionSourceAndTrueFalse(t *testing.T) {
	ts := compileMini(t, Options{})
	// Extend with an unsatisfiable condition built from a False source.
	cc := &CompiledCond{Conjuncts: nil}
	if got := ts.ExtendInterned(cc, NewPisotype(ts.U, nil)); got != nil {
		t.Error("false condition must have no extensions")
	}
	ccTrue := &CompiledCond{Conjuncts: [][]Lit{{}}}
	if got := ts.ExtendInterned(ccTrue, NewPisotype(ts.U, nil)); len(got) != 1 {
		t.Error("true condition must have exactly one extension")
	}
}
