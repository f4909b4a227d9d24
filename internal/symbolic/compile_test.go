package symbolic

import (
	"testing"

	"verifas/internal/fol"
	"verifas/internal/has"
)

// orderMini builds a small ProcessOrders-style root task with an ORDERS
// artifact relation, Store/Retrieve/Init services and one child.
func orderMini(t *testing.T) *has.System {
	t.Helper()
	schema := has.NewSchema(
		has.RelDef("CREDIT", has.NK("status")),
		has.RelDef("CUSTOMERS", has.NK("name"), has.FK("record", "CREDIT")),
	)
	root := &has.Task{
		Name: "Main",
		Vars: []has.Variable{
			has.IDV("cust", "CUSTOMERS"),
			has.V("status"),
		},
		Relations: []*has.ArtifactRelation{{
			Name:  "ORDERS",
			Attrs: []has.Variable{has.IDV("o_cust", "CUSTOMERS"), has.V("o_status")},
		}},
		Services: []*has.Service{
			{
				Name: "Store",
				Pre:  fol.MustParse(`cust != null && status != "Failed"`),
				Post: fol.MustParse(`cust == null && status == "Init"`),
				Update: &has.Update{
					Insert: true, Relation: "ORDERS",
					Vars: []string{"cust", "status"},
				},
			},
			{
				Name: "Retrieve",
				Pre:  fol.MustParse(`cust == null`),
				Post: fol.MustParse(`true`),
				Update: &has.Update{
					Insert: false, Relation: "ORDERS",
					Vars: []string{"cust", "status"},
				},
			},
			{
				Name:      "MarkGood",
				Pre:       fol.MustParse(`cust != null`),
				Post:      fol.MustParse(`exists n : val, r : CREDIT (CUSTOMERS(cust, n, r) && CREDIT(r, "Good") && status == "Passed")`),
				Propagate: []string{"cust"},
			},
		},
		Children: []*has.Task{{
			Name:       "Check",
			Vars:       []has.Variable{has.IDV("c_cust", "CUSTOMERS"), has.V("verdict")},
			In:         []string{"c_cust"},
			Out:        []string{"verdict"},
			InMap:      map[string]string{"c_cust": "cust"},
			OutMap:     map[string]string{"verdict": "status"},
			OpeningPre: fol.MustParse(`cust != null && status == "Init"`),
			ClosingPre: fol.MustParse(`verdict != null`),
			Services: []*has.Service{{
				Name:      "Decide",
				Pre:       fol.MustParse(`true`),
				Post:      fol.MustParse(`verdict == "Done"`),
				Propagate: []string{"c_cust"},
			}},
		}},
	}
	sys := &has.System{
		Name: "mini", Schema: schema, Root: root,
		GlobalPre: fol.MustParse(`cust == null && status == null`),
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func compileMini(t *testing.T, opts Options) *TaskSystem {
	t.Helper()
	sys := orderMini(t)
	ts, err := CompileTask(sys, sys.Root, PropertyBinding{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestInitialState(t *testing.T) {
	ts := compileMini(t, Options{})
	init := ts.Initial()
	if len(init) != 1 {
		t.Fatalf("got %d initial PSIs, want 1", len(init))
	}
	p := init[0]
	cust, _ := ts.U.Root("cust")
	status, _ := ts.U.Root("status")
	if !p.Tau.Eq(cust, ts.U.NullExpr) || !p.Tau.Eq(status, ts.U.NullExpr) {
		t.Error("global pre-condition (all null) not applied")
	}
	if p.Mask != 0 || len(p.Bags) != 1 || len(p.Bags[0].Items) != 0 {
		t.Error("initial PSI should have empty relations and inactive children")
	}
}

func findSuccs(succs []Succ, name string) []Succ {
	var out []Succ
	for _, s := range succs {
		if s.Ref.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func TestSuccStoreRetrieveRoundTrip(t *testing.T) {
	ts := compileMini(t, Options{})
	u := ts.U
	cust, _ := u.Root("cust")
	status, _ := u.Root("status")
	initC, _ := u.Const("Init")

	// Build a state where cust != null and status = "Passed".
	tau := NewPisotype(u, nil)
	tau.AddNeq(cust, u.NullExpr)
	passed, _ := u.Const("Passed")
	tau.AddEq(status, passed)
	p := NewPSI(tau, []Bag{{}}, 0)

	succs := ts.Successors(p)
	stores := findSuccs(succs, "Store")
	if len(stores) == 0 {
		t.Fatal("Store should be applicable")
	}
	st := stores[0].Next
	if got := st.Bags[0].Total(); got != 1 {
		t.Fatalf("after Store, ORDERS count = %d, want 1", got)
	}
	// Post-condition: cust = null, status = "Init".
	if !st.Tau.Eq(cust, u.NullExpr) || !st.Tau.Eq(status, initC) {
		t.Errorf("post-condition not applied: %s", st.Tau)
	}
	// The stored type remembers o_status = "Passed" and o_cust != null.
	stored := st.Bags[0].Items[0].Type
	oc, _ := u.Root(slotName("ORDERS", 0))
	os, _ := u.Root(slotName("ORDERS", 1))
	if !stored.Eq(os, passed) {
		t.Errorf("stored type lost o_status=Passed: %s", stored)
	}
	if !stored.Neq(oc, u.NullExpr) {
		t.Errorf("stored type lost o_cust != null: %s", stored)
	}

	// Retrieve is applicable in the new state (cust = null).
	succs2 := ts.Successors(st)
	rets := findSuccs(succs2, "Retrieve")
	if len(rets) == 0 {
		t.Fatal("Retrieve should be applicable")
	}
	rt := rets[0].Next
	if rt.Bags[0].Total() != 0 {
		t.Error("Retrieve should decrement the counter")
	}
	// Retrieved values flow back into cust/status.
	if !rt.Tau.Eq(status, passed) {
		t.Errorf("retrieved o_status=Passed not restored: %s", rt.Tau)
	}
	if !rt.Tau.Neq(cust, u.NullExpr) {
		t.Errorf("retrieved o_cust != null not restored: %s", rt.Tau)
	}
}

func TestSuccRetrieveNotApplicableOnEmpty(t *testing.T) {
	ts := compileMini(t, Options{})
	init := ts.Initial()[0]
	succs := ts.Successors(init)
	if len(findSuccs(succs, "Retrieve")) != 0 {
		t.Error("Retrieve must not fire on an empty artifact relation")
	}
	// Store must not fire either (cust = null fails the pre-condition).
	if len(findSuccs(succs, "Store")) != 0 {
		t.Error("Store must not fire when cust = null")
	}
}

func TestSuccExistentialWitnessProjected(t *testing.T) {
	ts := compileMini(t, Options{})
	u := ts.U
	cust, _ := u.Root("cust")
	tau := NewPisotype(u, nil)
	tau.AddNeq(cust, u.NullExpr)
	p := NewPSI(tau, []Bag{{}}, 0)
	succs := ts.Successors(p)
	goods := findSuccs(succs, "MarkGood")
	if len(goods) == 0 {
		t.Fatal("MarkGood should be applicable")
	}
	next := goods[0].Next.Tau
	// The witness constraint surfaces as cust.record.status = "Good".
	rec := u.Nav(cust, 1)      // cust.record
	recStatus := u.Nav(rec, 0) // cust.record.status
	good, _ := u.Const("Good")
	if !next.Eq(recStatus, good) {
		t.Errorf("navigation constraint lost: %s", next)
	}
	status, _ := u.Root("status")
	passed, _ := u.Const("Passed")
	if !next.Eq(status, passed) {
		t.Errorf("post-condition constraint lost: %s", next)
	}
	// No witness roots linger in the canonical edges.
	for _, e := range next.Edges() {
		a := ExprID(e >> 33)
		b := ExprID((e >> 1) & ((1 << 32) - 1))
		for _, id := range []ExprID{a, b} {
			if u.RootClassOf(u.RootOf(id)) == WitnessRoot {
				t.Fatalf("witness expression %s survived projection", u.ExprString(id))
			}
		}
	}
}

func TestSuccChildOpenClose(t *testing.T) {
	ts := compileMini(t, Options{})
	u := ts.U
	cust, _ := u.Root("cust")
	status, _ := u.Root("status")
	initC, _ := u.Const("Init")
	tau := NewPisotype(u, nil)
	tau.AddNeq(cust, u.NullExpr)
	tau.AddEq(status, initC)
	p := NewPSI(tau, []Bag{{}}, 0)

	succs := ts.Successors(p)
	opens := findSuccs(succs, "Check")
	if len(opens) != 1 {
		t.Fatalf("expected 1 Check opening, got %d", len(opens))
	}
	op := opens[0]
	if op.Ref.Kind != SvcOpenChild || op.Next.Mask != 1 {
		t.Error("child open should set the mask bit")
	}

	// While the child is active, internal services and self-close are
	// disabled; the only transitions are the child close.
	succs2 := ts.Successors(op.Next)
	for _, s := range succs2 {
		if s.Ref.Kind == SvcInternal {
			t.Errorf("internal service %s fired while child active", s.Ref.Name)
		}
	}
	closes := findSuccs(succs2, "Check")
	if len(closes) != 1 || closes[0].Ref.Kind != SvcCloseChild {
		t.Fatalf("expected child close, got %v", succs2)
	}
	cl := closes[0].Next
	if cl.Mask != 0 {
		t.Error("child close should clear the mask bit")
	}
	// The returned variable (status) is havocked; cust is untouched.
	if cl.Tau.Eq(status, initC) {
		t.Error("returned variable still constrained after havoc")
	}
	if !cl.Tau.Neq(cust, u.NullExpr) {
		t.Error("non-returned variable lost its constraint")
	}
}

func TestSuccRootNeverCloses(t *testing.T) {
	ts := compileMini(t, Options{})
	init := ts.Initial()[0]
	for _, s := range ts.Successors(init) {
		if s.Ref.Kind == SvcCloseSelf {
			t.Error("root task must not close")
		}
	}
}

func TestNoSetIgnoresRelations(t *testing.T) {
	ts := compileMini(t, Options{IgnoreSets: true})
	u := ts.U
	cust, _ := u.Root("cust")
	tau := NewPisotype(u, nil)
	tau.AddNeq(cust, u.NullExpr)
	p := NewPSI(tau, []Bag{{}}, 0)
	stores := findSuccs(ts.Successors(p), "Store")
	if len(stores) == 0 {
		t.Fatal("Store should fire in NoSet mode")
	}
	if stores[0].Next.Bags[0].Total() != 0 {
		t.Error("NoSet mode must not touch the bags")
	}
	// Retrieve fires even with empty relation in NoSet mode (havoc).
	tau2 := NewPisotype(u, nil)
	tau2.AddEq(cust, u.NullExpr)
	p2 := NewPSI(tau2, []Bag{{}}, 0)
	if len(findSuccs(ts.Successors(p2), "Retrieve")) == 0 {
		t.Error("Retrieve should fire in NoSet mode regardless of contents")
	}
}

func TestServiceAtoms(t *testing.T) {
	ts := compileMini(t, Options{})
	atoms := ts.Task.ServiceAtoms()
	for _, want := range []string{"open:Main", "close:Main", "call:Store", "call:Retrieve", "call:MarkGood", "open:Check", "close:Check"} {
		if !atoms[want] {
			t.Errorf("missing service atom %q", want)
		}
	}
}

func TestNonRootInitial(t *testing.T) {
	sys := orderMini(t)
	child, _ := sys.Task("Check")
	ts, err := CompileTask(sys, child, PropertyBinding{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	init := ts.Initial()
	if len(init) != 1 {
		t.Fatalf("got %d initial PSIs", len(init))
	}
	u := ts.U
	ccust, _ := u.Root("c_cust")
	verdict, _ := u.Root("verdict")
	// Input variable unconstrained; non-input null.
	if init[0].Tau.Eq(ccust, u.NullExpr) || init[0].Tau.Neq(ccust, u.NullExpr) {
		t.Error("input variable should be unconstrained")
	}
	if !init[0].Tau.Eq(verdict, u.NullExpr) {
		t.Error("non-input variable should start null")
	}
	// The child task can close after Decide.
	succs := ts.Successors(init[0])
	if len(findSuccs(succs, "Check")) != 0 {
		t.Error("closing requires verdict != null, not satisfiable at init")
	}
	decides := findSuccs(succs, "Decide")
	if len(decides) == 0 {
		t.Fatal("Decide should fire")
	}
	succs2 := ts.Successors(decides[0].Next)
	var foundClose bool
	for _, s := range succs2 {
		if s.Ref.Kind == SvcCloseSelf {
			foundClose = true
			if !s.Closing {
				t.Error("self close must be marked Closing")
			}
		}
	}
	if !foundClose {
		t.Error("Check should be able to close after Decide")
	}
}

func TestPropertyConditionsCompile(t *testing.T) {
	sys := orderMini(t)
	prop := PropertyBinding{
		Globals: []has.Variable{has.IDV("g", "CUSTOMERS")},
		Conds: map[string]fol.Formula{
			"p": fol.MustParse(`cust == g && status == "Init"`),
		},
	}
	ts, err := CompileTask(sys, sys.Root, prop, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ts.PropPos["p"] == nil || ts.PropNeg["p"] == nil {
		t.Fatal("property conditions not compiled")
	}
	u := ts.U
	tau := NewPisotype(u, nil)
	pos := ts.ExtendInterned(ts.PropPos["p"], tau)
	if len(pos) != 1 {
		t.Fatalf("positive extension count = %d, want 1", len(pos))
	}
	neg := ts.ExtendInterned(ts.PropNeg["p"], tau)
	if len(neg) != 2 {
		t.Fatalf("negative extension count = %d, want 2 (two disjuncts)", len(neg))
	}
	// Globals survive state projection.
	g, _ := u.Root("g")
	if u.RootClassOf(g) != GlobalRoot {
		t.Error("global variable class wrong")
	}
	// Quantified property conditions are rejected.
	prop.Conds["q"] = fol.MustParse(`exists w : val (w == status)`)
	if _, err := CompileTask(sys, sys.Root, prop, Options{}); err == nil {
		t.Error("expected error for quantified property condition")
	}
}
