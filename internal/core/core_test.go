package core

import (
	"context"
	"testing"
	"time"

	"verifas/internal/fol"
	"verifas/internal/has"
	"verifas/internal/ltl"
	"verifas/internal/workflows"
)

func mustVerify(t *testing.T, sys *has.System, prop *Property, opts Options) *Result {
	t.Helper()
	if err := sys.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	opts.MaxStates = 300_000
	opts.Timeout = 60 * time.Second
	res, err := Verify(context.Background(), sys, prop, opts)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.Stats.TimedOut {
		t.Fatalf("verification timed out after %d states", res.Stats.StatesExplored())
	}
	return res
}

func TestStoreOrderPostcondition(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	prop := &Property{
		Name: "store-resets",
		Task: "ProcessOrders",
		Conds: map[string]fol.Formula{
			"reset": fol.MustParse(`cust_id == null && item_id == null && status == "Init"`),
		},
		Formula: ltl.MustParse(`G (call(StoreOrder) -> reset)`),
	}
	res := mustVerify(t, sys, prop, Options{})
	if !res.Holds() {
		t.Errorf("property should hold; violation: %+v", res.Violation)
	}
}

func TestShipRequiresStockCorrect(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	prop := &Property{
		Name: "ship-guarded",
		Task: "ProcessOrders",
		Conds: map[string]fol.Formula{
			"stocked": fol.MustParse(`instock == "Yes"`),
		},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	}
	res := mustVerify(t, sys, prop, Options{})
	if !res.Holds() {
		t.Errorf("correct variant should satisfy the guard property; violation: %+v", res.Violation)
	}
}

func TestShipRequiresStockBuggy(t *testing.T) {
	sys := workflows.OrderFulfillment(true)
	prop := &Property{
		Name: "ship-guarded",
		Task: "ProcessOrders",
		Conds: map[string]fol.Formula{
			"stocked": fol.MustParse(`instock == "Yes"`),
		},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	}
	res := mustVerify(t, sys, prop, Options{})
	if res.Holds() {
		t.Error("buggy variant should violate the guard property")
	}
	if res.Violation == nil || len(res.Violation.Prefix) == 0 {
		t.Error("violation should carry a counterexample trace")
	}
}

// Property (†) of the paper on the buggy variant: an out-of-stock item can
// be shipped without restocking.
func TestPaperPropertyBuggy(t *testing.T) {
	sys := workflows.OrderFulfillment(true)
	prop := &Property{
		Name:    "restock-before-ship",
		Task:    "ProcessOrders",
		Globals: []has.Variable{has.IDV("i", "ITEMS")},
		Conds: map[string]fol.Formula{
			"p": fol.MustParse(`item_id == i && instock == "No"`),
			"q": fol.MustParse(`item_id == i`),
			"r": fol.MustParse(`item_id == i`),
		},
		Formula: ltl.MustParse(
			`G ((close(TakeOrder) && p) -> (!(open(ShipItem) && q) U (open(Restock) && r)))`),
	}
	res := mustVerify(t, sys, prop, Options{})
	if res.Holds() {
		t.Error("buggy variant should violate property (†)")
	}
}

func TestLivenessHolds(t *testing.T) {
	// Every infinite local run of the root eventually closes TakeOrder:
	// from the initial state the only path is Initialize → open(TakeOrder)
	// → close(TakeOrder).
	sys := workflows.OrderFulfillment(false)
	prop := &Property{
		Name:    "take-order-happens",
		Task:    "ProcessOrders",
		Formula: ltl.MustParse(`F close(TakeOrder)`),
	}
	res := mustVerify(t, sys, prop, Options{})
	if !res.Holds() {
		t.Errorf("liveness should hold; violation: %+v", res.Violation)
	}
}

func TestLivenessViolated(t *testing.T) {
	// Shipping is not inevitable: runs can loop in TakeOrder forever.
	sys := workflows.OrderFulfillment(false)
	prop := &Property{
		Name:    "shipping-inevitable",
		Task:    "ProcessOrders",
		Formula: ltl.MustParse(`F open(ShipItem)`),
	}
	res := mustVerify(t, sys, prop, Options{})
	if res.Holds() {
		t.Error("shipping is not inevitable; expected an infinite counterexample")
	}
	if res.Violation == nil {
		t.Fatal("missing violation")
	}
	if res.Violation.Kind != "cycle" && res.Violation.Kind != "pumping" {
		t.Errorf("expected an infinite-run violation, got %q", res.Violation.Kind)
	}
}

func TestFiniteViolationOnChildTask(t *testing.T) {
	// Verify the CheckCredit task itself: its local runs end with a
	// non-null verdict, so G(c_status == null) is violated by a finite
	// run.
	sys := workflows.OrderFulfillment(false)
	prop := &Property{
		Name: "never-decides",
		Task: "CheckCredit",
		Conds: map[string]fol.Formula{
			"undecided": fol.MustParse(`c_status == null`),
		},
		Formula: ltl.MustParse(`G undecided`),
	}
	res := mustVerify(t, sys, prop, Options{})
	if res.Holds() {
		t.Error("CheckCredit decides; property must be violated")
	}
}

func TestChildTaskClosingGuard(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	prop := &Property{
		Name: "close-decided",
		Task: "CheckCredit",
		Conds: map[string]fol.Formula{
			"decided": fol.MustParse(`c_status != null`),
		},
		Formula: ltl.MustParse(`G (close(CheckCredit) -> decided)`),
	}
	res := mustVerify(t, sys, prop, Options{})
	if !res.Holds() {
		t.Errorf("closing guard property should hold; violation: %+v", res.Violation)
	}
}

func TestFalseProperty(t *testing.T) {
	// The paper's baseline property False: violated by any run; the Büchi
	// automaton of ¬False = True accepts everything.
	sys := workflows.OrderFulfillment(false)
	prop := &Property{
		Name:    "false",
		Task:    "ProcessOrders",
		Formula: ltl.FalseF{},
	}
	res := mustVerify(t, sys, prop, Options{})
	if res.Holds() {
		t.Error("False must be violated")
	}
}

func TestTrueProperty(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	prop := &Property{
		Name:    "true",
		Task:    "ProcessOrders",
		Formula: ltl.TrueF{},
	}
	res := mustVerify(t, sys, prop, Options{})
	if !res.Holds() {
		t.Error("True must hold")
	}
}

func TestGlobalVariableProperty(t *testing.T) {
	// ∀c: G(call(StoreOrder) && cust_id == c -> X(cust_id != c || c == null)):
	// after StoreOrder the customer is reset to null, so a non-null c
	// cannot persist.
	sys := workflows.OrderFulfillment(false)
	prop := &Property{
		Name:    "store-clears-customer",
		Task:    "ProcessOrders",
		Globals: []has.Variable{has.IDV("c", "CUSTOMERS")},
		Conds: map[string]fol.Formula{
			"isc":  fol.MustParse(`cust_id == c`),
			"isnc": fol.MustParse(`c == null`),
		},
		Formula: ltl.MustParse(`G ((call(StoreOrder) && isc) -> isnc)`),
	}
	res := mustVerify(t, sys, prop, Options{})
	if !res.Holds() {
		t.Errorf("StoreOrder forces cust_id = null, so cust_id == c implies c == null; violation: %+v", res.Violation)
	}
}

func TestOptionsMatrixAgreement(t *testing.T) {
	// All optimization configurations must agree on the verdicts.
	type tc struct {
		name string
		sys  *has.System
		prop *Property
		want bool
	}
	cases := []tc{
		{
			"guard-correct", workflows.OrderFulfillment(false),
			&Property{
				Task:    "ProcessOrders",
				Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
				Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
			}, true,
		},
		{
			"guard-buggy", workflows.OrderFulfillment(true),
			&Property{
				Task:    "ProcessOrders",
				Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
				Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
			}, false,
		},
		{
			"liveness", workflows.OrderFulfillment(false),
			&Property{Task: "ProcessOrders", Formula: ltl.MustParse(`F open(ShipItem)`)}, false,
		},
	}
	optVariants := map[string]Options{
		"full":    {},
		"noSP":    {NoStatePruning: true},
		"noSA":    {NoStaticAnalysis: true},
		"noDSS":   {NoIndexes: true},
		"noneOpt": {NoStatePruning: true, NoStaticAnalysis: true, NoIndexes: true},
	}
	for _, c := range cases {
		for name, opts := range optVariants {
			res := mustVerify(t, c.sys, c.prop, opts)
			if res.Holds() != c.want {
				t.Errorf("%s/%s: Holds = %v, want %v", c.name, name, res.Holds(), c.want)
			}
		}
	}
}

func TestNoSetStillVerifies(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	prop := &Property{
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	}
	res := mustVerify(t, sys, prop, Options{IgnoreSets: true})
	if !res.Holds() {
		t.Errorf("NoSet over-approximation should still satisfy the guard property (it does not involve the relation contents)")
	}
}

func TestPropertyValidation(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []*Property{
		{Task: "Nope", Formula: ltl.TrueF{}},
		{Task: "ProcessOrders", Formula: ltl.MustParse(`G undefined_prop`)},
		{Task: "ProcessOrders", Formula: ltl.MustParse(`G open(NoSuchTask)`)},
		{
			Task:    "ProcessOrders",
			Conds:   map[string]fol.Formula{"bad": fol.MustParse(`nosuchvar == null`)},
			Formula: ltl.MustParse(`G bad`),
		},
		{
			Task:    "ProcessOrders",
			Globals: []has.Variable{has.V("status")}, // clashes with task var
			Formula: ltl.TrueF{},
		},
		{
			Task:    "ProcessOrders",
			Conds:   map[string]fol.Formula{"q": fol.MustParse(`exists w : val (w == status)`)},
			Formula: ltl.MustParse(`G q`),
		},
	}
	for i, prop := range cases {
		if _, err := Verify(context.Background(), sys, prop, Options{Budget: Budget{MaxStates: 10}}); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	prop := &Property{Task: "ProcessOrders", Formula: ltl.MustParse(`F close(TakeOrder)`)}
	res := mustVerify(t, sys, prop, Options{})
	if res.Stats.StatesExplored() == 0 || res.Stats.BuchiStates == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
	if res.Stats.Elapsed <= 0 {
		t.Error("elapsed time missing")
	}
}

func TestTimeoutReported(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	prop := &Property{Task: "ProcessOrders", Formula: ltl.MustParse(`F open(ShipItem)`)}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Verify(context.Background(), sys, prop, Options{Budget: Budget{MaxStates: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.TimedOut {
		t.Error("tiny budget should report a timeout")
	}
	if res.Holds() {
		t.Error("timed-out verification must not claim the property holds")
	}
}
