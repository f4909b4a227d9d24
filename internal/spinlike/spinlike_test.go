package spinlike

import (
	"context"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/fol"
	"verifas/internal/has"
	"verifas/internal/ltl"
	"verifas/internal/workflows"
)

func run(t *testing.T, sys *has.System, prop *core.Property) *core.Result {
	t.Helper()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Verify(context.Background(), sys, prop, Options{Budget: core.Budget{MaxStates: 400000, Timeout: 120 * time.Second}, FreshPerSort: 2, MaxBranch: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSafetyHoldsCorrect(t *testing.T) {
	res := run(t, workflows.OrderFulfillment(false), &core.Property{
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	})
	if res.TimedOut() {
		t.Skipf("bounded search exceeded budget after %d states", res.Stats.Reachability.States)
	}
	if !res.Holds() {
		t.Error("guard property should hold within the bounded domain")
	}
}

func TestSafetyViolatedBuggy(t *testing.T) {
	res := run(t, workflows.OrderFulfillment(true), &core.Property{
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	})
	if res.TimedOut() {
		t.Skipf("bounded search exceeded budget after %d states", res.Stats.Reachability.States)
	}
	if res.Holds() {
		t.Error("buggy variant should be caught even with bounded data")
	}
}

func TestLivenessViolated(t *testing.T) {
	res := run(t, workflows.OrderFulfillment(false), &core.Property{
		Task:    "ProcessOrders",
		Formula: ltl.MustParse(`F open(ShipItem)`),
	})
	if res.TimedOut() {
		t.Skipf("bounded search exceeded budget after %d states", res.Stats.Reachability.States)
	}
	if res.Holds() {
		t.Error("shipping is not inevitable; nested DFS should find an accepting cycle")
	}
}

func TestChildTaskFiniteViolation(t *testing.T) {
	res := run(t, workflows.OrderFulfillment(false), &core.Property{
		Task:    "CheckCredit",
		Conds:   map[string]fol.Formula{"undecided": fol.MustParse(`c_status == null`)},
		Formula: ltl.MustParse(`G undecided`),
	})
	if res.TimedOut() {
		t.Skipf("bounded search exceeded budget after %d states", res.Stats.Reachability.States)
	}
	if res.Holds() {
		t.Error("CheckCredit decides; bounded search must find the finite violation")
	}
}

func TestChildTaskClosingGuardHolds(t *testing.T) {
	res := run(t, workflows.OrderFulfillment(false), &core.Property{
		Task:    "CheckCredit",
		Conds:   map[string]fol.Formula{"decided": fol.MustParse(`c_status != null`)},
		Formula: ltl.MustParse(`G (close(CheckCredit) -> decided)`),
	})
	if res.TimedOut() {
		t.Skipf("bounded search exceeded budget after %d states", res.Stats.Reachability.States)
	}
	if !res.Holds() {
		t.Error("closing guard holds in every domain size")
	}
}

func TestTinyBudgetTimesOut(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Verify(context.Background(), sys, &core.Property{
		Task:    "ProcessOrders",
		Formula: ltl.MustParse(`F open(ShipItem)`),
	}, Options{Budget: core.Budget{MaxStates: 5}, MaxBranch: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut() {
		t.Error("a 5-state budget must overflow")
	}
}
