package core

import (
	"testing"

	"verifas/internal/fol"
	"verifas/internal/ltl"
	"verifas/internal/workflows"
)

// budgetProp is a safety property whose reachability search is large
// enough to exceed any tiny memory budget.
func budgetProp() *Property {
	return &Property{
		Name:    "ship-guarded",
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	}
}

func TestMemBudgetVerdict(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	res := mustVerify(t, sys, budgetProp(), Options{Budget: Budget{MaxMemBytes: 8 << 10}})
	if !res.BudgetExhausted() {
		t.Fatalf("verdict = %v, want budget-exhausted under an 8 KiB budget", res.Verdict)
	}
	if res.Verdict != VerdictBudget {
		t.Errorf("Verdict = %v, want VerdictBudget", res.Verdict)
	}
	if !res.Stats.BudgetExhausted {
		t.Error("Stats.BudgetExhausted not set")
	}
	if res.TimedOut() || res.Holds() {
		t.Error("budget verdict must be neither timed-out nor holds")
	}
	// Partial stats: the search ran before the budget tripped.
	if res.Stats.Elapsed <= 0 {
		t.Error("no elapsed time in partial stats")
	}
	if res.Stats.Reachability.MemBytes <= 0 {
		t.Error("no MemBytes in partial reachability stats")
	}
}

// TestMemBudgetEventStream asserts the observer contract on the budget
// path: every opened phase is closed, and a single terminal Verdict event
// carries VerdictBudget with the partial stats (mirroring the timeout
// path).
func TestMemBudgetEventStream(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	rec := &recorder{}
	res := mustVerify(t, sys, budgetProp(), Options{Budget: Budget{MaxMemBytes: 8 << 10, Observer: rec, ProgressStride: 1}})
	if !res.BudgetExhausted() {
		t.Fatalf("verdict = %v, want budget-exhausted", res.Verdict)
	}
	checkWellFormed(t, rec.events)
	v := rec.events[len(rec.events)-1].verdict
	if v.Verdict != VerdictBudget {
		t.Errorf("terminal event verdict = %v, want VerdictBudget", v.Verdict)
	}
	if !v.Stats.BudgetExhausted {
		t.Error("terminal event stats missing BudgetExhausted")
	}
	// The reach phase must have been bracketed despite the abort.
	opened := false
	for _, e := range rec.events {
		if e.kind == "start" && e.phase == PhaseReach {
			opened = true
		}
		if e.kind == "end" && e.phase == PhaseReach {
			if e.stats.MemBytes <= 0 {
				t.Error("reach PhaseEnd carries no MemBytes")
			}
		}
	}
	if !opened {
		t.Error("reachability phase never opened")
	}
}

func TestMemBudgetGenerousPasses(t *testing.T) {
	// A budget far above the real footprint must not change the verdict.
	sys := workflows.OrderFulfillment(false)
	bounded := mustVerify(t, sys, budgetProp(), Options{Budget: Budget{MaxMemBytes: 1 << 30}})
	unbounded := mustVerify(t, sys, budgetProp(), Options{})
	if bounded.Verdict != unbounded.Verdict {
		t.Errorf("generous budget changed the verdict: %v vs %v", bounded.Verdict, unbounded.Verdict)
	}
	if !bounded.Holds() {
		t.Errorf("verdict = %v, want holds", bounded.Verdict)
	}
	if bounded.Stats.Reachability.MemBytes <= 0 {
		t.Error("MemBytes not reported on the success path")
	}
}
