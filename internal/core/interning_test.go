package core_test

import (
	"os"
	"reflect"
	"testing"

	"verifas/internal/core"
	"verifas/internal/fol"
	"verifas/internal/has"
	"verifas/internal/ltl"
	"verifas/internal/spec"
	"verifas/internal/workflows"
)

// TestInterningVerdictNeutral checks that turning interning off, and with
// it the successor-type memo, changes no observable result: the verdict,
// every phase's search counters and the witness. MemBytes is left out on
// purpose: without an interner each state is charged its own type.
func TestInterningVerdictNeutral(t *testing.T) {
	src, err := os.ReadFile("../../testdata/rr-omega-dominated.has")
	if err != nil {
		t.Fatal(err)
	}
	f, err := spec.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	stocked := map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)}
	cases := []struct {
		sys  *has.System
		prop *core.Property
	}{
		// ProcessOrders inserts into and retrieves from ORDERS and
		// opens and closes its four children.
		{workflows.OrderFulfillment(false), &core.Property{
			Name: "ship-guarded", Task: "ProcessOrders", Conds: stocked,
			Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
		}},
		{workflows.OrderFulfillment(true), &core.Property{
			Name: "ship-guarded-buggy", Task: "ProcessOrders", Conds: stocked,
			Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
		}},
		{workflows.OrderFulfillment(false), &core.Property{
			Name: "eventually-ships", Task: "ProcessOrders",
			Formula: ltl.MustParse(`F open(ShipItem)`),
		}},
		// A child task's local runs end with its own closing service.
		{workflows.OrderFulfillment(false), &core.Property{
			Name: "takeorder-closes", Task: "TakeOrder",
			Formula: ltl.MustParse(`F close(TakeOrder)`),
		}},
		// Violated only through repeated reachability.
		{f.System, f.Properties[0]},
	}
	for _, c := range cases {
		on := xVerify(t, c.sys, c.prop, core.Options{})
		off := xVerify(t, c.sys, c.prop, core.Options{NoInterning: true})
		if on.Verdict != off.Verdict {
			t.Errorf("%s: interning changed the verdict: %v vs %v", c.prop.Name, on.Verdict, off.Verdict)
		}
		for _, ph := range []struct {
			name    string
			on, off core.PhaseStats
		}{
			{"reachability", on.Stats.Reachability, off.Stats.Reachability},
			{"rr", on.Stats.RR, off.Stats.RR},
		} {
			a, b := ph.on, ph.off
			if a.States != b.States || a.Pruned != b.Pruned || a.Skipped != b.Skipped || a.Accelerations != b.Accelerations {
				t.Errorf("%s: interning changed the %s counters: %+v vs %+v", c.prop.Name, ph.name, a, b)
			}
		}
		if !reflect.DeepEqual(on.Violation, off.Violation) {
			t.Errorf("%s: interning changed the witness:\n%+v\nvs\n%+v", c.prop.Name, on.Violation, off.Violation)
		}
	}
}
