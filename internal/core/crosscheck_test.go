package core_test

import (
	"context"
	"os"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/fol"
	"verifas/internal/has"
	"verifas/internal/ltl"
	"verifas/internal/spec"
	"verifas/internal/spinlike"
	"verifas/internal/synth"
	"verifas/internal/workflows"
)

func xVerify(t *testing.T, sys *has.System, prop *core.Property, opts core.Options) *core.Result {
	t.Helper()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	opts.MaxStates = 300_000
	opts.Timeout = 60 * time.Second
	res, err := core.Verify(context.Background(), sys, prop, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TimedOut {
		t.Fatalf("verification timed out after %d states", res.Stats.StatesExplored())
	}
	return res
}

// TestCrossCheckSpinlike compares VERIFAS-NoSet with the bounded
// explicit-state baseline on the SAME abstraction (artifact relations
// ignored, children havocked). Every violation the bounded checker finds
// is witnessed by a run over finitely many values, hence a real run:
// whenever spinlike reports VIOLATED and VERIFAS-NoSet reports HOLDS,
// VERIFAS is unsound. (The converse direction may legitimately differ: a
// violation can require more data values than the bound.)
func TestCrossCheckSpinlike(t *testing.T) {
	props := []*core.Property{
		{
			Name:    "guard",
			Task:    "ProcessOrders",
			Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
			Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
		},
		{
			Name:    "liveness",
			Task:    "ProcessOrders",
			Formula: ltl.MustParse(`F open(Restock)`),
		},
		{
			Name:    "until",
			Task:    "ProcessOrders",
			Conds:   map[string]fol.Formula{"init": fol.MustParse(`status == "Init"`)},
			Formula: ltl.MustParse(`!open(TakeOrder) U init`),
		},
		{
			Name:    "fair",
			Task:    "ProcessOrders",
			Conds:   map[string]fol.Formula{"placed": fol.MustParse(`status == "OrderPlaced"`)},
			Formula: ltl.MustParse(`G F placed`),
		},
	}
	// Both engines behind the shared Engine interface: the cross-check
	// logic below never dispatches on the engine kind again.
	engines := map[string]core.Engine{
		"verifas-noset": core.Verifas(core.Options{Budget: core.Budget{MaxStates: 300_000, Timeout: 60 * time.Second}, IgnoreSets: true}),
		"spinlike":      spinlike.Engine(spinlike.Options{Budget: core.Budget{MaxStates: 150_000, Timeout: 60 * time.Second}, FreshPerSort: 1}),
	}
	for _, buggy := range []bool{false, true} {
		sys := workflows.OrderFulfillment(buggy)
		if err := sys.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, prop := range props {
			results := map[string]*core.Result{}
			budget := false
			for name, eng := range engines {
				res, err := eng.Verify(context.Background(), sys, prop)
				if err != nil {
					t.Fatalf("%s/%s: %v", prop.Name, name, err)
				}
				results[name] = res
				budget = budget || res.TimedOut()
			}
			if budget {
				t.Logf("%s (buggy=%v): skipped (budget)", prop.Name, buggy)
				continue
			}
			vres := results["verifas-noset"]
			sres := results["spinlike"]
			if !sres.Holds() && vres.Holds() {
				t.Errorf("%s (buggy=%v): bounded checker finds a violation but VERIFAS-NoSet claims the property holds (UNSOUND)", prop.Name, buggy)
			}
			t.Logf("%s (buggy=%v): verifas=%v spinlike=%v", prop.Name, buggy, vres.Holds(), sres.Holds())
		}
	}
}

// TestCrossCheckSynthetic repeats the cross-check on small random
// specifications and simple service-proposition properties.
func TestCrossCheckSynthetic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow cross-check")
	}
	p := synth.Params{
		Relations:       2,
		Tasks:           2,
		VarsPerTask:     4,
		ServicesPerTask: 3,
		AtomsPerCond:    2,
		NonKeyAttrs:     1,
		Constants:       3,
	}
	checked := 0
	for seed := int64(0); seed < 8; seed++ {
		sys := synth.GenerateValid(p, seed*31+5, 2, 10)
		if err := sys.Validate(); err != nil {
			continue
		}
		child := sys.Root.Children[0].Name
		for _, f := range []ltl.Formula{
			ltl.MustParse(`false`),
			ltl.MustParse(`G !close(` + child + `)`),
			ltl.MustParse(`F open(` + child + `)`),
		} {
			prop := &core.Property{Task: sys.Root.Name, Formula: f}
			verifas := core.Verifas(core.Options{Budget: core.Budget{MaxStates: 100_000, Timeout: 20 * time.Second}, IgnoreSets: true})
			bounded := spinlike.Engine(spinlike.Options{Budget: core.Budget{MaxStates: 60_000, Timeout: 20 * time.Second}, FreshPerSort: 1, MaxBranch: 1 << 15})
			vres, err := verifas.Verify(context.Background(), sys, prop)
			if err != nil {
				t.Fatal(err)
			}
			sres, err := bounded.Verify(context.Background(), sys, prop)
			if err != nil {
				t.Fatal(err)
			}
			if vres.TimedOut() || sres.TimedOut() {
				continue
			}
			checked++
			if !sres.Holds() && vres.Holds() {
				t.Errorf("seed %d / %s: bounded violation missed by VERIFAS (UNSOUND)", seed, ltl.String(f))
			}
		}
	}
	t.Logf("cross-checked %d (spec, property) pairs", checked)
	if checked == 0 {
		t.Skip("all cross-checks hit budgets")
	}
}

// TestRROmegaDominatedCycle verifies a real-suite property violated only
// by an infinite run whose accepting cycle the reachability phase's ω
// states dominate. The paper's Appendix C ⪯+ search, pruned against those
// states, created no state on it and answered "holds"; repeated
// reachability must report the cycle.
func TestRROmegaDominatedCycle(t *testing.T) {
	src, err := os.ReadFile("../../testdata/rr-omega-dominated.has")
	if err != nil {
		t.Fatal(err)
	}
	f, err := spec.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	res := xVerify(t, f.System, f.Properties[0], core.Options{})
	if res.Verdict != core.VerdictViolated {
		t.Fatalf("verdict = %v, want violated", res.Verdict)
	}
	if v := res.Violation; v.Kind != "cycle" || len(v.Cycle) == 0 {
		t.Errorf("violation kind %q with %d cycle steps, want a non-empty cycle", v.Kind, len(v.Cycle))
	}
}
