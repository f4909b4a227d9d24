package engines_test

import (
	"context"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/engines"
	"verifas/internal/fol"
	"verifas/internal/ltl"
	"verifas/internal/workflows"
)

func TestDefaultRegistryContents(t *testing.T) {
	r := engines.Default()
	names := map[string]bool{}
	for _, n := range r.Names() {
		names[n] = true
	}
	for _, want := range []string{
		"verifas", "verifas-noset", "verifas-nosp", "verifas-nosa",
		"verifas-nodss", "verifas-norr",
		"spinlike", "spinlike-bitstate",
	} {
		if !names[want] {
			t.Errorf("default registry missing %q (have %v)", want, r.Names())
		}
	}
	for _, n := range engines.DefaultPortfolio {
		if !names[n] {
			t.Errorf("DefaultPortfolio names unknown engine %q", n)
		}
	}
	// Registered caveats must match what the built engines report.
	for _, n := range r.Names() {
		reg, _ := r.Lookup(n)
		eng, err := r.Build(n, core.Budget{})
		if err != nil {
			t.Fatalf("build %q: %v", n, err)
		}
		if eng.Name() != n {
			t.Errorf("engine %q reports Name() = %q", n, eng.Name())
		}
		if eng.Caps() != reg.Caps {
			t.Errorf("engine %q: built caps %+v != registered caps %+v", n, eng.Caps(), reg.Caps)
		}
	}
}

// TestPortfolioMatchesSingleEngine runs the default portfolio on a real
// workflow property and checks the merged verdict against the exact
// engine run alone — the ISSUE's end-to-end acceptance criterion.
func TestPortfolioMatchesSingleEngine(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	prop := &core.Property{
		Name:    "guard",
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	}
	budget := core.Budget{MaxStates: 400_000, Timeout: 120 * time.Second}
	r := engines.Default()

	solo, err := r.Build("verifas", budget)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solo.Verify(context.Background(), sys, prop)
	if err != nil {
		t.Fatal(err)
	}
	if want.TimedOut() {
		t.Skipf("solo run exhausted its budget after %d states", want.Stats.StatesExplored())
	}

	contenders, err := r.BuildAll(engines.DefaultPortfolio, budget)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.VerifyPortfolio(context.Background(), sys, prop, core.PortfolioOptions{Engines: contenders})
	if err != nil {
		t.Fatal(err)
	}
	if got.Verdict != want.Verdict {
		t.Errorf("portfolio verdict %v != solo verifas verdict %v", got.Verdict, want.Verdict)
	}
	p := got.Portfolio
	if p == nil || !p.Decisive || p.Winner == "" {
		t.Fatalf("portfolio stats missing or indecisive: %+v", p)
	}
	if len(p.Engines) != len(engines.DefaultPortfolio) {
		t.Errorf("outcome count %d != contender count %d", len(p.Engines), len(engines.DefaultPortfolio))
	}
	// OrderFulfillment declares artifact relations and the default
	// portfolio mixes spinlike (set-ignoring) with verifas, so the
	// mismatch demotion must be active and only verifas can win "holds".
	if !p.Mismatch {
		t.Error("abstraction mismatch not flagged for the default portfolio on OrderFulfillment")
	}
	if got.Verdict == core.VerdictHolds && p.Winner != "verifas" {
		t.Errorf("a 'holds' under mismatch can only be won by verifas, winner = %q", p.Winner)
	}
}
