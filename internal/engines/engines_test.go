package engines_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/engines"
	"verifas/internal/fol"
	"verifas/internal/has"
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

// recorder counts the events of one run.
type recorder struct {
	phases, progress, verdicts int
	started, done              []string
}

func (r *recorder) PhaseStart(core.Phase)                { r.phases++ }
func (r *recorder) PhaseEnd(core.Phase, core.PhaseStats) {}
func (r *recorder) Progress(core.ProgressEvent)          { r.progress++ }
func (r *recorder) Verdict(core.VerdictEvent)            { r.verdicts++ }
func (r *recorder) EngineStart(name string)              { r.started = append(r.started, name) }
func (r *recorder) EngineDone(o core.EngineOutcome)      { r.done = append(r.done, o.Engine) }

func buildProperty(t *testing.T) (*has.System, *core.Property) {
	t.Helper()
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys, &core.Property{
		Name:    "guard",
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	}
}

// TestBuildOne: one name gives that engine, observed through the
// budget's observer; a one-element list is the same engine.
func TestBuildOne(t *testing.T) {
	sys, prop := buildProperty(t)
	rec := &recorder{}
	eng, err := engines.Build([]string{"verifas-nosp"}, core.Budget{MaxStates: 100_000, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Name() != "verifas-nosp" {
		t.Fatalf("Build([verifas-nosp]) = %q", eng.Name())
	}
	res, err := eng.Verify(context.Background(), sys, prop)
	if err != nil {
		t.Fatal(err)
	}
	if rec.phases == 0 || rec.verdicts != 1 {
		t.Errorf("observer saw %d phases and %d verdicts, want phases and one verdict", rec.phases, rec.verdicts)
	}

	ref, err := engines.Default().Build("verifas-nosp", core.Budget{MaxStates: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Verify(context.Background(), sys, prop)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Name() != eng.Name() || ref.Caps() != eng.Caps() {
		t.Errorf("list engine %q %+v, registry engine %q %+v", eng.Name(), eng.Caps(), ref.Name(), ref.Caps())
	}
	if res.Verdict != want.Verdict || res.Stats.StatesExplored() != want.Stats.StatesExplored() {
		t.Errorf("list engine: %v after %d states; registry engine: %v after %d states",
			res.Verdict, res.Stats.StatesExplored(), want.Verdict, want.Stats.StatesExplored())
	}
}

// TestBuildPortfolio: several names race as a portfolio whose observer
// sees only the portfolio-level stream.
func TestBuildPortfolio(t *testing.T) {
	sys, prop := buildProperty(t)
	rec := &recorder{}
	eng, err := engines.Build([]string{"verifas", "spinlike"}, core.Budget{MaxStates: 100_000, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Verify(context.Background(), sys, prop)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Portfolio
	if p == nil || len(p.Engines) != 2 || p.Engines[0].Engine != "verifas" || p.Engines[1].Engine != "spinlike" {
		t.Fatalf("portfolio outcomes = %+v, want verifas and spinlike", p)
	}
	if rec.phases != 0 || rec.progress != 0 {
		t.Errorf("contenders were observed: %d phase starts, %d progress events", rec.phases, rec.progress)
	}
	if len(rec.started) != 2 || len(rec.done) != 2 || rec.verdicts != 1 {
		t.Errorf("portfolio stream: started %v, done %v, %d verdicts", rec.started, rec.done, rec.verdicts)
	}
}

func TestBuildRejects(t *testing.T) {
	if _, err := engines.Build([]string{"bogus"}, core.Budget{}); !errors.Is(err, core.ErrUnknownVariant) {
		t.Errorf("unknown name: err = %v, want core.ErrUnknownVariant", err)
	}
	if _, err := engines.Build([]string{"verifas", "bogus"}, core.Budget{}); !errors.Is(err, core.ErrUnknownVariant) {
		t.Errorf("unknown contender: err = %v, want core.ErrUnknownVariant", err)
	}
	if _, err := engines.Build([]string{"verifas", "verifas"}, core.Budget{}); err == nil {
		t.Error("a repeated name was accepted")
	}
	if _, err := engines.Build(nil, core.Budget{}); err == nil {
		t.Error("an empty list was accepted")
	}
}
