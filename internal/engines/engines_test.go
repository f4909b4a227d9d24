package engines_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/engines"
	"verifas/internal/fol"
	"verifas/internal/has"
	"verifas/internal/ltl"
	"verifas/internal/workflows"
)

// TestEngineTable pins the table: the names in order, and the name and
// caveats every built engine reports.
func TestEngineTable(t *testing.T) {
	want := []struct {
		name string
		caps core.Capabilities
	}{
		{"verifas", core.Capabilities{}},
		{"verifas-noset", core.Capabilities{IgnoresSets: true}},
		{"verifas-nosp", core.Capabilities{}},
		{"verifas-nosa", core.Capabilities{}},
		{"verifas-nodss", core.Capabilities{}},
		{"verifas-norr", core.Capabilities{BoundedHolds: true}},
		{"spinlike", core.Capabilities{BoundedHolds: true, IgnoresSets: true}},
		{"spinlike-bitstate", core.Capabilities{BoundedHolds: true, IgnoresSets: true, Lossy: true}},
	}
	names := engines.Names()
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %d engines", names, len(want))
	}
	for i, w := range want {
		if names[i] != w.name {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], w.name)
		}
		eng, err := engines.Build([]string{w.name}, core.Budget{})
		if err != nil {
			t.Fatalf("build %q: %v", w.name, err)
		}
		if eng.Name() != w.name || eng.Caps() != w.caps {
			t.Errorf("engine %q reports Name() = %q, Caps() = %+v; want caps %+v", w.name, eng.Name(), eng.Caps(), w.caps)
		}
	}
	known := map[string]bool{}
	for _, n := range names {
		known[n] = true
	}
	for _, n := range engines.DefaultPortfolio {
		if !known[n] {
			t.Errorf("DefaultPortfolio names unknown engine %q", n)
		}
	}
}

// TestBuildConcurrent builds every engine from many goroutines at once,
// as the daemon's job pool does; run it under -race.
func TestBuildConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, n := range engines.Names() {
				if _, err := engines.Build([]string{n}, core.Budget{MaxStates: i + 1}); err != nil {
					t.Error(err)
				}
			}
			if _, err := engines.Build(engines.DefaultPortfolio, core.Budget{MaxStates: i + 1}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

// TestInvalidPropertyEveryEngine: a property atom that is neither a
// service nor a defined condition is rejected by every engine, not
// explored under an undefined proposition.
func TestInvalidPropertyEveryEngine(t *testing.T) {
	sys, prop := buildProperty(t)
	prop.Conds = nil
	for _, n := range engines.Names() {
		eng, err := engines.Build([]string{n}, core.Budget{MaxStates: 1000, Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Verify(context.Background(), sys, prop); !errors.Is(err, core.ErrInvalidProperty) {
			t.Errorf("%s: err = %v, want core.ErrInvalidProperty", n, err)
		}
	}
}

// TestPortfolioMatchesSingleEngine runs the default portfolio on a real
// workflow property and checks the merged verdict against the exact
// engine run alone.
func TestPortfolioMatchesSingleEngine(t *testing.T) {
	sys, prop := buildProperty(t)
	budget := core.Budget{MaxStates: 400_000, Timeout: 120 * time.Second}

	solo, err := engines.Build([]string{"verifas"}, budget)
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

	portfolio, err := engines.Build(engines.DefaultPortfolio, budget)
	if err != nil {
		t.Fatal(err)
	}
	got, err := portfolio.Verify(context.Background(), sys, prop)
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

	ref := core.Verifas(core.Options{NoStatePruning: true, Budget: core.Budget{MaxStates: 100_000}})
	want, err := ref.Verify(context.Background(), sys, prop)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Name() != eng.Name() || ref.Caps() != eng.Caps() {
		t.Errorf("built engine %q %+v, direct engine %q %+v", eng.Name(), eng.Caps(), ref.Name(), ref.Caps())
	}
	if res.Verdict != want.Verdict || res.Stats.StatesExplored() != want.Stats.StatesExplored() {
		t.Errorf("built engine: %v after %d states; direct engine: %v after %d states",
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
