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

// TestEngineTable pins the table: the names in order, and the name
// every built engine reports.
func TestEngineTable(t *testing.T) {
	want := []string{
		"verifas", "verifas-noset", "verifas-nosp", "verifas-nosa",
		"verifas-nodss", "verifas-norr", "spinlike", "spinlike-bitstate",
	}
	names := engines.Names()
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %d engines", names, len(want))
	}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], w)
		}
		eng, err := engines.Build(w, core.Budget{})
		if err != nil {
			t.Fatalf("build %q: %v", w, err)
		}
		if eng.Name() != w {
			t.Errorf("engine %q reports Name() = %q", w, eng.Name())
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
				if _, err := engines.Build(n, core.Budget{MaxStates: i + 1}); err != nil {
					t.Error(err)
				}
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
		eng, err := engines.Build(n, core.Budget{MaxStates: 1000, Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Verify(context.Background(), sys, prop); !errors.Is(err, core.ErrInvalidProperty) {
			t.Errorf("%s: err = %v, want core.ErrInvalidProperty", n, err)
		}
	}
}

// recorder counts the events of one run.
type recorder struct {
	phases, verdicts int
}

func (r *recorder) PhaseStart(core.Phase)                { r.phases++ }
func (r *recorder) PhaseEnd(core.Phase, core.PhaseStats) {}
func (r *recorder) Progress(core.ProgressEvent)          {}
func (r *recorder) Verdict(core.VerdictEvent)            { r.verdicts++ }

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

// TestBuildOne: a name gives that engine, observed through the budget's
// observer, and equal to the engine built directly.
func TestBuildOne(t *testing.T) {
	sys, prop := buildProperty(t)
	rec := &recorder{}
	eng, err := engines.Build("verifas-nosp", core.Budget{MaxStates: 100_000, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Name() != "verifas-nosp" {
		t.Fatalf("Build(verifas-nosp) = %q", eng.Name())
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
	if ref.Name() != eng.Name() {
		t.Errorf("built engine %q, direct engine %q", eng.Name(), ref.Name())
	}
	if res.Verdict != want.Verdict || res.Stats.StatesExplored() != want.Stats.StatesExplored() {
		t.Errorf("built engine: %v after %d states; direct engine: %v after %d states",
			res.Verdict, res.Stats.StatesExplored(), want.Verdict, want.Stats.StatesExplored())
	}
}

func TestBuildRejects(t *testing.T) {
	for _, name := range []string{"bogus", "", "verifas,spinlike"} {
		if _, err := engines.Build(name, core.Budget{}); !errors.Is(err, core.ErrUnknownVariant) {
			t.Errorf("Build(%q): err = %v, want core.ErrUnknownVariant", name, err)
		}
	}
}
