package core_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"verifas/internal/benchmark"
	"verifas/internal/core"
	"verifas/internal/fol"
	"verifas/internal/has"
	"verifas/internal/ltl"
	"verifas/internal/spinlike"
	"verifas/internal/synth"
	"verifas/internal/workflows"
)

// determinismCase is one workload of the determinism test below: a
// verification to run twice.
type determinismCase struct {
	name   string
	verify func(context.Context) (*core.Result, error)
	// budgetCut marks a case whose search must stop at its state budget.
	budgetCut bool
}

func verifasCase(name string, sys *has.System, prop *core.Property, maxStates int) determinismCase {
	return determinismCase{name: name, verify: func(ctx context.Context) (*core.Result, error) {
		opts := core.Options{Budget: core.Budget{MaxStates: maxStates, Timeout: 60 * time.Second}}
		return core.Verify(ctx, sys, prop, opts)
	}}
}

func spinlikeCase(name string, sys *has.System, prop *core.Property) determinismCase {
	return determinismCase{name: name, verify: func(ctx context.Context) (*core.Result, error) {
		opts := spinlike.Options{Budget: core.Budget{MaxStates: 60_000, Timeout: 60 * time.Second}}
		return spinlike.Verify(ctx, sys, prop, opts)
	}}
}

// determinismCases mixes real workflows (paper Table 1 systems) with
// synthetic specifications, covering holds, finite violations,
// repeated-reachability (pumping/cycle) violations, a search cut by the
// state budget, and the baseline engine with and without global
// variables.
func determinismCases(t *testing.T) []determinismCase {
	t.Helper()
	// Verify requires a validated system; validation also fills the
	// system's lazy lookup tables before the concurrent runs read them.
	order := workflows.OrderFulfillment(false)
	if err := order.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []determinismCase{
		verifasCase("order-safety-holds", order, &core.Property{
			Task:    "ProcessOrders",
			Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
			Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
		}, 300_000),
		verifasCase("order-liveness-violated", order, &core.Property{
			Task:    "ProcessOrders",
			Formula: ltl.MustParse(`F open(ShipItem)`),
		}, 300_000),
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
	sys := synth.GenerateValid(p, 36, 2, 10)
	if err := sys.Validate(); err == nil {
		cases = append(cases, verifasCase("synthetic-neverclose", sys, &core.Property{
			Task:    sys.Root.Name,
			Formula: ltl.MustParse(`G !close(` + sys.Root.Children[0].Name + `)`),
		}, 300_000))
	}
	// The synth-wide benchmark item "synth-09 | GF p -> GF q": its search
	// stops at the 1000-state budget, so the cut point itself must be
	// reproducible. The benchmark seeds its properties with 3, the spec's
	// position in that workload plus one.
	n := len(cases)
	for _, s := range benchmark.SyntheticSuite(11, 1) {
		if s.Name != "synth-09" {
			continue
		}
		for _, prop := range benchmark.Properties(s.Sys, 3) {
			if prop.Name == "GF p -> GF q" {
				c := verifasCase("synth-09-budget-cut", s.Sys, prop, 1000)
				c.budgetCut = true
				cases = append(cases, c)
			}
		}
	}
	if len(cases) == n {
		t.Fatal("synthetic suite lacks synth-09 | GF p -> GF q")
	}
	cases = append(cases,
		spinlikeCase("spinlike-globals", order, &core.Property{
			Task:    "ProcessOrders",
			Globals: []has.Variable{{Name: "gitem", Type: has.IDType("ITEMS")}},
			Conds:   map[string]fol.Formula{"mine": fol.MustParse(`item_id == gitem`)},
			Formula: ltl.MustParse(`G (mine -> F open(ShipItem))`),
		}),
		spinlikeCase("spinlike-no-globals", order, &core.Property{
			Task:    "ProcessOrders",
			Formula: ltl.MustParse(`F open(ShipItem)`),
		}),
	)
	return cases
}

// statsEqual compares the deterministic parts of two Stats (everything
// except wall-clock durations).
func statsEqual(a, b core.Stats) bool {
	phase := func(x, y core.PhaseStats) bool {
		return x.States == y.States && x.Pruned == y.Pruned &&
			x.Skipped == y.Skipped && x.Accelerations == y.Accelerations &&
			x.MemBytes == y.MemBytes
	}
	return a.BuchiStates == b.BuchiStates && a.TimedOut == b.TimedOut &&
		a.BudgetExhausted == b.BudgetExhausted &&
		phase(a.Reachability, b.Reachability) && phase(a.RR, b.RR)
}

func violationEqual(a, b *core.Violation) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Kind != b.Kind || len(a.Prefix) != len(b.Prefix) || len(a.Cycle) != len(b.Cycle) {
		return false
	}
	for i := range a.Prefix {
		if a.Prefix[i].Service != b.Prefix[i].Service || a.Prefix[i].State != b.Prefix[i].State {
			return false
		}
	}
	for i := range a.Cycle {
		if a.Cycle[i].Service != b.Cycle[i].Service || a.Cycle[i].State != b.Cycle[i].State {
			return false
		}
	}
	return true
}

// TestParallelVerifyDeterministic verifies every case twice at once and
// requires identical verdicts, per-phase search stats and witnesses. A
// search runs on one goroutine; parallelism exists only across
// verifications (the daemon's job pool, benchrun -j, verifas -j), so
// two concurrent runs of one case must not influence each other.
func TestParallelVerifyDeterministic(t *testing.T) {
	for _, tc := range determinismCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var res [2]*core.Result
			var errs [2]error
			var wg sync.WaitGroup
			for i := range res {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res[i], errs[i] = tc.verify(context.Background())
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			a, b := res[0], res[1]
			if tc.budgetCut && !a.TimedOut() {
				t.Errorf("verdict %v, want the state budget to cut the search", a.Verdict)
			}
			if a.Verdict != b.Verdict {
				t.Errorf("verdicts differ: %v vs %v", a.Verdict, b.Verdict)
			}
			if !statsEqual(a.Stats, b.Stats) {
				t.Errorf("stats differ:\n%+v\n%+v", a.Stats, b.Stats)
			}
			if !violationEqual(a.Violation, b.Violation) {
				t.Errorf("counterexamples differ:\n%+v\n%+v", a.Violation, b.Violation)
			}
		})
	}
}
