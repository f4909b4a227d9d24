package core_test

import (
	"context"
	"os"
	"testing"

	"verifas/internal/benchmark"
	"verifas/internal/core"
	"verifas/internal/spec"
	"verifas/internal/workflows"
)

// searchStats returns the deterministic counters of each search phase:
// everything but the wall-clock durations.
func searchStats(s core.Stats) [2]core.PhaseStats {
	out := [2]core.PhaseStats{s.Reachability, s.RR}
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

// TestIndexVerifyIdentical verifies properties of every workflow of the
// corpus with and without the DSS indexes. The indexes only prefilter
// candidates that Leq then confirms, so both runs must build the same
// search trees: the same verdict, the same per-phase counters and
// estimated memory, and the same counterexample, cycle included (the
// index-backed coverability graph keeps the all-pairs edge order).
func TestIndexVerifyIdentical(t *testing.T) {
	// False, G(p -> F q) and F p: a safety baseline and two templates
	// whose violations run the repeated-reachability phase.
	templates := []int{0, 6, 7}
	for _, e := range workflows.All() {
		sys := e.Build()
		if err := sys.Validate(); err != nil {
			t.Fatal(err)
		}
		props := benchmark.Properties(sys, 1)
		for _, ti := range templates {
			prop := props[ti]
			budget := core.Budget{MaxStates: 50_000}
			ref, err := core.Verify(context.Background(), sys, prop, core.Options{Budget: budget, NoIndexes: true})
			if err != nil {
				t.Fatalf("%s %s: %v", e.Name, prop.Name, err)
			}
			got, err := core.Verify(context.Background(), sys, prop, core.Options{Budget: budget})
			if err != nil {
				t.Fatalf("%s %s: %v", e.Name, prop.Name, err)
			}
			if got.Verdict != ref.Verdict {
				t.Errorf("%s %s: verdict %v with the indexes, %v without", e.Name, prop.Name, got.Verdict, ref.Verdict)
			}
			if g, r := searchStats(got.Stats), searchStats(ref.Stats); g != r {
				t.Errorf("%s %s: stats differ:\n with    %+v\n without %+v", e.Name, prop.Name, g, r)
			}
			if !violationEqual(got.Violation, ref.Violation) {
				t.Errorf("%s %s: counterexample differs:\n with    %+v\n without %+v", e.Name, prop.Name, got.Violation, ref.Violation)
			}
		}
	}
}

// TestAddEqFilteredNullClash verifies a spec on which equating two
// classes of different sorts meets an edge filter that skips one side's
// equality with null: the verifier must reach a verdict instead of
// recursing until the stack overflows.
func TestAddEqFilteredNullClash(t *testing.T) {
	src, err := os.ReadFile("../../testdata/crash-addeq.has")
	if err != nil {
		t.Fatal(err)
	}
	f, err := spec.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Verify(context.Background(), f.System, f.Properties[0], core.Options{Budget: core.Budget{MaxStates: 20_000}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("verdict %v after %d states", res.Verdict, res.Stats.StatesExplored())
}
