package symbolic

import (
	"testing"

	"verifas/internal/workflows"
)

// benchStates compiles the paper's running example and collects a pool
// of representative PSIs by breadth-first expansion from the initial
// state, so the benchmark exercises Successors on states with populated
// constraints and bags rather than only the trivial initial PSI. With
// interner set the system interns its types and memoizes successor types.
func benchStates(tb testing.TB, interner bool) (*TaskSystem, []*PSI) {
	tb.Helper()
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		tb.Fatal(err)
	}
	ts, err := CompileTask(sys, sys.Root, PropertyBinding{}, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if interner {
		ts.SetInterner(NewInterner())
	}
	states := ts.Initial()
	frontier := states
	for depth := 0; depth < 3 && len(states) < 64; depth++ {
		var next []*PSI
		for _, p := range frontier {
			for _, s := range ts.Successors(p) {
				next = append(next, s.Next)
			}
		}
		states = append(states, next...)
		frontier = next
	}
	if len(states) > 64 {
		states = states[:64]
	}
	return ts, states
}

// BenchmarkTaskSystemSuccessors measures the succ(I) hot path (run with
// -benchmem). "plain" has no interner, so every call computes its
// successor types; "interned" runs on a warm successor-type memo, the
// steady state of a verification, where a call only builds the PSIs.
func BenchmarkTaskSystemSuccessors(b *testing.B) {
	for _, interned := range []bool{false, true} {
		name := "plain"
		if interned {
			name = "interned"
		}
		b.Run(name, func(b *testing.B) {
			ts, states := benchStates(b, interned)
			for _, p := range states {
				ts.Successors(p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts.Successors(states[i%len(states)])
			}
		})
	}
}

// successorsAllocs is the recorded allocations per plain Successors call
// over the benchStates pool (go1.24, linux/amd64). The map-based pisotype
// made 189, the flat one with a fresh allocation per intermediate type 60.
const successorsAllocs = 20

// TestSuccessorsAllocGuard fails when plain (un-interned) Successors, the
// successor-type memo's miss path, allocates more than 10% above
// successorsAllocs per call, averaged over the benchStates pool.
func TestSuccessorsAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	ts, states := benchStates(t, false)
	perPool := testing.AllocsPerRun(20, func() {
		for _, p := range states {
			ts.Successors(p)
		}
	})
	got := perPool / float64(len(states))
	t.Logf("plain Successors: %.1f allocs/call over %d states (recorded %d)", got, len(states), successorsAllocs)
	if got > 1.10*successorsAllocs {
		t.Errorf("plain Successors allocates %.1f times per call, more than 10%% above the recorded %d", got, successorsAllocs)
	}
}

// BenchmarkPSIEdgeSet measures the index edge-set computation; with
// memoization the repeated calls after the first are pointer returns.
func BenchmarkPSIEdgeSet(b *testing.B) {
	_, states := benchStates(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		states[i%len(states)].EdgeSet()
	}
}
