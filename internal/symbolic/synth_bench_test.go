package symbolic_test

import (
	"testing"

	"verifas/internal/benchmark"
	"verifas/internal/static"
	"verifas/internal/symbolic"
)

// BenchmarkSynthWideSuccessors measures plain (un-interned) Successors,
// the successor-type memo's miss path, on the wide pisotypes of the
// benchmark's synth-wide systems: each op calls Successors once on each
// system, on states from a pool of up to 200 per system collected by
// breadth-first expansion.
func BenchmarkSynthWideSuccessors(b *testing.B) {
	var systems []*symbolic.TaskSystem
	var pools [][]*symbolic.PSI
	specs, err := benchmark.SynthWide()
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range specs {
		ts, err := symbolic.CompileTask(s.Sys, s.Sys.Root, symbolic.PropertyBinding{}, symbolic.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ts.SetFilter(static.Analyze(ts))
		states := ts.Initial()
		for frontier := states; len(frontier) > 0 && len(states) < 200; {
			var next []*symbolic.PSI
			for _, p := range frontier {
				for _, succ := range ts.Successors(p) {
					next = append(next, succ.Next)
				}
			}
			states = append(states, next...)
			frontier = next
		}
		systems = append(systems, ts)
		pools = append(pools, states[:min(len(states), 200)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, ts := range systems {
			ts.Successors(pools[k][i%len(pools[k])])
		}
	}
}
