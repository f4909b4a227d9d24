package core_test

import (
	"testing"

	"verifas/internal/benchmark"
	"verifas/internal/core"
)

// TestCoverGraphComputesNoList builds RR's coverability graph for the
// real-suite items of two templates whose violations run the
// repeated-reachability phase, G(p -> F q) and F p. The search expanded
// every active node, so the graph must read each node's list from the
// run's successor memo: one lookup per node, every one a hit.
func TestCoverGraphComputesNoList(t *testing.T) {
	graphs := 0
	for _, s := range benchmark.RealSuite() {
		props := benchmark.Properties(s.Sys, 1)
		for _, ti := range []int{6, 7} {
			nodes, calls, hits, ok := core.CoverGraphLookups(t, s.Sys, props[ti], 50_000)
			if !ok {
				continue
			}
			if calls != nodes || hits != calls {
				t.Errorf("%s %s: %d graph nodes, %d lookups, %d hits; want one hit per node",
					s.Name, props[ti].Name, nodes, calls, hits)
			}
			if nodes > 0 {
				graphs++
			}
		}
	}
	if graphs == 0 {
		t.Fatal("no item built a non-empty coverability graph")
	}
	t.Logf("%d non-empty graphs, all served from the memo", graphs)
}
