package vass

import "testing"

// benchVASS builds a conservative token-ring system: n tokens circulate
// over dim counters via single-step and double-step moves. The token
// count is invariant, so ω-acceleration never fires and the pruned tree
// enumerates every reachable marking — a combinatorially large instance
// (C(n+dim-1, dim-1) nodes) with real domination-pruning work.
func benchVASS(n Count, dim int) *Vec {
	c := make([]Count, dim)
	c[0] = n
	var tr []VTrans
	for i := 0; i < dim; i++ {
		d1 := make([]Count, dim)
		d1[i] = -1
		d1[(i+1)%dim] = 1
		d2 := make([]Count, dim)
		d2[i] = -1
		d2[(i+2)%dim] = 1
		tr = append(tr, VTrans{From: 0, To: 0, Delta: d1}, VTrans{From: 0, To: 0, Delta: d2})
	}
	return &Vec{Dim: dim, Init: VConfig{Loc: 0, C: c}, Trans: tr}
}

// BenchmarkExploreVec measures the search loop's own overhead on the
// plain vector domain (~1.8k-node tree), where Successors is cheap and
// the pruning bookkeeping dominates.
func BenchmarkExploreVec(b *testing.B) {
	sys := benchVASS(20, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree, err := Explore(sys, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if tree.Created == 0 {
			b.Fatal("empty exploration")
		}
	}
}
