package symbolic

import (
	"sync"
	"testing"
)

// distinctEqualTypes builds n structurally equal but physically distinct
// pisotypes carrying the same constraints.
func distinctEqualTypes(t *testing.T, u *Universe, n int) []*Pisotype {
	t.Helper()
	out := make([]*Pisotype, n)
	x, y := root(t, u, "x"), root(t, u, "y")
	z := root(t, u, "z")
	for i := range out {
		tau := NewPisotype(u, nil)
		if !tau.AddEq(x, y) || !tau.AddNeq(x, z) {
			t.Fatal("constraints inconsistent?")
		}
		out[i] = tau
	}
	return out
}

func TestInternerDedup(t *testing.T) {
	u := testUniverse(t)
	in := NewInterner()
	taus := distinctEqualTypes(t, u, 5)
	canon := in.Intern(taus[0])
	if canon != taus[0] {
		t.Fatal("first Intern should return its argument as canonical")
	}
	for i, tau := range taus[1:] {
		if got := in.Intern(tau); got != canon {
			t.Errorf("Intern #%d returned a non-canonical pointer", i+1)
		}
	}
	if hits, misses := in.Stats(); hits != 4 || misses != 1 {
		t.Errorf("Stats() = (%d, %d), want (4, 1)", hits, misses)
	}
	if in.Len() != 1 {
		t.Errorf("Len() = %d, want 1", in.Len())
	}
	if in.Bytes() <= 0 {
		t.Errorf("Bytes() = %d, want > 0", in.Bytes())
	}

	// A different type must not collapse onto the first.
	other := NewPisotype(u, nil)
	if !other.AddEq(root(t, u, "x"), root(t, u, "z")) {
		t.Fatal("x=z inconsistent?")
	}
	if in.Intern(other) == canon {
		t.Error("distinct types interned to the same canonical pointer")
	}
	if in.Len() != 2 {
		t.Errorf("Len() = %d after second distinct type, want 2", in.Len())
	}
}

func TestInternerPointerEquality(t *testing.T) {
	u := testUniverse(t)
	in := NewInterner()
	taus := distinctEqualTypes(t, u, 2)
	a, b := in.Intern(taus[0]), in.Intern(taus[1])
	if a != b {
		t.Fatal("equal types interned to distinct pointers")
	}
	// The pointer fast path must agree with structural equality.
	if !a.Equal(b) || !a.Implies(b) {
		t.Error("canonical pointer does not satisfy Equal/Implies")
	}
}

func TestInternerNilSafety(t *testing.T) {
	var in *Interner
	u := testUniverse(t)
	tau := NewPisotype(u, nil)
	if in.Intern(tau) != tau {
		t.Error("nil interner must be the identity")
	}
	if h, m := in.Stats(); h != 0 || m != 0 {
		t.Error("nil interner stats must be zero")
	}
	if in.Bytes() != 0 || in.Len() != 0 {
		t.Error("nil interner bytes/len must be zero")
	}
	if NewInterner().Intern(nil) != nil {
		t.Error("Intern(nil) must be nil")
	}
}

func TestInternerConcurrent(t *testing.T) {
	u := testUniverse(t)
	in := NewInterner()
	const goroutines = 8
	const rounds = 200
	results := make([][]*Pisotype, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = make([]*Pisotype, rounds)
			x, y, z := mustRoot(u, "x"), mustRoot(u, "y"), mustRoot(u, "z")
			for i := 0; i < rounds; i++ {
				tau := NewPisotype(u, nil)
				// Two alternating shapes exercise bucket contention.
				if i%2 == 0 {
					tau.AddEq(x, y)
				} else {
					tau.AddEq(x, y)
					tau.AddNeq(x, z)
				}
				results[g][i] = in.Intern(tau)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < rounds; i++ {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d round %d interned to a different pointer", g, i)
			}
		}
	}
	if in.Len() != 2 {
		t.Errorf("Len() = %d, want 2", in.Len())
	}
	hits, misses := in.Stats()
	if hits+misses != goroutines*rounds {
		t.Errorf("hits+misses = %d, want %d", hits+misses, goroutines*rounds)
	}
	if misses != 2 {
		t.Errorf("misses = %d, want 2", misses)
	}
}

func mustRoot(u *Universe, name string) ExprID {
	id, ok := u.Root(name)
	if !ok {
		panic("root " + name + " missing")
	}
	return id
}

// TestInternerArenaAliasing checks that edge slices re-homed into the
// shared arena never alias each other: appending more interned types must
// not corrupt earlier canonical edge sets.
func TestInternerArenaAliasing(t *testing.T) {
	u := testUniverse(t)
	in := NewInterner()
	roots := []string{"x", "y", "z", "s", "u", "v"}
	var canons []*Pisotype
	var snapshots [][]uint64
	for i := 0; i < len(roots); i++ {
		for j := i + 1; j < len(roots); j++ {
			tau := NewPisotype(u, nil)
			a, b := mustRoot(u, roots[i]), mustRoot(u, roots[j])
			if tau.u.Exprs[a].Type != tau.u.Exprs[b].Type {
				continue
			}
			if !tau.AddEq(a, b) {
				continue
			}
			c := in.Intern(tau)
			canons = append(canons, c)
			snapshots = append(snapshots, append([]uint64(nil), c.Edges()...))
		}
	}
	if len(canons) < 3 {
		t.Fatalf("only %d interned types; universe too small for the test", len(canons))
	}
	for i, c := range canons {
		edges := c.Edges()
		if len(edges) != len(snapshots[i]) {
			t.Fatalf("canonical type %d edge count changed after later interning", i)
		}
		for k := range edges {
			if edges[k] != snapshots[i][k] {
				t.Fatalf("canonical type %d edges mutated by later interning", i)
			}
		}
	}
}

// internBenchShapes enumerates small constraint shapes over the bench
// universe's same-typed root pairs: one AddEq shape and one AddEq+AddNeq
// shape per pair. The pool is deliberately small so concurrent interners
// overlap heavily and contend on the same hash buckets.
func internBenchShapes(b *testing.B, u *Universe) [][][2]ExprID {
	b.Helper()
	var ids []ExprID
	for _, name := range []string{"p", "q", "r", "s", "t", "u", "v", "w"} {
		id, ok := u.Root(name)
		if !ok {
			b.Fatalf("root %q missing", name)
		}
		ids = append(ids, id)
	}
	var shapes [][][2]ExprID
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if u.Exprs[ids[i]].Type != u.Exprs[ids[j]].Type {
				continue
			}
			shapes = append(shapes, [][2]ExprID{{ids[i], ids[j]}})
			for k := j + 1; k < len(ids); k++ {
				if u.Exprs[ids[j]].Type != u.Exprs[ids[k]].Type {
					continue
				}
				shapes = append(shapes, [][2]ExprID{{ids[i], ids[j]}, {ids[j], ids[k]}})
			}
		}
	}
	if len(shapes) < 8 {
		b.Fatalf("only %d shapes; bench universe too small", len(shapes))
	}
	return shapes
}

func internShape(u *Universe, shape [][2]ExprID) *Pisotype {
	tau := NewPisotype(u, nil)
	for _, e := range shape {
		tau.AddEq(e[0], e[1])
	}
	return tau
}

// BenchmarkInternerIntern measures the uncontended hot path: building and
// interning types from a small overlapping pool (steady-state is almost
// all hits, like the explorer re-encountering known constraint graphs).
func BenchmarkInternerIntern(b *testing.B) {
	u := benchUniverse(b)
	shapes := internBenchShapes(b, u)
	in := NewInterner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Intern(internShape(u, shapes[i%len(shapes)]))
	}
}
