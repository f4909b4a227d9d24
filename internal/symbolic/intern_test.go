package symbolic

import (
	"sync"
	"testing"

	"verifas/internal/workflows"
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

// memoSystems compiles two tasks of the paper's running example with an
// interner attached: ProcessOrders inserts into and retrieves from its
// artifact relation and opens and closes children; TakeOrder closes
// itself.
func memoSystems(t *testing.T, interner bool) []*TaskSystem {
	t.Helper()
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	var out []*TaskSystem
	for _, name := range []string{"ProcessOrders", "TakeOrder"} {
		task, ok := sys.Task(name)
		if !ok {
			t.Fatalf("no task %s", name)
		}
		ts, err := CompileTask(sys, task, PropertyBinding{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if interner {
			ts.SetInterner(NewInterner())
		}
		out = append(out, ts)
	}
	return out
}

// succPool collects up to limit distinct PSIs reachable from the initial
// states, breadth first.
func succPool(ts *TaskSystem, limit int) []*PSI {
	var pool []*PSI
	seen := map[uint64][]*PSI{}
	add := func(p *PSI) {
		for _, q := range seen[p.Key()] {
			if q.Equal(p) {
				return
			}
		}
		seen[p.Key()] = append(seen[p.Key()], p)
		pool = append(pool, p)
	}
	for _, p := range ts.Initial() {
		add(p)
	}
	for i := 0; i < len(pool) && len(pool) < limit; i++ {
		for _, s := range ts.Successors(pool[i]) {
			add(s.Next)
		}
	}
	if len(pool) > limit {
		pool = pool[:limit]
	}
	return pool
}

func sameSuccs(t *testing.T, what string, a, b []Succ) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d successors, want %d", what, len(b), len(a))
	}
	for i := range a {
		if a[i].Ref != b[i].Ref || a[i].Closing != b[i].Closing || a[i].Next.Mask != b[i].Next.Mask ||
			!a[i].Next.Tau.Equal(b[i].Next.Tau) || !a[i].Next.Equal(b[i].Next) {
			t.Fatalf("%s: successor %d differs: %v %v vs %v %v", what, i, a[i].Ref, a[i].Next, b[i].Ref, b[i].Next)
		}
	}
}

// TestSuccessorMemoTransparent checks that the successor-type memo is
// invisible: Successors gives the same transitions on a cold memo, on a
// warm memo and without an interner, cold and warm types are the same
// pointers, and a warm pass interns nothing new.
func TestSuccessorMemoTransparent(t *testing.T) {
	plain := memoSystems(t, false)
	kinds := map[ServiceKind]bool{}
	names := map[string]bool{}
	for k, ts := range memoSystems(t, true) {
		in := ts.Interner()
		pool := succPool(ts, 300)
		cold := make([][]Succ, len(pool))
		for i, p := range pool {
			clear(in.memo)
			cold[i] = ts.Successors(p)
			for _, s := range cold[i] {
				kinds[s.Ref.Kind] = true
				names[s.Ref.Name] = true
			}
		}
		for _, p := range pool {
			ts.Successors(p) // fill the memo
		}
		n, bytes := in.Len(), in.Bytes()
		for i, p := range pool {
			warm := ts.Successors(p)
			sameSuccs(t, "warm", cold[i], warm)
			for j := range warm {
				a, b := cold[i][j].Next, warm[j].Next
				if a.Tau != b.Tau {
					t.Fatalf("state %d successor %d: warm type is not the cold pointer", i, j)
				}
				for r := range a.Bags {
					for x := range a.Bags[r].Items {
						if a.Bags[r].Items[x].Type != b.Bags[r].Items[x].Type {
							t.Fatalf("state %d successor %d: warm bag type is not the cold pointer", i, j)
						}
					}
				}
			}
			sameSuccs(t, "no interner", cold[i], plain[k].Successors(p))
		}
		if in.Len() != n || in.Bytes() != bytes {
			t.Errorf("%s: warm pass changed the intern table: %d types / %d B, was %d / %d",
				ts.Task.Name, in.Len(), in.Bytes(), n, bytes)
		}
	}
	for _, k := range []ServiceKind{SvcInternal, SvcCloseSelf, SvcOpenChild, SvcCloseChild} {
		if !kinds[k] {
			t.Errorf("pool never takes a transition of kind %d", k)
		}
	}
	for _, name := range []string{"StoreOrder", "RetrieveOrder"} {
		if !names[name] {
			t.Errorf("pool never calls %s", name)
		}
	}
}

// TestSuccessorMemoConcurrent runs Successors on one task system from
// several goroutines at once: the memo must stay race-free and every
// goroutine must see the same interned successor types.
func TestSuccessorMemoConcurrent(t *testing.T) {
	ts := memoSystems(t, true)[0]
	pool := succPool(ts, 200)
	clear(ts.Interner().memo)
	const goroutines = 4
	results := make([][][]Succ, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, p := range pool {
				results[g] = append(results[g], ts.Successors(p))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range pool {
			sameSuccs(t, "concurrent", results[0][i], results[g][i])
			for j := range results[0][i] {
				if results[0][i][j].Next.Tau != results[g][i][j].Next.Tau {
					t.Fatalf("goroutine %d state %d successor %d: different interned type", g, i, j)
				}
			}
		}
	}
}
