package symbolic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// modFilter skips the recording of a deterministic fifth of the =- and
// ≠-edges, so the property test also covers the static-analysis paths.
type modFilter struct{}

func (modFilter) SkipEq(a, b ExprID) bool {
	a, b = min(a, b), max(a, b)
	return (int(a)*7+int(b)*13)%5 == 0
}

func (modFilter) SkipNeq(a, b ExprID) bool {
	a, b = min(a, b), max(a, b)
	return (int(a)*11+int(b)*3)%5 == 0
}

// refExtend is the fresh-allocation reference for typeArena.extend: one
// Clone per conjunct, deduplicated in conjunct order.
func refExtend(c *CompiledCond, tau *Pisotype) []*Pisotype {
	var out []*Pisotype
conjuncts:
	for _, conj := range c.Conjuncts {
		t := tau.Clone()
		for _, l := range conj {
			ok := false
			if l.Neq {
				ok = t.AddNeq(l.A, l.B)
			} else {
				ok = t.AddEq(l.A, l.B)
			}
			if !ok {
				continue conjuncts
			}
		}
		for _, prev := range out {
			if prev.Hash() == t.Hash() && prev.Equal(t) {
				continue conjuncts
			}
		}
		out = append(out, t)
	}
	return out
}

// sameType fails unless got matches the reference want in everything a
// search observes: the edge set, the hash, SizeBytes, the class records
// with their member order, the ≠-pairs and every expression's class.
func sameType(t *testing.T, what string, want, got *Pisotype) {
	t.Helper()
	if !want.Equal(got) || want.Hash() != got.Hash() || want.SizeBytes() != got.SizeBytes() {
		t.Fatalf("%s: got %s (h=%x sz=%d), want %s (h=%x sz=%d)", what,
			got, got.Hash(), got.SizeBytes(), want, want.Hash(), want.SizeBytes())
	}
	if len(want.classes) != len(got.classes) || !slices.Equal(want.neq, got.neq) {
		t.Fatalf("%s: %d classes and ≠-pairs %v, want %d and %v", what, len(got.classes), got.neq, len(want.classes), want.neq)
	}
	for i := range want.classes {
		w, g := want.classes[i], got.classes[i]
		w.off, g.off = 0, 0
		if w != g {
			t.Fatalf("%s: class record %d is %+v, want %+v", what, i, g, w)
		}
		if !slices.Equal(want.membersAt(w.rep, i), got.membersAt(g.rep, i)) {
			t.Fatalf("%s: class %d members %v, want %v", what, i, got.membersAt(g.rep, i), want.membersAt(w.rep, i))
		}
	}
	for e := range want.u.Exprs {
		if want.find(ExprID(e)) != got.find(ExprID(e)) {
			t.Fatalf("%s: expression %d in class %d, want %d", what, e, got.find(ExprID(e)), want.find(ExprID(e)))
		}
	}
}

// arenaCase draws random types and conditions over one task system's
// universe.
type arenaCase struct {
	r      *rand.Rand
	u      *Universe
	filter EdgeFilter
	// bySort lists the non-constant expressions of each sort, and roots
	// the variable roots of each sort.
	bySort map[string][]ExprID
	roots  map[string][]ExprID
	sorts  []string
}

func newArenaCase(u *Universe, filter EdgeFilter, seed int64) *arenaCase {
	c := &arenaCase{r: rand.New(rand.NewSource(seed)), u: u, filter: filter,
		bySort: map[string][]ExprID{}, roots: map[string][]ExprID{}}
	for _, e := range u.Exprs {
		if u.IsConstLike(e.ID) {
			continue
		}
		k := e.Type.String()
		if c.bySort[k] == nil {
			c.sorts = append(c.sorts, k)
		}
		c.bySort[k] = append(c.bySort[k], e.ID)
		if e.Kind == ERoot {
			c.roots[k] = append(c.roots[k], e.ID)
		}
	}
	return c
}

// lit draws a literal: mostly between expressions of one sort, sometimes
// against null or a constant, and rarely across sorts (which forces null).
func (c *arenaCase) lit() Lit {
	es := c.bySort[c.sorts[c.r.Intn(len(c.sorts))]]
	a, b := es[c.r.Intn(len(es))], es[c.r.Intn(len(es))]
	switch k := c.r.Intn(10); {
	case k == 0:
		b = c.u.NullExpr
	case k == 1:
		b = ExprID(c.r.Intn(len(c.u.Exprs)))
	case k == 2 && len(c.u.constByName) > 0:
		b = ExprID(1 + c.r.Intn(len(c.u.constByName)))
	}
	return Lit{A: a, B: b, Neq: c.r.Intn(3) == 0}
}

func (c *arenaCase) conjunct() []Lit {
	conj := make([]Lit, 1+c.r.Intn(4))
	for i := range conj {
		conj[i] = c.lit()
	}
	return conj
}

// typ builds a consistent random type by up to steps literals, skipping
// the ones that are inconsistent with it.
func (c *arenaCase) typ(steps int) *Pisotype {
	t := NewPisotype(c.u, c.filter)
	for i := 0; i < steps; i++ {
		l, backup := c.lit(), t.Clone()
		ok := false
		if l.Neq {
			ok = t.AddNeq(l.A, l.B)
		} else {
			ok = t.AddEq(l.A, l.B)
		}
		if !ok {
			t = backup
		}
	}
	return t
}

// cond draws a condition whose conjuncts include an inconsistent one and
// duplicates, so slots get reused after a failed or deduplicated
// extension, in front of the conjuncts that survive.
func (c *arenaCase) cond() *CompiledCond {
	first := c.conjunct()
	conjs := [][]Lit{
		first,
		{{A: first[0].A, B: first[0].B}, {A: first[0].A, B: first[0].B, Neq: true}},
		c.conjunct(),
		slices.Clone(first),
		{},
		c.conjunct(),
		{},
		c.conjunct(),
	}
	c.r.Shuffle(len(conjs)-1, func(i, j int) { conjs[i+1], conjs[j+1] = conjs[j+1], conjs[i+1] })
	return &CompiledCond{Conjuncts: conjs}
}

func (c *arenaCase) keep() []bool {
	keep := make([]bool, len(c.u.Exprs))
	for _, rs := range c.roots {
		for _, r := range rs {
			keep[r] = c.r.Intn(3) != 0
		}
	}
	return keep
}

func (c *arenaCase) pairs() []RootPair {
	rs := c.roots[c.sorts[c.r.Intn(len(c.sorts))]]
	for len(rs) < 2 {
		rs = c.roots[c.sorts[c.r.Intn(len(c.sorts))]]
	}
	ps := make([]RootPair, 1+c.r.Intn(3))
	for i := range ps {
		ps[i] = RootPair{From: rs[c.r.Intn(len(rs))], To: rs[c.r.Intn(len(rs))]}
	}
	return ps
}

// TestArenaMatchesFreshAllocation runs seeded random types and condition
// conjunct lists through the type arena and through a fresh-allocation
// reference, with one arena reused across every case: extension,
// projection, transport, retrieval merge and interning must agree in
// Equal, Hash, SizeBytes and member order, and interned types must keep
// nothing of the arena.
func TestArenaMatchesFreshAllocation(t *testing.T) {
	ts := memoSystems(t, false)[0]
	var a typeArena
	for _, filter := range []EdgeFilter{nil, modFilter{}} {
		c := newArenaCase(ts.U, filter, 1)
		inputs, in, refIn := NewInterner(), NewInterner(), NewInterner()
		type kept struct {
			rep   *Pisotype
			edges []uint64
			size  int
		}
		var reps []kept
		for i := 0; i < 300; i++ {
			what := fmt.Sprintf("filter %v case %d", filter != nil, i)
			tau := c.typ(c.r.Intn(12))
			if c.r.Intn(2) == 0 {
				// Interned inputs lend their sealed edge sets to clones.
				tau = inputs.Intern(tau)
			}
			cond := c.cond()
			want := refExtend(cond, tau)
			got := a.extend(cond, tau)
			if len(got) != len(want) || a.top != len(want) {
				t.Fatalf("%s: %d extensions (arena top %d), want %d", what, len(got), a.top, len(want))
			}
			for j := range want {
				sameType(t, fmt.Sprintf("%s extension %d", what, j), want[j], got[j])
			}
			for j := range want {
				keep := c.keep()
				p := a.project(got[j], keep)
				sameType(t, what+" projection", want[j].Project(func(r ExprID) bool { return keep[r] }), p)

				pairs := c.pairs()
				wantT := want[j].TransportProject(pairs)
				gotT := a.transportProject(got[j], pairs)
				if (wantT == nil) != (gotT == nil) {
					t.Fatalf("%s: transport consistent %v, want %v", what, gotT != nil, wantT != nil)
				}
				if wantT != nil {
					sameType(t, what+" transport", wantT, gotT)
					a.top--
				}

				src := got[c.r.Intn(len(got))]
				wantM := want[j].Clone()
				gotM := a.clone(got[j])
				okW, okG := wantM.MergeTransported(src, pairs), gotM.MergeTransported(src, pairs)
				if okW != okG {
					t.Fatalf("%s: merge consistent %v, want %v", what, okG, okW)
				}
				if okW {
					sameType(t, what+" merge", wantM, gotM)
					rep, wantRep := a.intern(in, gotM), refIn.Intern(wantM)
					sameType(t, what+" interned merge", wantRep, rep)
					reps = append(reps, kept{rep, slices.Clone(rep.Edges()), rep.SizeBytes()})
				}
				a.top--

				rep := a.intern(in, p)
				sameType(t, what+" interned projection", refIn.Intern(want[j].Project(func(r ExprID) bool { return keep[r] })), rep)
				reps = append(reps, kept{rep, slices.Clone(rep.Edges()), rep.SizeBytes()})
				sameType(t, what+" plain copy", want[j], a.intern(nil, got[j]))
				a.top--
			}
			a.top = 0
		}
		if in.Bytes() != refIn.Bytes() {
			t.Errorf("filter %v: arena interner holds %d bytes, fresh-allocation reference %d", filter != nil, in.Bytes(), refIn.Bytes())
		}
		for _, k := range reps {
			if !slices.Equal(k.rep.Edges(), k.edges) || k.rep.SizeBytes() != k.size || k.rep.Hash() != hashEdges(k.edges) {
				t.Fatalf("filter %v: an interned type changed after the arena was reused", filter != nil)
			}
		}
	}
}
