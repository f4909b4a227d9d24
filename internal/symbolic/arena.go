package symbolic

import "sync"

// scratch is the reusable per-call working set of successor generation:
// the dedup map (hash -> indices into out) and the growing output buffer
// of Successors, and the type arena in which a memoized computation
// builds its intermediate types. Pooling it removes the dominant
// allocations of the memo-miss path; sync.Pool keeps the reuse safe when
// verifications run concurrently, since each caller holds its own.
type scratch struct {
	seen  map[uint64][]int32
	out   []Succ
	arena typeArena
}

var scratchPool = sync.Pool{
	New: func() any { return &scratch{seen: make(map[uint64][]int32, 32)} },
}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// put returns the scratch to the pool, dropping the references it
// accumulated so pooled buffers do not pin dead states or universes.
func (s *scratch) put() {
	for i := range s.out {
		s.out[i] = Succ{}
	}
	s.out = s.out[:0]
	clear(s.seen)
	for _, t := range s.arena.slots {
		t.u, t.filter, t.canon = nil, nil, nil
	}
	s.arena.top = 0
	scratchPool.Put(s)
}

// typeArena hands out reusable scratch types for the transient types of
// a memoized computation: the pre-extensions, the ȳ projection, the
// post-extensions, the final projection, the inserted tuple type and the
// retrieval merge. Only the interned outputs need memory of their own;
// Interner.InternCopy clones an arena type when it is the first of its
// class. Types are taken in stack order: a computation notes top, takes
// types, and sets top back to release them. An arena type must not
// outlive its release, and no arena type may leave the computation.
type typeArena struct {
	slots []*Pisotype
	// edges holds, per slot, the reusable buffer of the slot's sealed
	// edge set (see seal).
	edges [][]uint64
	top   int
}

// take returns the next free arena type, in an unspecified state.
func (a *typeArena) take() *Pisotype {
	if a.top == len(a.slots) {
		a.slots = append(a.slots, &Pisotype{})
		a.edges = append(a.edges, nil)
	}
	t := a.slots[a.top]
	a.top++
	return t
}

// seal computes the edge set and hash of the arena type t into its
// slot's buffer, unless t already has them. A type cloned from t shares
// that buffer, so t must not be written while its clones are in use.
func (a *typeArena) seal(t *Pisotype) {
	if t.canon != nil {
		return
	}
	for i := a.top - 1; i >= 0; i-- {
		if a.slots[i] == t {
			a.edges[i] = t.seal(a.edges[i])
			return
		}
	}
	panic("symbolic: sealing a type outside the arena")
}

// clone returns an arena copy of t.
func (a *typeArena) clone(t *Pisotype) *Pisotype {
	c := a.take()
	t.cloneInto(c)
	return c
}

// project returns the projection of t onto the roots keep marks, by
// expression, as an arena type.
func (a *typeArena) project(t *Pisotype, keep []bool) *Pisotype {
	p := a.take()
	t.projectInto(p, keep)
	return p
}

// transportProject returns t.TransportProject(pairs) as an arena type,
// or nil (taking nothing) when it is inconsistent.
func (a *typeArena) transportProject(t *Pisotype, pairs []RootPair) *Pisotype {
	p := a.take()
	if !t.transportProjectInto(p, pairs) {
		a.top--
		return nil
	}
	return p
}

// intern seals the arena type t and returns its representative in in,
// never retaining t (see Interner.InternCopy).
func (a *typeArena) intern(in *Interner, t *Pisotype) *Pisotype {
	a.seal(t)
	return in.InternCopy(t)
}

// internProjection returns the representative in in of t's projection
// onto the roots keep marks, building the projection in the arena.
func (a *typeArena) internProjection(in *Interner, t *Pisotype, keep []bool) *Pisotype {
	rep := a.intern(in, a.project(t, keep))
	a.top--
	return rep
}

// extend returns the minimal extensions of tau satisfying the condition:
// one consistent arena type per DNF conjunct, in conjunct order,
// deduplicated. Witness constraints are included; callers project
// witnesses away afterwards. An empty result means the condition is
// unsatisfiable in tau. The result stays valid until its types are
// released.
func (a *typeArena) extend(c *CompiledCond, tau *Pisotype) []*Pisotype {
	mark := a.top
conjuncts:
	for _, conj := range c.Conjuncts {
		t := a.clone(tau)
		for _, l := range conj {
			ok := false
			if l.Neq {
				ok = t.AddNeq(l.A, l.B)
			} else {
				ok = t.AddEq(l.A, l.B)
			}
			if !ok {
				a.top--
				continue conjuncts
			}
		}
		a.seal(t)
		h := t.Hash()
		for _, prev := range a.slots[mark : a.top-1] {
			if prev.Hash() == h && prev.Equal(t) {
				a.top--
				continue conjuncts
			}
		}
	}
	return a.slots[mark:a.top:a.top]
}
