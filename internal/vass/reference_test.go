package vass

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// referenceExplore is a literal Reynier-Servais construction, the
// specification Explore's pruning must match: every insertion scans every
// node, tests Leq on each and walks the ancestor chain, with no index, no
// killed-subtree shortcut and no early exit. Its work list, acceleration
// and budget check follow Explore's, so both build the same tree with the
// same node IDs. revived counts insertions whose own parent they
// deactivated, the path on which Explore revives a killed subtree.
func referenceExplore(sys System, opts Options) (t *Tree, revived int, err error) {
	t = &Tree{}
	var children [][]int
	var processed []bool
	var deactivate func(m *Node)
	deactivate = func(m *Node) {
		if m.Active {
			m.Active = false
			t.Pruned++
		}
		for _, c := range children[m.ID] {
			deactivate(t.Nodes[c])
		}
	}
	add := func(s State, label any, parent *Node) *Node {
		for _, m := range t.Nodes {
			if m.Active && sys.Leq(s, m.S) {
				t.Skipped++
				return nil
			}
		}
		for _, m := range t.Nodes {
			if sys.Leq(m.S, s) && (m.Active || parent == nil || !m.IsAncestorOf(parent)) {
				deactivate(m)
			}
		}
		n := &Node{S: s, Label: label, Parent: parent, Active: true, ID: len(t.Nodes)}
		t.Nodes = append(t.Nodes, n)
		children = append(children, nil)
		processed = append(processed, false)
		t.Created++
		if parent == nil {
			t.Roots = append(t.Roots, n)
		} else {
			children[parent.ID] = append(children[parent.ID], n.ID)
			if !parent.Active {
				revived++
			}
		}
		return n
	}
	var work []*Node
	for _, s := range sys.Initial() {
		if n := add(s, nil, nil); n != nil {
			work = append(work, n)
		}
	}
	for len(work) > 0 {
		if opts.MaxStates > 0 && t.Created > opts.MaxStates {
			return t, revived, ErrBudget
		}
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if !n.Active || processed[n.ID] {
			continue
		}
		processed[n.ID] = true
		for _, sc := range sys.Successors(n.S) {
			if !n.Active {
				break
			}
			s := sc.S
			if opts.Accelerate {
				for anc := n; anc != nil; anc = anc.Parent {
					if !anc.Active {
						continue
					}
					if lifted, changed := sys.Accelerate(anc.S, s); changed {
						s = lifted
						t.Accelerations++
					}
				}
			}
			if c := add(s, sc.Label, n); c != nil {
				work = append(work, c)
			}
		}
	}
	return t, revived, nil
}

// dominatingVASS generates a small random VASS whose successors often
// dominate their own parent: the initial location forks into several
// branches with zero deltas, and the branches share locations whose
// transitions mostly add a unit to one counter. Such an insertion
// deactivates its parent's subtree and then attaches below it, reviving a
// killed subtree, and a later insertion from another branch may kill it
// again through an inactive dominated node.
func dominatingVASS(r *rand.Rand) *Vec {
	locs := 3 + r.Intn(2)
	dim := 2 + r.Intn(2)
	v := &Vec{Dim: dim, Init: VConfig{Loc: 0, C: make([]Count, dim)}}
	for i := 2 + r.Intn(2); i > 0; i-- {
		v.Trans = append(v.Trans, VTrans{From: 0, To: 1 + r.Intn(locs-1), Delta: make([]Count, dim)})
	}
	for i := 2 + r.Intn(4); i > 0; i-- {
		d := make([]Count, dim)
		d[r.Intn(dim)] = 1
		if r.Intn(3) == 0 {
			d[r.Intn(dim)] = -1
		}
		v.Trans = append(v.Trans, VTrans{From: 1 + r.Intn(locs-1), To: 1 + r.Intn(locs-1), Delta: d})
	}
	return v
}

// revivedVASS is a small case of what dominatingVASS aims at. From the
// root, a = (0,0)@1 is processed before q = (0,0)@2, and a's child
// p = (0,0)@3 yields (1,0)@1, lifted against a to s = (ω,0)@1. Inserting
// s kills a's subtree, p with it, and attaching s below p revives both.
// Then q's successor (0,1)@1 dominates the inactive a, which is not its
// ancestor, so a's subtree, s with it, goes inactive, and q's next
// successor (1,0)@1, covered only by s, must be created, not skipped.
func revivedVASS() *Vec {
	return &Vec{Dim: 2, Init: VConfig{Loc: 0, C: []Count{0, 0}}, Trans: []VTrans{
		{From: 0, To: 2, Delta: []Count{0, 0}}, // q
		{From: 0, To: 1, Delta: []Count{0, 0}}, // a
		{From: 1, To: 3, Delta: []Count{0, 0}}, // p
		{From: 3, To: 1, Delta: []Count{1, 0}}, // s
		{From: 2, To: 1, Delta: []Count{0, 1}},
		{From: 2, To: 1, Delta: []Count{1, 0}},
	}}
}

// setVec indexes a Vec's counters, so the index's inverted lists and
// trie get real sets instead of one empty set per location. The set of a
// configuration holds (d, t) for each counter d ≤ t < setVecDepth; a
// larger configuration has fewer such pairs, as System.IndexSet requires.
type setVec struct{ *Vec }

const setVecDepth = 3

func (v setVec) IndexSet(s State) (uint64, []uint64) {
	c := s.(VConfig)
	var set []uint64
	for d, x := range c.C {
		for t := Count(0); t < setVecDepth; t++ {
			if x <= t {
				set = append(set, uint64(d*setVecDepth)+uint64(t))
			}
		}
	}
	return uint64(c.Loc), set
}

// matchesReference explores sys with the index and without it and
// reports whether both trees equal the reference construction's.
func matchesReference(t *testing.T, sys System, opts Options) (ok bool, revived int) {
	t.Helper()
	ref, revived, refErr := referenceExplore(sys, opts)
	for _, useIndex := range []bool{false, true} {
		o := opts
		o.UseIndex = useIndex
		got, err := Explore(sys, o)
		if !errors.Is(err, refErr) {
			t.Logf("UseIndex=%v: error %v, reference %v", useIndex, err, refErr)
			return false, revived
		}
		if !treesIdentical(t, sys, ref, got) {
			t.Logf("UseIndex=%v, %T: tree differs from the reference", useIndex, sys)
			return false, revived
		}
	}
	return true, revived
}

// Property: Explore, with the index and without it, builds exactly the
// tree of the literal reference construction — node IDs, parents,
// labels, Active flags and every counter — on random VASS, both those of
// randomVASS and those of dominatingVASS, each indexed by location alone
// and by counter sets, and on revivedVASS.
func TestQuickPruneMatchesReference(t *testing.T) {
	for _, sys := range []System{revivedVASS(), setVec{revivedVASS()}} {
		if ok, _ := matchesReference(t, sys, Options{Prune: true, Accelerate: true}); !ok {
			t.Errorf("%T: revivedVASS differs from the reference", sys)
		}
	}
	revived := 0
	for _, gen := range []struct {
		name string
		vass func(*rand.Rand) *Vec
	}{{"random", randomVASS}, {"dominating", dominatingVASS}} {
		check := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			v := gen.vass(r)
			opts := Options{Prune: true, Accelerate: r.Intn(4) > 0, MaxStates: 300}
			for _, sys := range []System{v, setVec{v}} {
				ok, rev := matchesReference(t, sys, opts)
				revived += rev
				if !ok {
					t.Logf("%s VASS %+v, %+v", gen.name, v, opts)
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
			t.Error(err)
		}
	}
	if revived == 0 {
		t.Error("no insertion deactivated its own parent: the revival path went untested")
	}
}
