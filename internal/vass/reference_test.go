package vass

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// classicExplore is the classic Karp-Miller construction with
// acceleration (paper Algorithm 1), the oracle whose coverability set the
// pruned search must match up to covering: nothing is pruned, and a
// successor is dropped only when it repeats a state already in the tree
// (the "I″ ∈ T" test). Its work list, acceleration against every
// ancestor and budget check follow Explore's. It returns the states of
// all nodes, every one of which is active.
func classicExplore(sys System, maxStates int) ([]State, error) {
	type node struct {
		s      State
		parent int
	}
	var nodes []node
	seen := map[string]bool{}
	add := func(s State, parent int) bool {
		key := fmt.Sprint(s)
		if seen[key] {
			return false
		}
		seen[key] = true
		nodes = append(nodes, node{s: s, parent: parent})
		return true
	}
	var work []int
	for _, s := range sys.Initial() {
		if add(s, -1) {
			work = append(work, len(nodes)-1)
		}
	}
	for len(work) > 0 {
		if maxStates > 0 && len(nodes) > maxStates {
			return nil, ErrBudget
		}
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for _, sc := range sys.Successors(nodes[i].s) {
			s := sc.S
			for anc := i; anc >= 0; anc = nodes[anc].parent {
				if lifted, changed := sys.Accelerate(nodes[anc].s, s); changed {
					s = lifted
				}
			}
			if add(s, i) {
				work = append(work, len(nodes)-1)
			}
		}
	}
	states := make([]State, len(nodes))
	for i, n := range nodes {
		states[i] = n.s
	}
	return states, nil
}

// noAccel hides a system's acceleration (System.Accelerate may return
// its state unchanged), so the pruned search runs without ω and an
// unbounded system ends only at a budget or at its context.
type noAccel struct{ System }

func (noAccel) Accelerate(_, s State) (State, bool) { return s, false }

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
			for anc := n; anc != nil; anc = anc.Parent {
				if !anc.Active {
					continue
				}
				if lifted, changed := sys.Accelerate(anc.S, s); changed {
					s = lifted
					t.Accelerations++
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
		if !treesIdentical(t, ref, got) {
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
// and by counter sets, a quarter of them without acceleration, and on
// revivedVASS.
func TestQuickPruneMatchesReference(t *testing.T) {
	for _, sys := range []System{revivedVASS(), setVec{revivedVASS()}} {
		if ok, _ := matchesReference(t, sys, Options{}); !ok {
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
			accelerate := r.Intn(4) > 0
			opts := Options{MaxStates: 300}
			for _, sys := range []System{v, setVec{v}} {
				if !accelerate {
					sys = noAccel{sys}
				}
				ok, rev := matchesReference(t, sys, opts)
				revived += rev
				if !ok {
					t.Logf("%s VASS %+v, accelerate=%v, %+v", gen.name, v, accelerate, opts)
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
