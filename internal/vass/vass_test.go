package vass

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// simpleLoop: one location, one transition adding 1 to the only counter.
// Coverability set must be {(0, ω)} (after acceleration).
func TestAccelerationToOmega(t *testing.T) {
	v := &Vec{
		Dim:   1,
		Init:  VConfig{Loc: 0, C: []Count{0}},
		Trans: []VTrans{{From: 0, To: 0, Delta: []Count{1}}},
	}
	tree, err := Explore(v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	act := tree.Active()
	foundOmega := false
	for _, n := range act {
		c := n.S.(VConfig)
		if c.C[0] == VOmega {
			foundOmega = true
		}
	}
	if !foundOmega {
		t.Errorf("expected ω in the coverability set, got %d active nodes", len(act))
	}
	if tree.Accelerations == 0 {
		t.Error("acceleration never fired")
	}
}

func TestClassicTerminatesWithAcceleration(t *testing.T) {
	// Producer/consumer: t0 produces, t1 consumes; classic KM with
	// acceleration must terminate.
	v := &Vec{
		Dim:  1,
		Init: VConfig{Loc: 0, C: []Count{0}},
		Trans: []VTrans{
			{From: 0, To: 0, Delta: []Count{1}},
			{From: 0, To: 1, Delta: []Count{0}},
			{From: 1, To: 1, Delta: []Count{-1}},
		},
	}
	states, err := classicExplore(v, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 {
		t.Fatal("no nodes")
	}
}

func TestCounterNonNegativity(t *testing.T) {
	v := &Vec{
		Dim:   1,
		Init:  VConfig{Loc: 0, C: []Count{0}},
		Trans: []VTrans{{From: 0, To: 0, Delta: []Count{-1}}},
	}
	tree, err := Explore(v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Nodes) != 1 {
		t.Errorf("decrement from zero must be disabled; got %d nodes", len(tree.Nodes))
	}
}

// randomVASS generates a small random VASS.
func randomVASS(r *rand.Rand) *Vec {
	locs := 1 + r.Intn(3)
	dim := 1 + r.Intn(2)
	nt := 1 + r.Intn(5)
	v := &Vec{Dim: dim, Init: VConfig{Loc: 0, C: make([]Count, dim)}}
	for i := 0; i < nt; i++ {
		d := make([]Count, dim)
		for j := range d {
			d[j] = Count(r.Intn(3) - 1)
		}
		v.Trans = append(v.Trans, VTrans{From: r.Intn(locs), To: r.Intn(locs), Delta: d})
	}
	return v
}

func covers(v *Vec, act []*Node, c State) bool {
	for _, n := range act {
		if v.Leq(c, n.S) {
			return true
		}
	}
	return false
}

// Property: the pruned coverability set covers every bounded-reachable
// configuration.
func TestQuickCoverabilityComplete(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomVASS(r)
		tree, err := Explore(v, Options{MaxStates: 5000})
		if err != nil {
			return true // budget blowup; skip
		}
		act := tree.Active()
		for _, c := range v.BoundedReach(4) {
			if !covers(v, act, c) {
				t.Logf("reachable %v not covered (VASS %+v)", c, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: pruned and classic construction have equal downward closures
// (every active node of one is covered by an active node of the other).
func TestQuickPrunedEquivalentToClassic(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomVASS(r)
		tp, err1 := Explore(v, Options{MaxStates: 5000})
		actC, err2 := classicExplore(v, 5000)
		if err1 != nil || err2 != nil {
			return true
		}
		actP := tp.Active()
		for _, n := range actP {
			if !slices.ContainsFunc(actC, func(c State) bool { return v.Leq(n.S, c) }) {
				t.Logf("pruned node %v not covered by classic", n.S)
				return false
			}
		}
		for _, c := range actC {
			if !covers(v, actP, c) {
				t.Logf("classic node %v not covered by pruned", c)
				return false
			}
		}
		if len(actP) > len(actC) {
			t.Logf("pruned set larger than classic: %d > %d", len(actP), len(actC))
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// treesIdentical asserts that two exploration results are byte-for-byte
// the same tree: node count, per-node ID/label/parent/active flag/state,
// root order, stop flag and every stats counter.
func treesIdentical(t *testing.T, a, b *Tree) bool {
	t.Helper()
	if len(a.Nodes) != len(b.Nodes) {
		t.Logf("node counts differ: %d vs %d", len(a.Nodes), len(b.Nodes))
		return false
	}
	for i := range a.Nodes {
		na, nb := a.Nodes[i], b.Nodes[i]
		if na.ID != nb.ID || na.Label != nb.Label || na.Active != nb.Active {
			t.Logf("node %d differs: id=%d/%d label=%v/%v active=%v/%v",
				i, na.ID, nb.ID, na.Label, nb.Label, na.Active, nb.Active)
			return false
		}
		if (na.Parent == nil) != (nb.Parent == nil) {
			t.Logf("node %d parent presence differs", i)
			return false
		}
		if na.Parent != nil && na.Parent.ID != nb.Parent.ID {
			t.Logf("node %d parent differs: %d vs %d", i, na.Parent.ID, nb.Parent.ID)
			return false
		}
		if !reflect.DeepEqual(na.S, nb.S) {
			t.Logf("node %d state differs: %v vs %v", i, na.S, nb.S)
			return false
		}
	}
	if len(a.Roots) != len(b.Roots) {
		t.Logf("root counts differ: %d vs %d", len(a.Roots), len(b.Roots))
		return false
	}
	for i := range a.Roots {
		if a.Roots[i].ID != b.Roots[i].ID {
			t.Logf("root %d differs: %d vs %d", i, a.Roots[i].ID, b.Roots[i].ID)
			return false
		}
	}
	if a.Stopped != b.Stopped || a.Created != b.Created || a.Pruned != b.Pruned ||
		a.Skipped != b.Skipped || a.Accelerations != b.Accelerations {
		t.Logf("stats differ: %+v vs %+v",
			[5]any{a.Stopped, a.Created, a.Pruned, a.Skipped, a.Accelerations},
			[5]any{b.Stopped, b.Created, b.Pruned, b.Skipped, b.Accelerations})
		return false
	}
	return true
}

// Property: the index only prefilters candidates, so with it the
// exploration builds exactly the tree it builds without it. Vec's class
// is the location, so the per-class split is exercised.
func TestQuickIndexTransparent(t *testing.T) {
	base := Options{MaxStates: 5000}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomVASS(r)
		scan, err1 := Explore(v, base)
		indexed := base
		indexed.UseIndex = true
		got, err2 := Explore(v, indexed)
		if !errors.Is(err1, err2) && !errors.Is(err2, err1) {
			t.Logf("errors differ: %v vs %v", err1, err2)
			return false
		}
		if !treesIdentical(t, scan, got) {
			t.Logf("indexed tree differs (VASS %+v)", v)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// bruteCoverEdges is the reference coverability graph: every (successor,
// node) pair tested with Leq, in successor order and ascending node
// order.
func bruteCoverEdges(sys System, nodes []*Node) [][]coverEdge {
	out := make([][]coverEdge, len(nodes))
	for i, nd := range nodes {
		for _, sc := range sys.Successors(nd.S) {
			for j, cand := range nodes {
				if sys.Leq(sc.S, cand.S) {
					out[i] = append(out[i], coverEdge{to: j, label: sc.Label})
				}
			}
		}
	}
	return out
}

// bruteCycleNodes marks node i cyclic when it reaches itself through one
// or more edges of the reference graph.
func bruteCycleNodes(nodes []*Node, edges [][]coverEdge) map[*Node]bool {
	out := map[*Node]bool{}
	for i := range nodes {
		seen := make([]bool, len(nodes))
		stack := []int{i}
		for len(stack) > 0 && !out[nodes[i]] {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range edges[cur] {
				if e.to == i {
					out[nodes[i]] = true
				}
				if !seen[e.to] {
					seen[e.to] = true
					stack = append(stack, e.to)
				}
			}
		}
	}
	return out
}

// Property: the coverability graph built from an indexed tree and the one
// built from an unindexed tree of the same VASS both have exactly the
// edges of the all-pairs reference, in the same order, so the cycle nodes
// and every witness lasso agree with it and with each other. Vec indexes
// empty sets and setVec real ones, so the index's candidates are
// filtered by set inclusion too.
func TestQuickCoverGraphMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomVASS(r)
		for _, sys := range []System{v, setVec{v}} {
			indexedTree, err := Explore(sys, Options{UseIndex: true, MaxStates: 5000})
			if err != nil {
				return true // budget blowup; skip
			}
			scanTree, err := Explore(sys, Options{MaxStates: 5000})
			if err != nil {
				t.Logf("%T: unindexed search failed: %v", sys, err)
				return false
			}
			act, scanAct := indexedTree.Active(), scanTree.Active()
			ref := bruteCoverEdges(sys, act)
			refCyc := bruteCycleNodes(act, ref)
			indexed, scan := indexedTree.CoverGraph(sys), scanTree.CoverGraph(sys)
			for _, g := range []*CoverGraph{indexed, scan} {
				if !reflect.DeepEqual(g.out, ref) {
					t.Logf("%T: edges differ from the reference (VASS %+v)", sys, v)
					return false
				}
			}
			if cyc := indexed.CycleNodes(); !reflect.DeepEqual(cyc, refCyc) {
				t.Logf("%T: cycle nodes %d, reference %d (VASS %+v)", sys, len(cyc), len(refCyc), v)
				return false
			}
			scanCyc := scan.CycleNodes()
			if len(scanCyc) != len(refCyc) {
				t.Logf("%T: unindexed cycle nodes %d, reference %d", sys, len(scanCyc), len(refCyc))
				return false
			}
			for i, n := range act {
				w := indexed.CycleWitness(n)
				if refCyc[n] != (w != nil) || scanCyc[scanAct[i]] != refCyc[n] {
					t.Logf("%T: node %v: witness %v, on a cycle %v", sys, n.S, w, refCyc[n])
					return false
				}
				if !reflect.DeepEqual(w, scan.CycleWitness(scanAct[i])) {
					t.Logf("%T: node %v: witnesses differ", sys, n.S)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCycleNodes(t *testing.T) {
	// loc0 -> loc1 -> loc2 -> loc1 (cycle on 1,2); loc0 not on a cycle.
	v := &Vec{
		Dim:  1,
		Init: VConfig{Loc: 0, C: []Count{0}},
		Trans: []VTrans{
			{From: 0, To: 1, Delta: []Count{0}},
			{From: 1, To: 2, Delta: []Count{0}},
			{From: 2, To: 1, Delta: []Count{0}},
		},
	}
	tree, err := Explore(v, Options{UseIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	act := tree.Active()
	g := tree.CoverGraph(v)
	cyc := g.CycleNodes()
	for _, n := range act {
		c := n.S.(VConfig)
		in := cyc[n]
		if c.Loc == 0 && in {
			t.Error("loc0 must not be on a cycle")
		}
		if (c.Loc == 1 || c.Loc == 2) && !in {
			t.Errorf("loc%d should be on a cycle", c.Loc)
		}
	}
	// A witness exists for a cyclic node.
	for _, n := range act {
		if cyc[n] {
			if w := g.CycleWitness(n); len(w) == 0 {
				t.Error("no cycle witness found")
			}
		}
	}
}

func TestCycleSelfLoop(t *testing.T) {
	v := &Vec{
		Dim:   1,
		Init:  VConfig{Loc: 0, C: []Count{0}},
		Trans: []VTrans{{From: 0, To: 0, Delta: []Count{0}}},
	}
	tree, _ := Explore(v, Options{UseIndex: true})
	act := tree.Active()
	g := tree.CoverGraph(v)
	if len(g.CycleNodes()) == 0 {
		t.Error("self-loop must be detected as a cycle")
	}
	if w := g.CycleWitness(act[0]); len(w) != 1 {
		t.Errorf("self-loop witness should have length 1, got %v", w)
	}
}

func TestNoCycle(t *testing.T) {
	// Terminating chain: 0 -> 1 with a consumable token.
	v := &Vec{
		Dim:   1,
		Init:  VConfig{Loc: 0, C: []Count{1}},
		Trans: []VTrans{{From: 0, To: 1, Delta: []Count{-1}}},
	}
	tree, _ := Explore(v, Options{UseIndex: true})
	cyc := tree.CoverGraph(v).CycleNodes()
	if len(cyc) != 0 {
		t.Error("acyclic system must have no cycle nodes")
	}
}

// Omega pumping: a loop that increments a counter and an accepting branch
// consuming from it must yield a cycle through the omega node.
func TestOmegaCycle(t *testing.T) {
	v := &Vec{
		Dim:  1,
		Init: VConfig{Loc: 0, C: []Count{0}},
		Trans: []VTrans{
			{From: 0, To: 0, Delta: []Count{1}},
		},
	}
	tree, _ := Explore(v, Options{UseIndex: true})
	cyc := tree.CoverGraph(v).CycleNodes()
	found := false
	for n := range cyc {
		if n.S.(VConfig).C[0] == VOmega {
			found = true
		}
	}
	if !found {
		t.Error("omega node should lie on a cycle")
	}
}

func TestBudget(t *testing.T) {
	// Unbounded growth without acceleration must hit the budget.
	v := &Vec{
		Dim:   1,
		Init:  VConfig{Loc: 0, C: []Count{0}},
		Trans: []VTrans{{From: 0, To: 0, Delta: []Count{1}}},
	}
	_, err := Explore(noAccel{v}, Options{MaxStates: 100})
	if err != ErrBudget {
		t.Errorf("expected ErrBudget, got %v", err)
	}
}

func TestPathAndAncestors(t *testing.T) {
	v := &Vec{
		Dim:  1,
		Init: VConfig{Loc: 0, C: []Count{0}},
		Trans: []VTrans{
			{From: 0, To: 1, Delta: []Count{0}},
			{From: 1, To: 2, Delta: []Count{0}},
		},
	}
	tree, _ := Explore(v, Options{})
	var leaf *Node
	for _, n := range tree.Nodes {
		if n.S.(VConfig).Loc == 2 {
			leaf = n
		}
	}
	if leaf == nil {
		t.Fatal("loc2 not reached")
	}
	path := leaf.Path()
	if len(path) != 3 {
		t.Fatalf("path length = %d, want 3", len(path))
	}
	if !path[0].IsAncestorOf(leaf) || leaf.IsAncestorOf(path[0]) {
		t.Error("ancestor relation wrong")
	}
}
