package vass

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// sizedVec wraps Vec with a fixed per-state estimate so tests can verify
// the Sized fast path of the memory accounting.
type sizedVec struct {
	*Vec
	perState int
}

func (s *sizedVec) StateBytes(State) int { return s.perState }

func TestMemBytesAccounting(t *testing.T) {
	v := &Vec{
		Dim:  1,
		Init: VConfig{Loc: 0, C: []Count{1}},
		Trans: []VTrans{
			{From: 0, To: 1, Delta: []Count{0}},
			{From: 1, To: 2, Delta: []Count{-1}},
		},
	}
	tree, err := Explore(v, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Vec does not implement Sized: each node costs the fallback estimate.
	want := int64(len(tree.Nodes)) * (nodeOverheadBytes + defaultStateBytes)
	if tree.MemBytes != want {
		t.Errorf("MemBytes = %d, want %d (%d nodes)", tree.MemBytes, want, len(tree.Nodes))
	}

	sized := &sizedVec{Vec: v, perState: 1000}
	tree2, err := Explore(sized, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want2 := int64(len(tree2.Nodes)) * (nodeOverheadBytes + 1000)
	if tree2.MemBytes != want2 {
		t.Errorf("sized MemBytes = %d, want %d", tree2.MemBytes, want2)
	}
}

func TestMemBudgetExhausted(t *testing.T) {
	// Unbounded growth without acceleration must hit the memory budget
	// well before the (absent) state budget.
	v := &Vec{
		Dim:   1,
		Init:  VConfig{Loc: 0, C: []Count{0}},
		Trans: []VTrans{{From: 0, To: 0, Delta: []Count{1}}},
	}
	tree, err := Explore(noAccel{v}, Options{
		MaxStates: 1 << 30, MaxMemBytes: 10 * (nodeOverheadBytes + defaultStateBytes)})
	if err != ErrMemBudget {
		t.Fatalf("expected ErrMemBudget, got %v", err)
	}
	// The partial tree is returned for partial stats.
	if tree == nil || len(tree.Nodes) == 0 {
		t.Fatal("no partial tree on the budget path")
	}
	if tree.MemBytes <= 0 {
		t.Error("partial tree reports no MemBytes")
	}
}

func TestMemBudgetCountsMemExtra(t *testing.T) {
	v := &Vec{
		Dim:   1,
		Init:  VConfig{Loc: 0, C: []Count{0}},
		Trans: []VTrans{{From: 0, To: 0, Delta: []Count{1}}},
	}
	// A MemExtra larger than the budget must trip it immediately even
	// though the tree itself is tiny.
	_, err := Explore(v, Options{
		MaxMemBytes: 1 << 20, MemExtra: func() int64 { return 2 << 20 }})
	if err != ErrMemBudget {
		t.Fatalf("expected ErrMemBudget via MemExtra, got %v", err)
	}
	// Same budget without the extra completes.
	if _, err := Explore(v, Options{MaxMemBytes: 1 << 20}); err != nil {
		t.Fatalf("budget without MemExtra should pass: %v", err)
	}
}

func TestZeroMemBudgetUnlimited(t *testing.T) {
	v := &Vec{
		Dim:   1,
		Init:  VConfig{Loc: 0, C: []Count{0}},
		Trans: []VTrans{{From: 0, To: 0, Delta: []Count{1}}},
	}
	if _, err := Explore(v, Options{MaxMemBytes: 0}); err != nil {
		t.Fatalf("zero budget must mean unlimited: %v", err)
	}
}

// wideLoop is an infinite system with high branching: every transition
// bumps a different counter pair, so without acceleration the search
// never ends.
func wideLoop() *Vec {
	const dim = 4
	v := &Vec{Dim: dim, Init: VConfig{Loc: 0, C: make([]Count, dim)}}
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			d := make([]Count, dim)
			d[i]++
			d[j]++
			v.Trans = append(v.Trans, VTrans{From: 0, To: 0, Delta: d})
		}
	}
	return v
}

// TestMemBudgetBounded checks that ErrMemBudget fires close to the limit:
// the committed tree may overshoot by at most one node's successor batch.
func TestMemBudgetBounded(t *testing.T) {
	const limit = 64_000
	// One processed node commits at most 16 successors (the branching of
	// wideLoop) between budget checks.
	const slack = 16 * (nodeOverheadBytes + defaultStateBytes)
	tree, err := Explore(noAccel{wideLoop()}, Options{MaxMemBytes: limit})
	if !errors.Is(err, ErrMemBudget) {
		t.Fatalf("got %v, want ErrMemBudget", err)
	}
	if tree.MemBytes > limit+slack {
		t.Errorf("committed %d bytes, limit %d (+%d slack): budget enforced too late",
			tree.MemBytes, limit, slack)
	}
}

// TestChildLinks verifies the intrusive child list of the arena nodes:
// walking firstChild/nextSibling must enumerate exactly the nodes whose
// Parent pointer names the walked node, in creation order.
func TestChildLinks(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		v := randomVASS(r)
		tree, err := Explore(v, Options{MaxStates: 5000})
		if err != nil {
			continue
		}
		byParent := make(map[*Node][]*Node)
		for _, n := range tree.Nodes {
			if n.Parent != nil {
				byParent[n.Parent] = append(byParent[n.Parent], n)
			}
		}
		for _, n := range tree.Nodes {
			var walked []*Node
			for cid := n.firstChild; cid >= 0; cid = tree.Nodes[cid].nextSibling {
				walked = append(walked, tree.Nodes[cid])
			}
			want := byParent[n]
			if len(walked) != len(want) {
				t.Fatalf("trial %d: node %d has %d linked children, want %d",
					trial, n.ID, len(walked), len(want))
			}
			for i := range walked {
				if walked[i] != want[i] {
					t.Fatalf("trial %d: node %d child %d mismatch", trial, n.ID, i)
				}
			}
		}
	}
}

// TestArenaPointerStability: node pointers handed out by the arena must
// stay valid (addressing the same node) as the tree grows across block
// boundaries.
func TestArenaPointerStability(t *testing.T) {
	// Force well past one arena block (1024 nodes): the token ring never
	// accelerates, so the tree enumerates its 3,276 markings up to the
	// state budget.
	tree, err := Explore(benchVASS(25, 4), Options{MaxStates: 3 * nodeArenaBlock})
	if err != nil && err != ErrBudget {
		t.Fatal(err)
	}
	if len(tree.Nodes) <= nodeArenaBlock {
		t.Fatalf("tree too small (%d nodes) to cross an arena block", len(tree.Nodes))
	}
	for i, n := range tree.Nodes {
		if n.ID != i {
			t.Fatalf("Nodes[%d].ID = %d; pointer moved or IDs corrupt", i, n.ID)
		}
		if n.Parent != nil && tree.Nodes[n.Parent.ID] != n.Parent {
			t.Fatalf("node %d's Parent pointer does not match Nodes[%d]", i, n.Parent.ID)
		}
	}
}

// TestDominatingChainLinear explores a chain in which every new node
// dominates its parent: without acceleration, two counters that only
// grow make each insertion revive and re-examine the whole ancestor
// chain. The ancestor test must not walk that chain once per dominated
// node; walked per node it made this 3,072-node search quadratic (about
// 14 s on a 2-vCPU host, against well under a second stamped).
func TestDominatingChainLinear(t *testing.T) {
	v := &Vec{
		Dim:  2,
		Init: VConfig{Loc: 0, C: []Count{0, 0}},
		Trans: []VTrans{
			{From: 0, To: 0, Delta: []Count{1, 0}},
			{From: 0, To: 0, Delta: []Count{0, 1}},
		},
	}
	start := time.Now()
	tree, err := Explore(noAccel{v}, Options{MaxStates: 3 * nodeArenaBlock})
	if err != ErrBudget {
		t.Fatalf("got %v, want ErrBudget", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("%d nodes took %v: the ancestor test is walking the chain again", len(tree.Nodes), el)
	}
}
