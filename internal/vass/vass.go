// Package vass implements the Karp-Miller coverability construction for
// vector addition systems with states, in the generic form used by
// VERIFAS: the Reynier-Servais variant with monotone pruning (paper
// Section 3.4) and ω-acceleration, parameterized by a pluggable state
// domain so the verifier core can run it over partial symbolic instances
// and tests can run it over plain vectors. The classic algorithm (paper
// Algorithm 1) is kept only as a test oracle.
package vass

import (
	"context"
	"errors"
)

// State is an opaque search state owned by the Domain.
type State interface{}

// Succ is a labeled successor.
type Succ struct {
	Label any
	S     State
}

// System abstracts the transition system and its ordering structure.
type System interface {
	// Initial returns the initial states.
	Initial() []State
	// Successors enumerates succ(s). The returned slice and its states
	// may be shared between calls (a System may return the same list
	// for equal states), so callers must not modify them.
	Successors(s State) []Succ
	// Leq is the pruning/coverage order in force (≤ or ⪯ depending on
	// the optimization configuration).
	Leq(a, b State) bool
	// Accelerate returns s lifted with ω counters against the ancestor
	// (the accel operator), and whether anything changed. Implementations
	// may return s unchanged.
	Accelerate(ancestor, s State) (State, bool)
	// IndexSet returns the state's equality class and the sorted,
	// duplicate-free set the subset/superset indexes store under it. The
	// indexes rely on Leq(a, b) implying equal classes and, within the
	// class, set(b) ⊆ set(a); they do not retain the slice. A nil set is
	// stored as the empty set, which every query of its class returns as
	// a candidate.
	IndexSet(s State) (class uint64, set []uint64)
}

// Node is a node of the Karp-Miller tree. Nodes are allocated in
// fixed-size arena blocks (see nodeArena) and linked to their children
// through int32 indexes into Tree.Nodes rather than per-node pointer
// slices, so a tree of N nodes costs a handful of large allocations
// instead of 2N small ones.
type Node struct {
	S      State
	Label  any // label of the edge from Parent
	Parent *Node
	ID     int

	Active    bool
	processed bool
	// firstChild/lastChild/nextSibling thread the children as an
	// intrusive singly-linked list of Tree.Nodes indexes (-1 = none):
	// children replace a per-node []*Node slice, the single biggest
	// per-node allocation of the seed implementation.
	firstChild  int32
	lastChild   int32
	nextSibling int32
	// subtreeKilled caches that this node and every descendant are
	// inactive, making repeated deactivation sweeps O(1).
	subtreeKilled bool
	// chainStamp equals explorer.stamp while the node lies on the
	// ancestor chain of explorer.stamped (see explorer.onChain).
	chainStamp uint32
}

// nodeArena hands out Node values from fixed-size blocks. Blocks are
// never reallocated (only a fresh block is started when the current one
// fills), so &block[i] pointers stay valid for the life of the tree —
// Tree.Nodes and Node.Parent keep their pointer-based API.
type nodeArena struct {
	cur []Node
}

// nodeArenaBlock is the arena block size in nodes.
const nodeArenaBlock = 1024

func (a *nodeArena) alloc() *Node {
	if len(a.cur) == cap(a.cur) {
		a.cur = make([]Node, 0, nodeArenaBlock)
	}
	a.cur = a.cur[:len(a.cur)+1]
	return &a.cur[len(a.cur)-1]
}

// Path returns the labels and states from the root to this node.
func (n *Node) Path() []*Node {
	var rev []*Node
	for cur := n; cur != nil; cur = cur.Parent {
		rev = append(rev, cur)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// IsAncestorOf reports whether n is a (proper or improper) ancestor of m.
func (n *Node) IsAncestorOf(m *Node) bool {
	for cur := m; cur != nil; cur = cur.Parent {
		if cur == n {
			return true
		}
	}
	return false
}

// Options configure the exploration.
type Options struct {
	// UseIndex enables the Trie/inverted-list candidate indexes for act
	// maintenance (paper Section 3.6). The tree keeps the index, and
	// Tree.CoverGraph draws its covering candidates from it.
	UseIndex bool
	// MaxStates aborts the search after creating this many nodes
	// (0 = unlimited).
	MaxStates int
	// MaxMemBytes aborts the search (ErrMemBudget) once the estimated
	// retained bytes of the tree — per-node overhead plus the domain's
	// StateBytes estimates (see Sized) plus MemExtra — exceed this budget
	// (0 = unlimited). The estimate is deterministic accounting, not a
	// heap measurement: the same search hits the same cutoff on every
	// run, provided MemExtra is itself deterministic.
	MaxMemBytes int64
	// MemExtra, if set, reports additional retained bytes charged
	// against MaxMemBytes beyond the per-node estimates — typically the
	// shared intern table, which per-state estimates must exclude to
	// avoid double counting.
	MemExtra func() int64
	// Ctx cooperatively cancels the search (nil = never). Timeouts are
	// expressed as context deadlines; once the context is done, Explore
	// stops promptly and returns ctx.Err().
	Ctx context.Context
	// OnAccelerate, if set, is invoked when acceleration fires, with the
	// ancestor node and the new (pre-insertion) state. Returning true
	// stops the search immediately (used for the ω-accepting shortcut).
	OnAccelerate func(ancestor *Node, accelerated State) bool
	// OnNode, if set, is invoked for every node added to the tree.
	// Returning true stops the search immediately (used for on-the-fly
	// violation detection).
	OnNode func(n *Node) bool
	// OnProgress, if set, receives a snapshot of the exploration counters
	// every ProgressStride created nodes, plus one final snapshot when
	// the exploration ends (so even short searches emit at least one).
	// When nil the main loop pays only a nil check per iteration.
	OnProgress func(Progress)
	// ProgressStride is the node-creation stride between OnProgress
	// calls (<= 0 = DefaultProgressStride). Ignored without OnProgress.
	ProgressStride int
}

// Progress is a periodic snapshot of a running exploration's counters.
type Progress struct {
	// Created counts all nodes created so far (monotone).
	Created int
	// Frontier is the number of unprocessed entries in the work list.
	Frontier int
	Pruned   int
	Skipped  int
	// Accelerations counts applications of the accel operator.
	Accelerations int
	// MemBytes is the estimated retained bytes of the tree so far plus
	// MemExtra (see Options.MaxMemBytes).
	MemBytes int64
}

// DefaultProgressStride is the node-creation stride between OnProgress
// snapshots when Options.ProgressStride is unset.
const DefaultProgressStride = 8192

// ErrBudget is returned when MaxStates is exceeded. Context expiry is
// reported as the context's own error (context.DeadlineExceeded or
// context.Canceled) instead.
var ErrBudget = errors.New("vass: state budget exceeded")

// ErrMemBudget is returned when the estimated retained bytes exceed
// Options.MaxMemBytes. Like ErrBudget, the partial tree built so far is
// still returned alongside the error.
var ErrMemBudget = errors.New("vass: memory budget exceeded")

// Sized is optionally implemented by a System to report the estimated
// unique retained bytes of one state (excluding structure shared with
// other states, such as interned types — those are charged once via
// Options.MemExtra). Without it the memory accounting falls back to a
// flat per-state constant.
type Sized interface {
	StateBytes(s State) int
}

// Per-node accounting constants: the Node struct plus its Tree.Nodes
// entry and index bookkeeping, and the fallback state estimate when the
// System does not implement Sized. The overhead is a fixed charge, so the
// estimate does not depend on which optional structures a search keeps.
const (
	nodeOverheadBytes = 136
	defaultStateBytes = 160
)

// Tree is the result of an exploration.
type Tree struct {
	Roots []*Node
	Nodes []*Node
	// Stopped is set when an OnNode/OnAccelerate callback stopped the
	// search.
	Stopped bool
	// Stats counters.
	Created, Pruned, Skipped, Accelerations int
	// MemBytes is the estimated retained bytes of the tree (per-node
	// overhead plus state estimates; MemExtra is not folded in because it
	// describes structure outside the tree).
	MemBytes int64
	// idx is the search's index (nil without Options.UseIndex). Its
	// subset side holds exactly the active nodes: deactivateSubtree
	// retires each node it flips inactive. Once the search returns, only
	// the subset side is kept.
	idx *classIndex
}

// Active returns the active nodes, in ID order; once the search has run
// to completion they form the coverability set.
func (t *Tree) Active() []*Node {
	var out []*Node
	for _, n := range t.Nodes {
		if n.Active {
			out = append(out, n)
		}
	}
	return out
}

// Explore runs the pruned, accelerated Karp-Miller construction to
// completion, or until a callback stops it, or until the state budget is
// exceeded (ErrBudget), or until opts.Ctx is done (its ctx.Err()).
func Explore(sys System, opts Options) (*Tree, error) {
	e := &explorer{sys: sys, opts: opts, tree: &Tree{}}
	e.sized, _ = sys.(Sized)
	if opts.UseIndex {
		e.tree.idx = newClassIndex()
	}
	stride := opts.ProgressStride
	if stride <= 0 {
		stride = DefaultProgressStride
	}
	nextEmit := stride
	// emitProgress snapshots the counters for OnProgress; the final
	// snapshot (emitted on every exit path below) guarantees at least one
	// even for searches smaller than the stride.
	emitProgress := func(frontier int) {
		opts.OnProgress(Progress{
			Created:       e.tree.Created,
			Frontier:      frontier,
			Pruned:        e.tree.Pruned,
			Skipped:       e.tree.Skipped,
			Accelerations: e.tree.Accelerations,
			MemBytes:      e.memTotal(),
		})
	}
	var work []*Node
	finish := func(t *Tree, err error) (*Tree, error) {
		t.Stopped = e.stop
		if t.idx != nil {
			t.idx.finish()
		}
		if opts.OnProgress != nil {
			emitProgress(len(work))
		}
		return t, err
	}
	for _, s := range sys.Initial() {
		n := e.newNode(s, nil, nil)
		if n == nil {
			continue
		}
		if e.stop {
			return finish(e.tree, nil)
		}
		work = append(work, n)
	}
	for len(work) > 0 {
		if opts.MaxStates > 0 && e.tree.Created > opts.MaxStates {
			return finish(e.tree, ErrBudget)
		}
		if opts.MaxMemBytes > 0 && e.memTotal() > opts.MaxMemBytes {
			return finish(e.tree, ErrMemBudget)
		}
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return finish(e.tree, err)
			}
		}
		if opts.OnProgress != nil && e.tree.Created >= nextEmit {
			emitProgress(len(work))
			nextEmit = e.tree.Created + stride
		}
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if !n.Active || n.processed {
			continue
		}
		n.processed = true
		for _, sc := range sys.Successors(n.S) {
			// Reynier-Servais processes (node, transition) pairs and
			// drops pairs whose source has been deactivated — possibly
			// by a sibling successor created moments ago. Without this
			// check the construction can livelock.
			if !n.Active {
				break
			}
			s := e.accelerate(n, sc.S)
			if e.stop {
				return finish(e.tree, nil)
			}
			child := e.newNode(s, sc.Label, n)
			if child == nil {
				continue
			}
			if e.stop {
				return finish(e.tree, nil)
			}
			work = append(work, child)
		}
	}
	return finish(e.tree, nil)
}

type explorer struct {
	sys  System
	opts Options
	tree *Tree
	stop bool
	// arena block-allocates the tree's nodes.
	arena nodeArena
	// sized is non-nil when the System reports per-state byte estimates.
	sized Sized
	// stamped is the last node whose ancestor chain was stamped, with
	// stamp (see onChain).
	stamped *Node
	stamp   uint32
}

// memTotal is the budget-accounting sum: the tree estimate plus shared
// extras (intern table).
func (e *explorer) memTotal() int64 {
	total := e.tree.MemBytes
	if e.opts.MemExtra != nil {
		total += e.opts.MemExtra()
	}
	return total
}

// stateBytesOf is the per-state component of the memory-accounting
// estimate (see Options.MaxMemBytes).
func (e *explorer) stateBytesOf(s State) int {
	if e.sized != nil {
		return e.sized.StateBytes(s)
	}
	return defaultStateBytes
}

// accelerate applies the accel operator against all active ancestors.
func (e *explorer) accelerate(parent *Node, s State) State {
	for anc := parent; anc != nil; anc = anc.Parent {
		if !anc.Active {
			continue
		}
		if lifted, changed := e.sys.Accelerate(anc.S, s); changed {
			s = lifted
			e.tree.Accelerations++
			if e.opts.OnAccelerate != nil && e.opts.OnAccelerate(anc, s) {
				e.stop = true
				return s
			}
		}
	}
	return s
}

// newNode inserts a state into the tree, honoring the pruning rules
// (Reynier-Servais, paper Section 3.4). Returns nil when the state was
// skipped (dominated by an active node).
func (e *explorer) newNode(s State, label any, parent *Node) *Node {
	var class uint64
	var set []uint64
	if e.tree.idx != nil {
		class, set = e.sys.IndexSet(s)
	}
	if e.dominatedByActive(s, class, set) {
		e.tree.Skipped++
		return nil
	}
	// Deactivate every node m and its descendants where m.S ≤ s and m is
	// active or m is not an ancestor of the new node. (An active ancestor
	// is deactivated too; the new node itself is added active below,
	// exactly as in Reynier-Servais.) A killed subtree is skipped before
	// Leq: deactivating it again would change nothing.
	e.smallerCandidates(class, set, func(m *Node) {
		if m.subtreeKilled || !e.sys.Leq(m.S, s) {
			return
		}
		if m.Active || parent == nil || !e.onChain(m, parent) {
			e.deactivateSubtree(m)
		}
	})
	n := e.arena.alloc()
	*n = Node{
		S: s, Label: label, Parent: parent, Active: true,
		ID:         len(e.tree.Nodes),
		firstChild: -1, lastChild: -1, nextSibling: -1,
	}
	e.tree.Nodes = append(e.tree.Nodes, n)
	e.tree.Created++
	e.tree.MemBytes += int64(nodeOverheadBytes + e.stateBytesOf(s))
	if parent == nil {
		e.tree.Roots = append(e.tree.Roots, n)
	} else {
		if parent.firstChild < 0 {
			parent.firstChild = int32(n.ID)
		} else {
			e.tree.Nodes[parent.lastChild].nextSibling = int32(n.ID)
		}
		parent.lastChild = int32(n.ID)
		// The new active node invalidates any killed-subtree caches on
		// its ancestor chain.
		for a := parent; a != nil && a.subtreeKilled; a = a.Parent {
			a.subtreeKilled = false
		}
	}
	if e.tree.idx != nil {
		e.tree.idx.insert(n.ID, class, set)
	}
	if e.opts.OnNode != nil && e.opts.OnNode(n) {
		e.stop = true
	}
	return n
}

// onChain reports m.IsAncestorOf(parent). The first call for a parent
// stamps the parent's ancestor chain; later calls for the same parent,
// from its other dominated nodes and its other successors, compare one
// stamp instead of walking the chain again. Ancestry never changes, so
// a stamp stays valid until the next parent is stamped.
func (e *explorer) onChain(m, parent *Node) bool {
	if e.stamped != parent {
		e.stamped = parent
		e.stamp++
		for a := parent; a != nil; a = a.Parent {
			a.chainStamp = e.stamp
		}
	}
	return m.chainStamp == e.stamp
}

func (e *explorer) deactivateSubtree(m *Node) {
	if m.subtreeKilled {
		return
	}
	if m.Active {
		m.Active = false
		e.tree.Pruned++
		if e.tree.idx != nil {
			e.tree.idx.retire(m.ID)
		}
	}
	for cid := m.firstChild; cid >= 0; cid = e.tree.Nodes[cid].nextSibling {
		e.deactivateSubtree(e.tree.Nodes[cid])
	}
	m.subtreeKilled = true
}

// dominatedByActive reports whether an active node dominates s. With
// indexing enabled, candidates are prefiltered to s's index class (class,
// set) and to "indexed set of the dominator is a subset of s's" — a
// necessary condition for s ≤ m under the System.IndexSet contract — and
// the subset side yields active nodes only, since Active never turns back
// on once deactivateSubtree has retired a node.
func (e *explorer) dominatedByActive(s State, class uint64, set []uint64) bool {
	if e.tree.idx != nil {
		return e.tree.idx.anySubset(class, set, func(id int) bool {
			return e.sys.Leq(s, e.tree.Nodes[id].S)
		})
	}
	for _, n := range e.tree.Nodes {
		if n.Active && e.sys.Leq(s, n.S) {
			return true
		}
	}
	return false
}

// smallerCandidates streams to yield the nodes that may satisfy m.S ≤ s,
// where (class, set) is s's index class and set (superset prefilter).
// Inactive nodes are included: the pruning rule must also deactivate
// descendants of already-inactive dominated nodes, and a killed subtree
// is revived when a new node is attached below it, so the trie keeps
// every node.
func (e *explorer) smallerCandidates(class uint64, set []uint64, yield func(m *Node)) {
	if e.tree.idx == nil {
		for _, m := range e.tree.Nodes {
			yield(m)
		}
		return
	}
	e.tree.idx.supersets(class, set, func(id int) {
		yield(e.tree.Nodes[id])
	})
}
