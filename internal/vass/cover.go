package vass

import "sort"

// Coverability-graph analysis used for repeated reachability (paper
// Sections 3.3 and 3.8): the transition graph among the coverability set's
// states, whose non-trivial strongly connected components identify the
// repeatedly reachable symbolic states.

// CoverGraph is the coverability graph over a tree's active nodes, whose
// edges are I → J  iff  ∃s ∈ succ(I): s ≤ J (J covers the successor),
// with ≤ the system's order. It is built once and serves both CycleNodes
// and CycleWitness.
type CoverGraph struct {
	nodes []*Node
	// pos maps a tree node ID to its position in nodes (-1 = inactive).
	// Active lists nodes in ID order, so the map is monotone.
	pos []int
	// out[i] holds the edges of nodes[i]: for each successor in
	// Successors order, every covering node by ascending position. A node
	// covering several successors appears once per successor, each time
	// with that successor's label.
	out [][]coverEdge
}

type coverEdge struct {
	to    int
	label any
}

// CoverGraph builds the coverability graph over the tree's active nodes,
// asking sys once for each node's successors; sys is the system the tree
// was searched with. Every active node was expanded by the search, so a
// System that memoizes its lists (the verifier's product does, per run)
// serves the graph from them without computing any list again. A tree
// searched with Options.UseIndex draws the covering candidates of a
// successor from the search's own index, whose subset side holds exactly
// the active nodes, and confirms them by Leq; a tree searched without it
// tests every active node. Both give the same edges in the same order.
func (t *Tree) CoverGraph(sys System) *CoverGraph {
	nodes := t.Active()
	g := &CoverGraph{
		nodes: nodes,
		pos:   make([]int, len(t.Nodes)),
		out:   make([][]coverEdge, len(nodes)),
	}
	for i := range g.pos {
		g.pos[i] = -1
	}
	for i, nd := range nodes {
		g.pos[nd.ID] = i
	}
	var cands []int
	for i, nd := range nodes {
		for _, sc := range sys.Successors(nd.S) {
			cands = g.candidates(sys, t.idx, sc.S, cands[:0])
			for _, j := range cands {
				if sys.Leq(sc.S, nodes[j].S) {
					g.out[i] = append(g.out[i], coverEdge{to: j, label: sc.Label})
				}
			}
		}
	}
	return g
}

// candidates appends to dst, ascending, the positions j that may satisfy
// s ≤ nodes[j]: the positions of the index's subset candidates, or every
// position without an index.
func (g *CoverGraph) candidates(sys System, idx *classIndex, s State, dst []int) []int {
	if idx == nil {
		for j := range g.nodes {
			dst = append(dst, j)
		}
		return dst
	}
	class, set := sys.IndexSet(s)
	idx.anySubset(class, set, func(id int) bool {
		dst = append(dst, g.pos[id])
		return false
	})
	sort.Ints(dst)
	return dst
}

// CycleNodes returns the nodes contained in a non-trivial cycle of the
// graph. A self-loop counts as a cycle.
func (g *CoverGraph) CycleNodes() map[*Node]bool {
	adj := make([][]int, len(g.nodes))
	selfLoop := make([]bool, len(g.nodes))
	for i, edges := range g.out {
		for _, e := range edges {
			adj[i] = append(adj[i], e.to)
			if e.to == i {
				selfLoop[i] = true
			}
		}
	}
	sccID, sccSize := tarjanSCC(adj)
	out := map[*Node]bool{}
	for i, nd := range g.nodes {
		if sccSize[sccID[i]] > 1 || selfLoop[i] {
			out[nd] = true
		}
	}
	return out
}

// CycleWitness returns, for a node known to lie on a cycle, the labels of
// one cycle through it (for counterexample display). Returns nil if no
// cycle is found (should not happen for nodes reported by CycleNodes).
func (g *CoverGraph) CycleWitness(start *Node) []any {
	if start.ID >= len(g.pos) || g.pos[start.ID] < 0 {
		return nil
	}
	si := g.pos[start.ID]
	adj := g.out
	// BFS from start's successors back to start.
	type crumb struct {
		node  int
		prev  int // index into crumbs
		label any
	}
	var crumbs []crumb
	seen := make([]bool, len(g.nodes))
	var queue []int
	for _, e := range adj[si] {
		crumbs = append(crumbs, crumb{node: e.to, prev: -1, label: e.label})
		queue = append(queue, len(crumbs)-1)
	}
	for len(queue) > 0 {
		ci := queue[0]
		queue = queue[1:]
		c := crumbs[ci]
		if c.node == si {
			// Reconstruct labels.
			var rev []any
			for i := ci; i != -1; i = crumbs[i].prev {
				rev = append(rev, crumbs[i].label)
			}
			out := make([]any, 0, len(rev))
			for i := len(rev) - 1; i >= 0; i-- {
				out = append(out, rev[i])
			}
			return out
		}
		if seen[c.node] {
			continue
		}
		seen[c.node] = true
		for _, e := range adj[c.node] {
			crumbs = append(crumbs, crumb{node: e.to, prev: ci, label: e.label})
			queue = append(queue, len(crumbs)-1)
		}
	}
	return nil
}

// tarjanSCC computes strongly connected components iteratively, returning
// per-node component ids and per-component sizes.
func tarjanSCC(adj [][]int) (id []int, size []int) {
	n := len(adj)
	id = make([]int, n)
	for i := range id {
		id[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comp int
	counter := 0

	type frame struct {
		v, ei int
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames := []frame{{v: root}}
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if index[w] == -1 {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Pop frame.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				sz := 0
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					id[w] = comp
					sz++
					if w == v {
						break
					}
				}
				size = append(size, sz)
				comp++
			}
		}
	}
	return id, size
}
