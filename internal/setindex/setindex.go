// Package setindex provides the data-structure support of paper Section
// 3.6: fast subset and superset queries over collections of edge sets,
// using inverted lists (subset queries [34]) and a trie (superset queries
// [40]). The verifier uses them to prefilter candidates for the ⪯
// comparisons when maintaining the set of active states.
package setindex

// MaxIndexed caps how many elements of a stored set feed the inverted
// lists. Larger sets are indexed by their first MaxIndexed elements only,
// which keeps the lists short; the subset query then over-approximates
// (callers re-verify candidates), remaining correct as a prefilter.
const MaxIndexed = 48

// Index stores integer-identified sorted uint64 sets and answers subset
// and superset queries. Ids must be assigned densely (0, 1, 2, ...): the
// hit counters of the subset query are epoch-stamped dense arrays, which
// keeps the hot path free of map operations.
//
// An entry can be retired from the subset side (see Retire); the trie
// behind the superset query keeps every entry.
type Index struct {
	inv     map[uint64]int32 // element -> position in lists
	lists   [][]int32        // ids of the sets containing an element
	size    []int32          // id -> set cardinality, or retired
	empties []int32          // ids of empty sets
	trie    *tnode

	counts []int32
	stamps []uint32
	epoch  uint32
}

// retired marks a retired id in Index.size. The subset query drops such
// ids from each list it walks.
const retired = -1

type tnode struct {
	label    uint64
	children []*tnode
	ids      []int32
}

// New returns an empty index.
func New() *Index {
	return &Index{
		inv:  map[uint64]int32{},
		trie: &tnode{},
	}
}

// Insert stores the set under the given id. The set must be sorted
// ascending and duplicate-free, and ids must be assigned densely in
// insertion order (0, 1, 2, ...).
func (x *Index) Insert(id int, set []uint64) {
	if id != len(x.size) {
		panic("setindex: ids must be dense and sequential")
	}
	id32 := int32(id)
	indexed := set
	if len(indexed) > MaxIndexed {
		indexed = indexed[:MaxIndexed]
	}
	x.size = append(x.size, int32(len(indexed)))
	x.counts = append(x.counts, 0)
	x.stamps = append(x.stamps, 0)
	if len(indexed) == 0 {
		x.empties = append(x.empties, id32)
	}
	for _, e := range indexed {
		li, ok := x.inv[e]
		if !ok {
			li = int32(len(x.lists))
			x.inv[e] = li
			x.lists = append(x.lists, nil)
		}
		x.lists[li] = append(x.lists[li], id32)
	}
	n := x.trie
	for _, e := range set {
		n = n.child(e, true)
	}
	n.ids = append(n.ids, id32)
}

func (n *tnode) child(label uint64, create bool) *tnode {
	// Children kept sorted by label; linear scan (fan-out is small).
	lo, hi := 0, len(n.children)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.children[mid].label < label {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.children) && n.children[lo].label == label {
		return n.children[lo]
	}
	if !create {
		return nil
	}
	c := &tnode{label: label}
	n.children = append(n.children, nil)
	copy(n.children[lo+1:], n.children[lo:])
	n.children[lo] = c
	return c
}

// Retire removes the set stored under id from the subset side: Subsets
// and SubsetsSeq never yield it again, while Supersets and SupersetsSeq
// still do. Retiring costs O(1); each inverted list drops its retired ids
// the next time a subset query walks it. Len is unchanged.
func (x *Index) Retire(id int) {
	x.size[id] = retired
}

// Subsets returns the ids of stored sets whose indexed prefix is a subset
// of q (q sorted) — a superset of the true subset ids when sets exceed
// MaxIndexed; exact otherwise. Retired ids are left out.
func (x *Index) Subsets(q []uint64) []int {
	var out []int
	x.SubsetsSeq(q, func(id int) bool {
		out = append(out, id)
		return true
	})
	return out
}

// SubsetsSeq streams subset candidates to yield in discovery order; yield
// returning false stops the query early (used by existence checks). yield
// must not modify the index.
func (x *Index) SubsetsSeq(q []uint64, yield func(id int) bool) {
	x.epoch++
	if x.epoch == 0 {
		// After 2^32 queries a stamp could equal the epoch again and
		// resume a stale count; start the stamps over instead.
		clear(x.stamps)
		x.epoch = 1
	}
	if !x.walk(&x.empties, false, yield) {
		return
	}
	for _, e := range q {
		if li, ok := x.inv[e]; ok && !x.walk(&x.lists[li], true, yield) {
			return
		}
	}
}

// walk streams the live ids of one list to yield, counting a hit for each
// when count is set and yielding only ids whose count reaches their set
// size; without count every live id is yielded. Retired ids are compacted
// out of the list in place, also when yield stops the walk, so a list
// pays for a retired id once. It reports whether yield asked to go on.
func (x *Index) walk(list *[]int32, count bool, yield func(id int) bool) bool {
	l := *list
	w := 0
	for r, id := range l {
		size := x.size[id]
		if size == retired {
			continue
		}
		l[w] = id
		w++
		if count {
			if x.stamps[id] != x.epoch {
				x.stamps[id] = x.epoch
				x.counts[id] = 1
			} else {
				x.counts[id]++
			}
			if x.counts[id] != size {
				continue
			}
		}
		if !yield(int(id)) {
			if w <= r {
				*list = l[:w+copy(l[w:], l[r+1:])]
			}
			return false
		}
	}
	if w < len(l) {
		*list = l[:w]
	}
	return true
}

// Supersets returns the ids of stored sets that are supersets of q
// (q sorted). Queries longer than MaxIndexed are truncated, making the
// result an over-approximation (callers re-verify).
func (x *Index) Supersets(q []uint64) []int {
	var out []int
	x.SupersetsSeq(q, func(id int) bool {
		out = append(out, id)
		return true
	})
	return out
}

// DropSupersets releases the trie behind the superset queries, for an
// index that will only answer subset queries from now on. Supersets and
// SupersetsSeq must not be called afterwards.
func (x *Index) DropSupersets() { x.trie = nil }

// SupersetsSeq streams the ids Supersets returns, in the same order, to
// yield; yield returning false stops the query early.
func (x *Index) SupersetsSeq(q []uint64, yield func(id int) bool) {
	if len(q) > MaxIndexed {
		q = q[:MaxIndexed]
	}
	supersets(x.trie, q, yield)
}

// supersets yields the ids stored in n's subtree whose path, continuing
// below n, contains every element of q. It reports whether yield asked to
// go on.
func supersets(n *tnode, q []uint64, yield func(id int) bool) bool {
	if len(q) == 0 {
		return collect(n, yield)
	}
	for _, c := range n.children {
		switch {
		case c.label < q[0]:
			// Skip an extra element of the stored set.
			if !supersets(c, q, yield) {
				return false
			}
		case c.label == q[0]:
			if !supersets(c, q[1:], yield) {
				return false
			}
		default:
			return true // children sorted; nothing further can match
		}
	}
	return true
}

// collect yields every id stored in n's subtree.
func collect(n *tnode, yield func(id int) bool) bool {
	for _, id := range n.ids {
		if !yield(int(id)) {
			return false
		}
	}
	for _, c := range n.children {
		if !collect(c, yield) {
			return false
		}
	}
	return true
}

// Len returns the number of stored sets.
func (x *Index) Len() int { return len(x.size) }
