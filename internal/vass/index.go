package vass

import "verifas/internal/setindex"

// classIndex adapts setindex to the search: it keeps one set index per
// equality class (see System.IndexSet) and maps each class's dense index
// ids back to tree node IDs. Leq never relates states of different
// classes, so a query touches only its own class, and a class with
// nothing stored answers at once. Node IDs must be dense and inserted in
// order (0, 1, 2, ...).
type classIndex struct {
	classes map[uint64]*classSets
	// entries maps a node ID to its class and dense id there.
	entries []classEntry
}

// classSets is the set index of one equality class.
type classSets struct {
	idx *setindex.Index
	ids []int
}

type classEntry struct {
	c  *classSets
	id int32
}

func newClassIndex() *classIndex {
	return &classIndex{classes: map[uint64]*classSets{}}
}

func (x *classIndex) insert(id int, class uint64, set []uint64) {
	if id != len(x.entries) {
		panic("vass: class index ids must be dense and sequential")
	}
	c := x.classes[class]
	if c == nil {
		c = &classSets{idx: setindex.New()}
		x.classes[class] = c
	}
	x.entries = append(x.entries, classEntry{c: c, id: int32(len(c.ids))})
	c.idx.Insert(len(c.ids), set)
	c.ids = append(c.ids, id)
}

// retire drops id from the subset queries (anySubset); supersets still
// returns it.
func (x *classIndex) retire(id int) {
	en := x.entries[id]
	en.c.idx.Retire(int(en.id))
}

// finish drops what only the search reads, the superset side and the
// entries behind retire, and keeps the subset side for anySubset.
func (x *classIndex) finish() {
	x.entries = nil
	for _, c := range x.classes {
		c.idx.DropSupersets()
	}
}

// anySubset streams the ids of the class's unretired entries whose
// indexed set is a subset of q until pred returns true, reporting whether
// it did (early-exit existence check).
func (x *classIndex) anySubset(class uint64, q []uint64, pred func(id int) bool) bool {
	c := x.classes[class]
	if c == nil {
		return false
	}
	found := false
	c.idx.SubsetsSeq(q, func(i int) bool {
		if pred(c.ids[i]) {
			found = true
			return false
		}
		return true
	})
	return found
}

// supersets streams to yield the ids of the class's entries, retired or
// not, whose indexed set is a superset of q.
func (x *classIndex) supersets(class uint64, q []uint64, yield func(id int)) {
	c := x.classes[class]
	if c == nil {
		return
	}
	c.idx.SupersetsSeq(q, func(i int) bool {
		yield(c.ids[i])
		return true
	})
}
