package vass

import "verifas/internal/setindex"

// classIndex adapts setindex to the searches: it keeps one set index per
// equality class (see System.IndexSet) and maps each class's dense index
// ids back to caller ids (tree node IDs for the exploration, positions in
// the node slice for the coverability graph). Leq never relates states of
// different classes, so a query touches only its own class, and a class
// with nothing stored answers at once.
type classIndex struct {
	classes map[uint64]*classSets
}

// classSets is the set index of one equality class.
type classSets struct {
	idx *setindex.Index
	ids []int
}

func newClassIndex() *classIndex {
	return &classIndex{classes: map[uint64]*classSets{}}
}

func (x *classIndex) insert(id int, class uint64, set []uint64) {
	c := x.classes[class]
	if c == nil {
		c = &classSets{idx: setindex.New()}
		x.classes[class] = c
	}
	c.idx.Insert(len(c.ids), set)
	c.ids = append(c.ids, id)
}

// anySubset streams the ids of the class's entries whose indexed set is a
// subset of q until pred returns true, reporting whether it did
// (early-exit existence check).
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

// supersets returns the ids of the class's entries whose indexed set is a
// superset of q.
func (x *classIndex) supersets(class uint64, q []uint64) []int {
	c := x.classes[class]
	if c == nil {
		return nil
	}
	ids := c.idx.Supersets(q)
	for i, id := range ids {
		ids[i] = c.ids[id]
	}
	return ids
}
