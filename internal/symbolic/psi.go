package symbolic

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"verifas/internal/maxflow"
)

// Count is a stored-tuple count; Omega represents ω (a counter accelerated
// to "arbitrarily large" by the Karp-Miller construction).
type Count = int64

// Omega is the ω counter value: n < Omega for all concrete n, Omega±1 =
// Omega.
const Omega Count = math.MaxInt64

// Stored is one counted partial isomorphism type in an artifact relation:
// Count tuples sharing the type.
type Stored struct {
	Type  *Pisotype
	Count Count
}

// Bag is the multiset of stored tuple types of one artifact relation,
// sorted by type hash. Bags are treated as immutable; updates return new
// bags sharing the unchanged entries.
type Bag struct {
	Items []Stored
}

// Find returns the index of the entry with the given type, or -1.
func (b Bag) Find(t *Pisotype) int {
	h := t.Hash()
	i := sort.Search(len(b.Items), func(i int) bool { return b.Items[i].Type.Hash() >= h })
	for ; i < len(b.Items) && b.Items[i].Type.Hash() == h; i++ {
		if b.Items[i].Type.Equal(t) {
			return i
		}
	}
	return -1
}

// WithDelta returns a bag with the count of t adjusted by delta (+1/-1).
// Entries reaching zero are removed; ω±1 = ω. Decrementing a missing entry
// panics (callers only decrement entries they found).
func (b Bag) WithDelta(t *Pisotype, delta Count) Bag {
	i := b.Find(t)
	if i < 0 {
		if delta < 0 {
			panic("symbolic: decrement of missing stored type")
		}
		h := t.Hash()
		pos := sort.Search(len(b.Items), func(i int) bool { return b.Items[i].Type.Hash() >= h })
		items := make([]Stored, 0, len(b.Items)+1)
		items = append(items, b.Items[:pos]...)
		items = append(items, Stored{Type: t, Count: delta})
		items = append(items, b.Items[pos:]...)
		return Bag{Items: items}
	}
	cur := b.Items[i].Count
	var next Count
	if cur == Omega {
		next = Omega
	} else {
		next = cur + delta
	}
	items := append([]Stored(nil), b.Items...)
	if next == 0 {
		items = append(items[:i], items[i+1:]...)
	} else {
		items[i] = Stored{Type: b.Items[i].Type, Count: next}
	}
	return Bag{Items: items}
}

// WithCount returns a bag with the count of entry i replaced.
func (b Bag) WithCount(i int, c Count) Bag {
	items := append([]Stored(nil), b.Items...)
	items[i] = Stored{Type: items[i].Type, Count: c}
	return Bag{Items: items}
}

// Total returns the total tuple count; any ω makes the total Omega.
func (b Bag) Total() Count {
	var sum Count
	for _, s := range b.Items {
		if s.Count == Omega {
			return Omega
		}
		sum += s.Count
	}
	return sum
}

// PSI is a partial symbolic instance (paper Definitions 19 and 30): the
// partial isomorphism type of the artifact variables, one counted bag of
// stored tuple types per artifact relation, and the active/inactive status
// of the task's children. PSIs are immutable after construction.
type PSI struct {
	Tau *Pisotype
	// Bags holds one bag per artifact relation of the task, in the
	// task's relation declaration order.
	Bags []Bag
	// Mask has bit i set when the i-th child task is active.
	Mask uint32

	key    uint64
	hasKey bool
	// edgeSet memoizes EdgeSet(). Like key it is computed at most once;
	// caching is sound because PSIs (and their Pisotypes' canonical edge
	// lists) are immutable after construction.
	edgeSet []uint64
}

// NewPSI builds a PSI.
func NewPSI(tau *Pisotype, bags []Bag, mask uint32) *PSI {
	return &PSI{Tau: tau, Bags: bags, Mask: mask}
}

// Key returns a hash of the PSI (collisions are resolved with Equal).
func (p *PSI) Key() uint64 {
	if p.hasKey {
		return p.key
	}
	h := p.Tau.Hash()
	h = h*31 + uint64(p.Mask)
	for _, b := range p.Bags {
		h = h*131 + 7
		for _, s := range b.Items {
			h = h*131 + s.Type.Hash()
			h = h*131 + uint64(s.Count&0xffffffff)
		}
	}
	p.key, p.hasKey = h, true
	return h
}

// Equal reports full equality of discrete state and counters.
func (p *PSI) Equal(o *PSI) bool {
	if p.Mask != o.Mask || len(p.Bags) != len(o.Bags) || !p.Tau.Equal(o.Tau) {
		return false
	}
	for i := range p.Bags {
		a, b := p.Bags[i].Items, o.Bags[i].Items
		if len(a) != len(b) {
			return false
		}
		for j := range a {
			if a[j].Count != b[j].Count || !a[j].Type.Equal(b[j].Type) {
				return false
			}
		}
	}
	return true
}

// Leq is the classic coverage order ≤: identical isomorphism type and
// child mask, counters pointwise dominated (missing entries count 0).
func (p *PSI) Leq(o *PSI) bool {
	if p.Mask != o.Mask || len(p.Bags) != len(o.Bags) || !p.Tau.Equal(o.Tau) {
		return false
	}
	for i := range p.Bags {
		for _, s := range p.Bags[i].Items {
			j := o.Bags[i].Find(s.Type)
			if j < 0 {
				return false
			}
			if oc := o.Bags[i].Items[j].Count; oc != Omega && (s.Count == Omega || s.Count > oc) {
				return false
			}
		}
	}
	return true
}

// Precedes decides the ⪯ relation of Definition 22, extended to multiple
// artifact relations and ω counts: p.Tau implies o.Tau, the child masks
// agree, and for each relation there is a flow mapping every stored tuple
// of p to a tuple of o with a less restrictive type.
func (p *PSI) Precedes(o *PSI) bool {
	ok, _ := p.precedes(o, false)
	return ok
}

// PrecedesWithSlack additionally reports, for each relation r and each
// entry i of o.Bags[r], whether some full flow leaves that entry's
// capacity strictly slack (∑ f(·,τ'S) < c'(τ'S)). The slack report drives
// the ⪯-based accelerate operator (Section 3.5).
func (p *PSI) PrecedesWithSlack(o *PSI) (bool, [][]bool) {
	return p.precedes(o, true)
}

func (p *PSI) precedes(o *PSI, wantSlack bool) (bool, [][]bool) {
	if p.Mask != o.Mask || len(p.Bags) != len(o.Bags) || !p.Tau.Implies(o.Tau) {
		return false, nil
	}
	var slack [][]bool
	if wantSlack {
		slack = make([][]bool, len(p.Bags))
	}
	for r := range p.Bags {
		ok, sl := bagFlow(p.Bags[r], o.Bags[r], wantSlack)
		if !ok {
			return false, nil
		}
		if wantSlack {
			slack[r] = sl
		}
	}
	return true, slack
}

// bagFlow decides whether every tuple of src maps one-to-one to a
// less-restrictive tuple of dst, via max-flow (paper Section 3.5). With
// wantSlack it also reports per-dst-entry slack feasibility.
func bagFlow(src, dst Bag, wantSlack bool) (bool, []bool) {
	ns, nd := len(src.Items), len(dst.Items)
	if ns == 0 {
		if !wantSlack {
			return true, nil
		}
		sl := make([]bool, nd)
		for j := range dst.Items {
			// With no sources every dst entry with positive capacity is
			// slack.
			sl[j] = dst.Items[j].Count > 0
		}
		return true, sl
	}
	// Admissible edges.
	edges := make([][]bool, ns)
	for i := range src.Items {
		edges[i] = make([]bool, nd)
		for j := range dst.Items {
			edges[i][j] = src.Items[i].Type.Implies(dst.Items[j].Type)
		}
	}
	// ω sources must map to an ω destination.
	for i, s := range src.Items {
		if s.Count != Omega {
			continue
		}
		found := false
		for j, d := range dst.Items {
			if edges[i][j] && d.Count == Omega {
				found = true
				break
			}
		}
		if !found {
			return false, nil
		}
	}
	var finiteTotal Count
	for _, s := range src.Items {
		if s.Count != Omega {
			finiteTotal += s.Count
		}
	}
	run := func(reduceJ int) bool {
		// Saturation of all finite sources, with dst entry reduceJ's
		// capacity reduced by one (-1 disables the reduction).
		g := maxflow.NewGraph(ns + nd + 2)
		s, t := ns+nd, ns+nd+1
		for i, it := range src.Items {
			if it.Count == Omega {
				continue // satisfied via its ω destination
			}
			g.AddEdge(s, i, it.Count)
		}
		for j, it := range dst.Items {
			c := it.Count
			if c == Omega {
				c = maxflow.Inf
			}
			if j == reduceJ {
				if it.Count == Omega {
					// ω capacity is always slack for finite flows.
					c = maxflow.Inf
				} else {
					c--
				}
			}
			g.AddEdge(ns+j, t, c)
		}
		for i := range edges {
			for j := range edges[i] {
				if edges[i][j] {
					g.AddEdge(i, ns+j, maxflow.Inf)
				}
			}
		}
		return g.MaxFlow(s, t) >= finiteTotal
	}
	if !run(-1) {
		return false, nil
	}
	if !wantSlack {
		return true, nil
	}
	sl := make([]bool, nd)
	for j, d := range dst.Items {
		if d.Count == Omega {
			sl[j] = true // finite inflow is always < ω
			continue
		}
		sl[j] = run(j)
	}
	return true, sl
}

// EdgeSet returns E(I): the union of the canonical edges of the variable
// type and of every stored type with positive count (paper Section 3.6),
// sorted and deduplicated. Used by the index structures. The result is
// memoized on first call and must not be mutated by callers.
func (p *PSI) EdgeSet() []uint64 {
	if p.edgeSet != nil {
		return p.edgeSet
	}
	out := append([]uint64(nil), p.Tau.Edges()...)
	for _, b := range p.Bags {
		for _, s := range b.Items {
			out = append(out, s.Type.Edges()...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// Deduplicate in place.
	w := 0
	for i, e := range out {
		if i == 0 || e != out[w-1] {
			out[w] = e
			w++
		}
	}
	if w == 0 {
		// Keep a non-nil sentinel so the memoization above can tell
		// "computed and empty" from "never computed".
		p.edgeSet = make([]uint64, 0)
	} else {
		p.edgeSet = out[:w]
	}
	return p.edgeSet
}

// String renders the PSI for diagnostics.
func (p *PSI) String() string {
	var sb strings.Builder
	sb.WriteString(p.Tau.String())
	fmt.Fprintf(&sb, " mask=%b", p.Mask)
	for r, b := range p.Bags {
		if len(b.Items) == 0 {
			continue
		}
		fmt.Fprintf(&sb, " S%d[", r)
		for i, s := range b.Items {
			if i > 0 {
				sb.WriteString(", ")
			}
			if s.Count == Omega {
				fmt.Fprintf(&sb, "ω×%s", s.Type.String())
			} else {
				fmt.Fprintf(&sb, "%d×%s", s.Count, s.Type.String())
			}
		}
		sb.WriteString("]")
	}
	return sb.String()
}
