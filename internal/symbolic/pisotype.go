package symbolic

import (
	"slices"
	"sort"
	"strings"

	"verifas/internal/has"
)

// EdgeFilter lets the static-analysis optimization (paper Section 3.7)
// suppress recording of non-violating constraints. A skipped =-edge still
// propagates to navigation children (which are filtered independently), so
// congruence-derived violating edges are never lost.
type EdgeFilter interface {
	// SkipEq reports that the =-edge (a,b) can never contribute to an
	// inconsistency and need not be recorded.
	SkipEq(a, b ExprID) bool
	// SkipNeq reports the same for the ≠-edge (a,b).
	SkipNeq(a, b ExprID) bool
}

// Pisotype is a partial isomorphism type (paper Definition 17): an
// undirected graph of = and ≠ edges over the universe's expressions,
// maintained closed under the key/foreign-key congruence (e ~ e' implies
// e.A ~ e'.A) and checked for consistency (no =-path connecting two
// distinct constants or the endpoints of a ≠-edge; navigation expressions
// are implicitly distinct from null since database attributes are never
// null).
//
// The =-classes are kept in a union-find; ≠-edges are kept between class
// representatives. The representation is flat and pointer-free below the
// header: a clone is three slice copies (the union-find array together
// with the member lists, the class records, and the ≠-pairs), and the
// garbage collector scans none of them. Mutating operations return false
// on inconsistency, after which the type must be discarded.
type Pisotype struct {
	u      *Universe
	filter EdgeFilter

	// parent is the union-find array. It is the head of mem, whose tail
	// holds the member lists of the multi-member classes (see cut).
	parent []ExprID
	mem    []ExprID
	// classes records the multi-member classes, sorted by representative.
	// Singleton classes are implicit.
	classes []class
	// neq is the ≠-adjacency between class representatives: each related
	// pair once, as encodeEdge(a, b, true), sorted ascending.
	neq []uint64

	canon []uint64 // cached canonical closed edge set
	hash  uint64
	// owner is the interner whose representative this type is (nil for
	// a type not interned). Only a representative may key the memo: its
	// pointer stands for its content, and it is never mutated.
	owner *Interner
}

// class is one multi-member =-class. constOf, delegate and hasNav hold
// what the class's merges recorded (see AddEq), which the representative
// alone may already imply; SizeBytes charges each recorded field, so they
// are kept as recorded.
type class struct {
	rep ExprID
	// off and n locate the members in the type's mem, in merge order:
	// the winning class's members, then the losing class's. Projections
	// replay this order, which fixes their representatives.
	off, n int32
	// constOf is the constant-like member (EConst or ENull), or NoExpr.
	constOf ExprID
	// delegate is an ID-sorted member (whose navigation children stand
	// for the whole class's), or NoExpr.
	delegate ExprID
	// hasNav records an ENav member (navigation expressions denote
	// database values, never null).
	hasNav bool
}

// typeSlack is the spare room, in expressions, that a type's mem keeps
// for the member lists of the merges that follow its creation or clone.
const typeSlack = 16

// NewPisotype returns the unconstrained type over the universe.
func NewPisotype(u *Universe, filter EdgeFilter) *Pisotype {
	t := &Pisotype{}
	t.reset(u, filter)
	return t
}

// reset makes t the unconstrained type over the universe, reusing its
// slices when they are large enough.
func (t *Pisotype) reset(u *Universe, filter EdgeFilter) {
	n := len(u.Exprs)
	mem := t.mem[:0]
	if cap(mem) < n+typeSlack {
		mem = make([]ExprID, 0, n+typeSlack)
	}
	for i := 0; i < n; i++ {
		mem = append(mem, ExprID(i))
	}
	*t = Pisotype{u: u, filter: filter, parent: mem[:n:n], mem: mem, classes: t.classes[:0], neq: t.neq[:0]}
}

// Universe returns the type's universe.
func (t *Pisotype) Universe() *Universe { return t.u }

// Clone returns an independent copy, which shares no memory with t.
func (t *Pisotype) Clone() *Pisotype {
	c := t.cloneUnsealed()
	c.canon = slices.Clone(t.canon)
	return c
}

// cloneUnsealed returns an independent copy without the cached edge set.
func (t *Pisotype) cloneUnsealed() *Pisotype {
	c := &Pisotype{
		u:       t.u,
		filter:  t.filter,
		classes: slices.Clone(t.classes),
		neq:     slices.Clone(t.neq),
		hash:    t.hash,
	}
	c.compact(t, 0)
	return c
}

// cloneInto makes dst a copy of t, reusing dst's slices: the clone of a
// scratch type (see typeArena), which allocates only when one of dst's
// slices is too small. dst shares t's cached edge set until its first
// write.
func (t *Pisotype) cloneInto(dst *Pisotype) {
	dst.u, dst.filter = t.u, t.filter
	dst.classes = append(dst.classes[:0], t.classes...)
	dst.neq = append(dst.neq[:0], t.neq...)
	dst.canon, dst.hash, dst.owner = t.canon, t.hash, nil
	dst.compact(t, 0)
}

// compact copies src's union-find array and live member lists into t's
// mem, with room for extra more members plus typeSlack; t.classes must
// hold src's records. Member lists that merges replaced are left behind.
// The copy reuses t's mem when t is not src and mem is large enough, and
// goes to a fresh one otherwise.
func (t *Pisotype) compact(src *Pisotype, extra int) {
	n, live := len(src.parent), 0
	for i := range t.classes {
		live += int(t.classes[i].n)
	}
	need := n + live + extra + typeSlack
	var mem []ExprID
	if t != src && cap(t.mem) >= need {
		mem = t.mem[:n]
	} else {
		mem = make([]ExprID, n, need)
	}
	copy(mem, src.parent)
	for i := range t.classes {
		c := &t.classes[i]
		off := len(mem)
		mem = append(mem, src.mem[c.off:c.off+c.n]...)
		c.off = int32(off)
	}
	t.parent, t.mem = mem[:n:n], mem
}

// cut reserves k slots at the end of mem for a new member list and
// returns their offset. The filled slots of a list are never written
// again: a merge writes the merged list anew.
func (t *Pisotype) cut(k int) int32 {
	if cap(t.mem)-len(t.mem) < k {
		// Room for as many members again as the lists so far hold.
		t.compact(t, len(t.mem)-len(t.parent)+k)
	}
	off := len(t.mem)
	t.mem = t.mem[:off+k]
	return int32(off)
}

func (t *Pisotype) find(e ExprID) ExprID {
	root := e
	for t.parent[root] != root {
		root = t.parent[root]
	}
	for t.parent[e] != root {
		t.parent[e], e = root, t.parent[e]
	}
	return root
}

// classIndex returns the index of rep's record in t.classes, or -1 when
// rep's class is a singleton.
func (t *Pisotype) classIndex(rep ExprID) int {
	for i := range t.classes {
		if r := t.classes[i].rep; r >= rep {
			if r == rep {
				return i
			}
			break
		}
	}
	return -1
}

// membersAt returns the members of rep's class, whose record is at index
// i (-1 for a singleton). A singleton's list is its own union-find slot,
// so the call allocates nothing; the result is valid until the type is
// next mutated.
func (t *Pisotype) membersAt(rep ExprID, i int) []ExprID {
	if i < 0 {
		return t.parent[rep : rep+1 : rep+1]
	}
	c := &t.classes[i]
	return t.mem[c.off : c.off+c.n : c.off+c.n]
}

func (t *Pisotype) membersOf(rep ExprID) []ExprID { return t.membersAt(rep, t.classIndex(rep)) }

// constAt returns the constant-like member of rep's class (record index
// i, -1 for a singleton), if any.
func (t *Pisotype) constAt(rep ExprID, i int) (ExprID, bool) {
	if i >= 0 && t.classes[i].constOf != NoExpr {
		return t.classes[i].constOf, true
	}
	if t.u.IsConstLike(rep) {
		return rep, true
	}
	return NoExpr, false
}

// delegateAt returns the delegate of rep's class (record index i, -1 for
// a singleton), if any.
func (t *Pisotype) delegateAt(rep ExprID, i int) (ExprID, bool) {
	if i >= 0 && t.classes[i].delegate != NoExpr {
		return t.classes[i].delegate, true
	}
	if t.u.Exprs[rep].Type.IsID() {
		return rep, true
	}
	return NoExpr, false
}

func (t *Pisotype) hasNavAt(rep ExprID, i int) bool {
	if i >= 0 && t.classes[i].hasNav {
		return true
	}
	return t.u.Exprs[rep].Kind == ENav
}

// sortAt returns the ID/value sort of rep's class (record index i) from
// any non-null member, or ok=false when the class contains null — in
// that case every member IS null and sorts are irrelevant.
func (t *Pisotype) sortAt(rep ExprID, i int) (has.VarType, bool) {
	if c, ok := t.constAt(rep, i); ok && t.u.Exprs[c].Kind == ENull {
		return has.VarType{}, false
	}
	for _, m := range t.membersAt(rep, i) {
		switch t.u.Exprs[m].Kind {
		case ENull:
		default:
			return t.u.Exprs[m].Type, true
		}
	}
	return has.VarType{}, false
}

// Eq reports whether the type entails a = b.
func (t *Pisotype) Eq(a, b ExprID) bool { return t.find(a) == t.find(b) }

// Neq reports whether the type entails a ≠ b (explicitly or implicitly via
// distinct constants or the null/navigation rule).
func (t *Pisotype) Neq(a, b ExprID) bool {
	fa, fb := t.find(a), t.find(b)
	if fa == fb {
		return false
	}
	if t.neqReps(fa, fb) {
		return true
	}
	return t.implicitNeq(fa, t.classIndex(fa), fb, t.classIndex(fb))
}

// implicitNeq reports the disequalities between two classes (records at
// ia and ib) that their constants and navigation members force.
func (t *Pisotype) implicitNeq(fa ExprID, ia int, fb ExprID, ib int) bool {
	ca, oka := t.constAt(fa, ia)
	cb, okb := t.constAt(fb, ib)
	if oka && okb && ca != cb {
		return true
	}
	if oka && t.u.Exprs[ca].Kind == ENull && t.hasNavAt(fb, ib) {
		return true
	}
	if okb && t.u.Exprs[cb].Kind == ENull && t.hasNavAt(fa, ia) {
		return true
	}
	return false
}

// AddEq asserts a = b, closing under congruence. It returns false when the
// assertion is inconsistent with the type, in which case the type is
// corrupted and must be discarded.
func (t *Pisotype) AddEq(a, b ExprID) bool {
	fa, fb := t.find(a), t.find(b)
	if fa == fb {
		return true
	}
	ia, ib := t.classIndex(fa), t.classIndex(fb)
	if t.neqReps(fa, fb) || t.implicitNeq(fa, ia, fb, ib) {
		return false
	}
	// Sort compatibility: distinct sorts have disjoint domains except for
	// null, so equating them forces both sides to null.
	sa, oka := t.sortAt(fa, ia)
	sb, okb := t.sortAt(fb, ib)
	if oka && okb && sa != sb {
		if !t.AddEq(a, t.u.NullExpr) {
			return false
		}
		if !t.classHasNull(t.find(a)) {
			// The filter skipped a = null, so the sorts still clash and a
			// retry would recurse forever. What remains of a = b is
			// b = null, which cannot clash.
			return t.AddEq(b, t.u.NullExpr)
		}
		// The class of a now contains null; retry (no clash possible).
		return t.AddEq(a, b)
	}
	if t.filter != nil && t.filter.SkipEq(a, b) {
		// Non-violating edge: do not record, but derived child edges may
		// still matter and are filtered independently. Classes containing
		// null have no rows to navigate: skip propagation.
		da, oka := t.delegateAt(fa, ia)
		db, okb := t.delegateAt(fb, ib)
		if oka && okb && t.u.Exprs[da].Type == t.u.Exprs[db].Type {
			for i := range t.u.NavAll(da) {
				ca, cb := t.u.Nav(da, i), t.u.Nav(db, i)
				if !t.AddEq(ca, cb) {
					return false
				}
			}
		}
		return true
	}
	t.canon = nil

	// Merge smaller class into larger.
	if len(t.membersAt(fa, ia)) < len(t.membersAt(fb, ib)) {
		fa, fb, ia, ib = fb, fa, ib, ia
	}
	win, lose, iw, il := fa, fb, ia, ib

	// Collect pre-merge delegates for congruence.
	dw, okw := t.delegateAt(win, iw)
	dl, okl := t.delegateAt(lose, il)

	rec := class{rep: win, constOf: NoExpr, delegate: NoExpr}
	if iw >= 0 {
		rec = t.classes[iw]
	}
	if c, ok := t.constAt(lose, il); ok {
		rec.constOf = c
	}
	if okl && !okw {
		rec.delegate = dl
	} else if okw {
		rec.delegate = dw
	}
	mw, ml := t.membersAt(win, iw), t.membersAt(lose, il)
	if t.classHasNavRaw(ml) {
		rec.hasNav = true
	}
	// cut may move mem; mw and ml keep pointing at the old one, whose
	// filled slots stay as they are.
	rec.off = t.cut(len(mw) + len(ml))
	copy(t.mem[rec.off:], mw)
	copy(t.mem[int(rec.off)+len(mw):], ml)
	rec.n = int32(len(mw) + len(ml))
	t.parent[lose] = win
	t.setClass(rec, il)

	// Rewrite the ≠-pairs of the losing representative.
	moved := false
	for i, e := range t.neq {
		x, y := edgeEnds(e)
		switch lose {
		case x:
			x = win
		case y:
			y = win
		default:
			continue
		}
		t.neq[i] = encodeEdge(x, y, true)
		moved = true
	}
	if moved {
		slices.Sort(t.neq)
		t.neq = slices.Compact(t.neq)
	}

	// Congruence: link the navigation children of the two delegates —
	// but only when their ID sorts agree. A class containing null may mix
	// ID sorts (x = null = y with x, y of different sorts); no rows exist
	// to navigate in that case, and the sorts-differ guard skips it.
	// Propagation into same-sorted null classes is kept (vacuous but
	// harmless) so that canonical forms stay insertion-order independent.
	if okw && okl && t.u.Exprs[dw].Type == t.u.Exprs[dl].Type {
		for i := range t.u.NavAll(dw) {
			ca, cb := t.u.Nav(dw, i), t.u.Nav(dl, i)
			if !t.AddEq(ca, cb) {
				return false
			}
		}
	}
	return true
}

// setClass stores rec as the record of its representative, replacing an
// existing record or inserting one in representative order, and drops
// the merged-away record at index lose (-1 for a singleton).
func (t *Pisotype) setClass(rec class, lose int) {
	if lose >= 0 {
		t.classes = slices.Delete(t.classes, lose, lose+1)
	}
	i := 0
	for i < len(t.classes) && t.classes[i].rep < rec.rep {
		i++
	}
	if i < len(t.classes) && t.classes[i].rep == rec.rep {
		t.classes[i] = rec
		return
	}
	t.classes = slices.Insert(t.classes, i, rec)
}

// classHasNull reports whether the class contains the null constant.
func (t *Pisotype) classHasNull(rep ExprID) bool {
	c, ok := t.constAt(rep, t.classIndex(rep))
	return ok && t.u.Exprs[c].Kind == ENull
}

func (t *Pisotype) classHasNavRaw(members []ExprID) bool {
	for _, m := range members {
		if t.u.Exprs[m].Kind == ENav {
			return true
		}
	}
	return false
}

// neqReps reports an explicit ≠-edge between two representatives.
func (t *Pisotype) neqReps(a, b ExprID) bool {
	_, ok := slices.BinarySearch(t.neq, encodeEdge(a, b, true))
	return ok
}

func (t *Pisotype) addNeqReps(a, b ExprID) {
	e := encodeEdge(a, b, true)
	if i, ok := slices.BinarySearch(t.neq, e); !ok {
		t.neq = slices.Insert(t.neq, i, e)
	}
}

// AddNeq asserts a ≠ b. It returns false when inconsistent (a and b are
// already equal). Disequalities that are intrinsic to the expressions
// themselves (distinct constants; null vs. a navigation expression) are
// entailed vacuously and never recorded; all other entailed disequalities
// ARE recorded, keeping the canonical form independent of the order in
// which constraints arrive.
func (t *Pisotype) AddNeq(a, b ExprID) bool {
	fa, fb := t.find(a), t.find(b)
	if fa == fb {
		return false
	}
	if t.intrinsicNeq(a, b) {
		return true
	}
	if t.neqReps(fa, fb) {
		return true
	}
	if t.filter != nil && t.filter.SkipNeq(a, b) {
		return true
	}
	t.canon = nil
	t.addNeqReps(fa, fb)
	return true
}

// intrinsicNeq reports disequalities that hold for the raw expressions
// regardless of any accumulated constraints.
func (t *Pisotype) intrinsicNeq(a, b ExprID) bool {
	ka, kb := t.u.Exprs[a].Kind, t.u.Exprs[b].Kind
	constLike := func(k ExprKind) bool { return k == EConst || k == ENull }
	if constLike(ka) && constLike(kb) && a != b {
		return true
	}
	if ka == ENull && kb == ENav {
		return true
	}
	if kb == ENull && ka == ENav {
		return true
	}
	return false
}

// constrainedClasses appends to buf the representatives of classes
// carrying information — multi-member classes and classes with explicit
// ≠-edges — in ascending order.
func (t *Pisotype) constrainedClasses(buf []ExprID) []ExprID {
	for i := range t.classes {
		buf = append(buf, t.classes[i].rep)
	}
	return t.neqEnds(buf)
}

// neqEnds appends to buf the representatives with explicit ≠-edges and
// returns buf sorted and without duplicates.
func (t *Pisotype) neqEnds(buf []ExprID) []ExprID {
	for _, e := range t.neq {
		a, b := edgeEnds(e)
		buf = append(buf, a, b)
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

const edgeNeqBit = 1

func encodeEdge(a, b ExprID, neq bool) uint64 {
	if a > b {
		a, b = b, a
	}
	v := uint64(a)<<33 | uint64(b)<<1
	if neq {
		v |= edgeNeqBit
	}
	return v
}

// edgeEnds decodes the endpoints of an encoded edge, smaller first.
func edgeEnds(e uint64) (ExprID, ExprID) {
	return ExprID(e >> 33), ExprID(uint32(e) >> 1)
}

// Edges returns the canonical closed edge set: every pair within a
// multi-member class as an =-edge and every cross pair of explicitly
// ≠-related classes as a ≠-edge, sorted ascending. The result is cached
// and must not be mutated.
func (t *Pisotype) Edges() []uint64 {
	if t.canon != nil {
		return t.canon
	}
	return t.seal(nil)
}

// seal computes the canonical edge set into buf's memory when it has room
// (into a fresh exact-size slice otherwise), caches it with its hash and
// returns it.
func (t *Pisotype) seal(buf []uint64) []uint64 {
	n := 0
	for i := range t.classes {
		m := int(t.classes[i].n)
		n += m * (m - 1) / 2
	}
	for _, e := range t.neq {
		a, b := edgeEnds(e)
		n += len(t.membersOf(a)) * len(t.membersOf(b))
	}
	// Never nil, even when empty: the nil sentinel would make every
	// Edges call recompute and re-write canon/hash, racing once the type
	// is interned and shared.
	out := buf[:0]
	if cap(out) < n || out == nil {
		out = make([]uint64, 0, n)
	}
	for i := range t.classes {
		ms := t.membersAt(t.classes[i].rep, i)
		for j, a := range ms {
			for _, b := range ms[j+1:] {
				out = append(out, encodeEdge(a, b, false))
			}
		}
	}
	for _, e := range t.neq {
		ra, rb := edgeEnds(e)
		for _, a := range t.membersOf(ra) {
			for _, b := range t.membersOf(rb) {
				out = append(out, encodeEdge(a, b, true))
			}
		}
	}
	slices.Sort(out)
	t.canon = out
	t.hash = hashEdges(out)
	return out
}

func hashEdges(edges []uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, e := range edges {
		for s := 0; s < 64; s += 16 {
			h ^= (e >> s) & 0xffff
			h *= 1099511628211
		}
	}
	return h
}

// Hash returns a hash of the canonical edge set.
func (t *Pisotype) Hash() uint64 {
	t.Edges()
	return t.hash
}

// Equal reports whether two types have identical constraint sets.
// Interned types (see Interner) compare by pointer without touching the
// edge sets.
func (t *Pisotype) Equal(o *Pisotype) bool {
	if t == o {
		return true
	}
	a, b := t.Edges(), o.Edges()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Implies reports τ |= τ' (paper Section 3.5): every constraint of o is a
// constraint of t, i.e. o's closed edge set is a subset of t's.
func (t *Pisotype) Implies(o *Pisotype) bool {
	if t == o {
		return true
	}
	return subsetSorted(o.Edges(), t.Edges())
}

func subsetSorted(sub, sup []uint64) bool {
	i := 0
	for _, e := range sub {
		for i < len(sup) && sup[i] < e {
			i++
		}
		if i >= len(sup) || sup[i] != e {
			return false
		}
		i++
	}
	return true
}

// RootPair maps a source root to a target root for transport operations.
type RootPair struct {
	From, To ExprID
}

// TransportProject projects the type onto the expressions rooted at the
// pairs' From roots (plus constants) and renames them to the To roots,
// producing e.g. the stored-tuple type f_{z̄→S}(τ|z̄) of an insertion.
// Repeated From roots are allowed (inserting the same variable twice) and
// induce equalities between their images. Returns nil if the result is
// inconsistent (cannot happen for well-typed transports; defensive).
func (t *Pisotype) TransportProject(pairs []RootPair) *Pisotype {
	out := &Pisotype{}
	if !t.transportProjectInto(out, pairs) {
		return nil
	}
	return out
}

// transportProjectInto makes dst the TransportProject of t, reusing
// dst's slices. It returns false when the result is inconsistent.
func (t *Pisotype) transportProjectInto(dst *Pisotype, pairs []RootPair) bool {
	dst.reset(t.u, t.filter)
	// Repeated source roots carry the same value into several targets:
	// make the targets (and hence, by congruence, their navigations)
	// equal even when the source is otherwise unconstrained.
	for i := range pairs {
		for j := i + 1; j < len(pairs); j++ {
			if pairs[i].From == pairs[j].From {
				if !dst.AddEq(pairs[i].To, pairs[j].To) {
					return false
				}
			}
		}
	}
	return t.copyConstraints(dst, imageMap{kind: imageTransport, pairs: pairs})
}

// imageKind discriminates the expression mappings of constraint copies.
type imageKind uint8

const (
	// imageIdentity maps every expression to itself.
	imageIdentity imageKind = iota
	// imageProject maps an expression to itself when its root is kept,
	// and to nothing otherwise.
	imageProject
	// imageTransport maps an expression rooted at a pair's From root to
	// the same path under the pair's To root, once per matching pair.
	imageTransport
)

// imageMap is the expression mapping of a constraint copy. Constants and
// null always map to themselves.
type imageMap struct {
	kind imageKind
	// keep marks, by expression, the roots a projection keeps.
	keep []bool
	// pairs are a transport's root pairs.
	pairs []RootPair
}

// images appends the images of e to buf and returns it: zero or more
// target expressions, which become mutually equal.
func (m *imageMap) images(u *Universe, e ExprID, buf []ExprID) []ExprID {
	if m.kind == imageIdentity || u.IsConstLike(e) {
		return append(buf, e)
	}
	root := u.RootOf(e)
	if m.kind == imageProject {
		if m.keep[root] {
			buf = append(buf, e)
		}
		return buf
	}
	for _, p := range m.pairs {
		if p.From == root {
			if img := u.Transport(e, p.From, p.To); img != NoExpr {
				buf = append(buf, img)
			}
		}
	}
	return buf
}

// Project keeps only the constraints among expressions whose root
// satisfies keep (constants and null are always kept). Transitive and
// congruence-derived constraints among kept expressions survive, because
// they are queried from the closure rather than copied edge-by-edge.
func (t *Pisotype) Project(keep func(root ExprID) bool) *Pisotype {
	mask := make([]bool, len(t.u.Exprs))
	for e := range mask {
		if t.u.Exprs[e].Kind == ERoot {
			mask[e] = keep(ExprID(e))
		}
	}
	out := &Pisotype{}
	t.projectInto(out, mask)
	return out
}

// projectInto makes dst the projection of t onto the roots keep marks,
// by expression, reusing dst's slices.
func (t *Pisotype) projectInto(dst *Pisotype, keep []bool) {
	dst.reset(t.u, t.filter)
	if !t.copyConstraints(dst, imageMap{kind: imageProject, keep: keep}) {
		// Projection of a consistent type is consistent; reaching here
		// indicates an internal invariant violation.
		panic("symbolic: projection produced an inconsistent type")
	}
}

// copyConstraints rebuilds t's constraints in dst under an image mapping.
func (t *Pisotype) copyConstraints(dst *Pisotype, m imageMap) bool {
	var stack [32]ExprID
	var buf [8]ExprID
	imgs := buf[:0]
	for _, rep := range t.constrainedClasses(stack[:0]) {
		var prev ExprID = NoExpr
		for _, e := range t.membersOf(rep) {
			imgs = m.images(t.u, e, imgs[:0])
			for _, img := range imgs {
				if prev != NoExpr {
					if !dst.AddEq(prev, img) {
						return false
					}
				}
				prev = img
			}
		}
	}
	// ≠ edges: one representative image per side suffices, since all
	// images of one class are now equal in dst.
	for _, e := range t.neq {
		ra, rb := edgeEnds(e)
		a, b := t.firstImage(ra, &m, imgs), t.firstImage(rb, &m, imgs)
		if a != NoExpr && b != NoExpr {
			if !dst.AddNeq(a, b) {
				return false
			}
		}
	}
	return true
}

// firstImage returns the first image of the class of rep, or NoExpr;
// buf is scratch space for images.
func (t *Pisotype) firstImage(rep ExprID, m *imageMap, buf []ExprID) ExprID {
	for _, e := range t.membersOf(rep) {
		if imgs := m.images(t.u, e, buf[:0]); len(imgs) > 0 {
			return imgs[0]
		}
	}
	return NoExpr
}

// MergeTransported adds all constraints of src into t, transporting
// expressions through the given root pairs (used when retrieving a stored
// tuple type back into task variables). Returns false on inconsistency.
func (t *Pisotype) MergeTransported(src *Pisotype, pairs []RootPair) bool {
	t.canon = nil
	return src.copyConstraints(t, imageMap{kind: imageTransport, pairs: pairs})
}

// MergeFrom adds all constraints of src (same universe) into t. Returns
// false on inconsistency.
func (t *Pisotype) MergeFrom(src *Pisotype) bool {
	t.canon = nil
	return src.copyConstraints(t, imageMap{})
}

// NumConstraints returns the size of the canonical edge set (a measure of
// how constrained the type is).
func (t *Pisotype) NumConstraints() int { return len(t.Edges()) }

// SizeBytes deterministically estimates the retained heap size of the
// type: struct header, union-find array, constraint records, and the
// sealed canonical edge set. It is an accounting estimate for the
// memory-budget machinery, not a precise measurement — what matters is
// that it is a pure function of the type's contents and merge history,
// so budget cutoffs are reproducible across runs. Its per-part charges
// are fixed figures, kept stable so that a budget trips at the same
// state from one version to the next.
func (t *Pisotype) SizeBytes() int {
	sz := 160 + 4*len(t.parent) // struct + slice headers + parent array
	for i := range t.classes {
		c := &t.classes[i]
		sz += 48 + 4*int(c.n)
		if c.constOf != NoExpr {
			sz += 16
		}
		if c.delegate != NoExpr {
			sz += 16
		}
		if c.hasNav {
			sz += 16
		}
	}
	// Per ≠-related representative: an adjacency header, plus one entry
	// on each side of every pair.
	var stack [32]ExprID
	sz += 48*len(t.neqEnds(stack[:0])) + 32*len(t.neq)
	sz += 8 * len(t.Edges())
	return sz
}

// String renders the constraints for diagnostics.
func (t *Pisotype) String() string {
	var parts []string
	for i := range t.classes {
		ms := t.membersAt(t.classes[i].rep, i)
		names := make([]string, len(ms))
		for j, m := range ms {
			names[j] = t.u.ExprString(m)
		}
		sort.Strings(names)
		parts = append(parts, strings.Join(names, "="))
	}
	for _, e := range t.neq {
		a, b := edgeEnds(e)
		x, y := t.u.ExprString(a), t.u.ExprString(b)
		if y < x {
			x, y = y, x
		}
		parts = append(parts, x+"!="+y)
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}
