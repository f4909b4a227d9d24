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
// The =-classes are kept in a union-find; ≠-edges are kept as an adjacency
// set between class representatives. Mutating operations return false on
// inconsistency, after which the type must be discarded.
type Pisotype struct {
	u      *Universe
	filter EdgeFilter

	parent []ExprID
	// members lists the expressions of multi-member classes, keyed by
	// representative. Singleton classes are implicit.
	members map[ExprID][]ExprID
	// neq is the ≠-adjacency between class representatives.
	neq map[ExprID]map[ExprID]bool
	// constOf maps a representative to the constant-like member (EConst
	// or ENull) of its class, if any.
	constOf map[ExprID]ExprID
	// delegate maps a representative to an ID-sorted member (whose
	// navigation children stand for the whole class's), if any.
	delegate map[ExprID]ExprID
	// hasNav maps a representative to whether the class contains an ENav
	// member (navigation expressions denote database values, never null).
	hasNav map[ExprID]bool

	canon []uint64 // cached canonical closed edge set
	hash  uint64
	// owner is the interner whose representative this type is (nil for
	// a type not interned). Only a representative may key the memo: its
	// pointer stands for its content, and it is never mutated.
	owner *Interner
}

// NewPisotype returns the unconstrained type over the universe.
func NewPisotype(u *Universe, filter EdgeFilter) *Pisotype {
	t := &Pisotype{
		u:        u,
		filter:   filter,
		parent:   make([]ExprID, len(u.Exprs)),
		members:  map[ExprID][]ExprID{},
		neq:      map[ExprID]map[ExprID]bool{},
		constOf:  map[ExprID]ExprID{},
		delegate: map[ExprID]ExprID{},
		hasNav:   map[ExprID]bool{},
	}
	for i := range t.parent {
		t.parent[i] = ExprID(i)
	}
	return t
}

// Universe returns the type's universe.
func (t *Pisotype) Universe() *Universe { return t.u }

// Clone returns an independent copy.
func (t *Pisotype) Clone() *Pisotype {
	c := &Pisotype{
		u:        t.u,
		filter:   t.filter,
		parent:   append([]ExprID(nil), t.parent...),
		members:  make(map[ExprID][]ExprID, len(t.members)),
		neq:      make(map[ExprID]map[ExprID]bool, len(t.neq)),
		constOf:  make(map[ExprID]ExprID, len(t.constOf)),
		delegate: make(map[ExprID]ExprID, len(t.delegate)),
		hasNav:   make(map[ExprID]bool, len(t.hasNav)),
		canon:    t.canon,
		hash:     t.hash,
	}
	for k, v := range t.members {
		c.members[k] = append([]ExprID(nil), v...)
	}
	for k, v := range t.neq {
		m := make(map[ExprID]bool, len(v))
		for kk := range v {
			m[kk] = true
		}
		c.neq[k] = m
	}
	for k, v := range t.constOf {
		c.constOf[k] = v
	}
	for k, v := range t.delegate {
		c.delegate[k] = v
	}
	for k, v := range t.hasNav {
		c.hasNav[k] = v
	}
	return c
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

func (t *Pisotype) membersOf(rep ExprID) []ExprID {
	if m, ok := t.members[rep]; ok {
		return m
	}
	return []ExprID{rep}
}

func (t *Pisotype) classConst(rep ExprID) (ExprID, bool) {
	if c, ok := t.constOf[rep]; ok {
		return c, true
	}
	if t.u.IsConstLike(rep) {
		return rep, true
	}
	return NoExpr, false
}

func (t *Pisotype) classDelegate(rep ExprID) (ExprID, bool) {
	if d, ok := t.delegate[rep]; ok {
		return d, true
	}
	if t.u.Exprs[rep].Type.IsID() {
		return rep, true
	}
	return NoExpr, false
}

func (t *Pisotype) classHasNav(rep ExprID) bool {
	if t.hasNav[rep] {
		return true
	}
	return t.u.Exprs[rep].Kind == ENav
}

// classSort returns the ID/value sort of the class (from any non-null
// member), or ok=false when the class contains null — in that case every
// member IS null and sorts are irrelevant.
func (t *Pisotype) classSort(rep ExprID) (has.VarType, bool) {
	if c, ok := t.classConst(rep); ok && t.u.Exprs[c].Kind == ENull {
		return has.VarType{}, false
	}
	for _, m := range t.membersOf(rep) {
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
	if t.neq[fa][fb] {
		return true
	}
	return t.implicitNeq(fa, fb)
}

func (t *Pisotype) implicitNeq(fa, fb ExprID) bool {
	ca, oka := t.classConst(fa)
	cb, okb := t.classConst(fb)
	if oka && okb && ca != cb {
		return true
	}
	if oka && t.u.Exprs[ca].Kind == ENull && t.classHasNav(fb) {
		return true
	}
	if okb && t.u.Exprs[cb].Kind == ENull && t.classHasNav(fa) {
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
	if t.neq[fa][fb] || t.implicitNeq(fa, fb) {
		return false
	}
	// Sort compatibility: distinct sorts have disjoint domains except for
	// null, so equating them forces both sides to null.
	sa, oka := t.classSort(fa)
	sb, okb := t.classSort(fb)
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
		da, oka := t.classDelegate(fa)
		db, okb := t.classDelegate(fb)
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
	if len(t.membersOf(fa)) < len(t.membersOf(fb)) {
		fa, fb = fb, fa
	}
	win, lose := fa, fb

	// Collect pre-merge delegates for congruence.
	dw, okw := t.classDelegate(win)
	dl, okl := t.classDelegate(lose)

	mw := t.membersOf(win)
	ml := t.membersOf(lose)
	merged := make([]ExprID, 0, len(mw)+len(ml))
	merged = append(merged, mw...)
	merged = append(merged, ml...)
	t.members[win] = merged
	delete(t.members, lose)
	t.parent[lose] = win

	if c, ok := t.classConst(lose); ok {
		t.constOf[win] = c
	}
	delete(t.constOf, lose)
	if okl && !okw {
		t.delegate[win] = dl
	} else if okw {
		t.delegate[win] = dw
	}
	delete(t.delegate, lose)
	if t.classHasNavRaw(ml) {
		t.hasNav[win] = true
	}
	delete(t.hasNav, lose)

	// Rewrite ≠-adjacency of the losing representative.
	if adj, ok := t.neq[lose]; ok {
		for other := range adj {
			delete(t.neq[other], lose)
			t.addNeqReps(win, other)
		}
		delete(t.neq, lose)
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

// classHasNull reports whether the class contains the null constant.
func (t *Pisotype) classHasNull(rep ExprID) bool {
	c, ok := t.classConst(rep)
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

func (t *Pisotype) addNeqReps(a, b ExprID) {
	if t.neq[a] == nil {
		t.neq[a] = map[ExprID]bool{}
	}
	if t.neq[b] == nil {
		t.neq[b] = map[ExprID]bool{}
	}
	t.neq[a][b] = true
	t.neq[b][a] = true
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
	if t.neq[fa][fb] {
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

// constrainedClasses returns the representatives of classes carrying
// information: multi-member classes and classes with explicit ≠-edges.
func (t *Pisotype) constrainedClasses() []ExprID {
	set := map[ExprID]bool{}
	for rep := range t.members {
		set[rep] = true
	}
	for rep, adj := range t.neq {
		if len(adj) > 0 {
			set[rep] = true
		}
	}
	out := make([]ExprID, 0, len(set))
	for rep := range set {
		out = append(out, rep)
	}
	slices.Sort(out)
	return out
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

// Edges returns the canonical closed edge set: every pair within a
// multi-member class as an =-edge and every cross pair of explicitly
// ≠-related classes as a ≠-edge, sorted ascending. The result is cached
// and must not be mutated.
func (t *Pisotype) Edges() []uint64 {
	if t.canon != nil {
		return t.canon
	}
	var out []uint64
	for _, ms := range t.members {
		sorted := append([]ExprID(nil), ms...)
		slices.Sort(sorted)
		for i := 0; i < len(sorted); i++ {
			for j := i + 1; j < len(sorted); j++ {
				out = append(out, encodeEdge(sorted[i], sorted[j], false))
			}
		}
	}
	seen := map[uint64]bool{}
	for ra, adj := range t.neq {
		for rb := range adj {
			if rb < ra {
				continue
			}
			code := encodeEdge(ra, rb, true)
			if seen[code] {
				continue
			}
			seen[code] = true
			for _, a := range t.membersOf(ra) {
				for _, b := range t.membersOf(rb) {
					out = append(out, encodeEdge(a, b, true))
				}
			}
		}
	}
	slices.Sort(out)
	if out == nil {
		// A constraint-free type still needs a non-nil cache: the nil
		// sentinel would make every Edges call recompute and re-write
		// canon/hash, racing once the type is interned and shared.
		out = []uint64{}
	}
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
	out := NewPisotype(t.u, t.filter)
	// Repeated source roots carry the same value into several targets:
	// make the targets (and hence, by congruence, their navigations)
	// equal even when the source is otherwise unconstrained.
	for i := range pairs {
		for j := i + 1; j < len(pairs); j++ {
			if pairs[i].From == pairs[j].From {
				if !out.AddEq(pairs[i].To, pairs[j].To) {
					return nil
				}
			}
		}
	}
	images := func(e ExprID) []ExprID {
		if t.u.IsConstLike(e) {
			return []ExprID{e}
		}
		root := t.u.RootOf(e)
		var out []ExprID
		for _, p := range pairs {
			if p.From == root {
				if img := t.u.Transport(e, p.From, p.To); img != NoExpr {
					out = append(out, img)
				}
			}
		}
		return out
	}
	if !t.copyConstraints(out, images) {
		return nil
	}
	return out
}

// Project keeps only the constraints among expressions whose root
// satisfies keep (constants and null are always kept). Transitive and
// congruence-derived constraints among kept expressions survive, because
// they are queried from the closure rather than copied edge-by-edge.
func (t *Pisotype) Project(keep func(root ExprID) bool) *Pisotype {
	out := NewPisotype(t.u, t.filter)
	images := func(e ExprID) []ExprID {
		if t.u.IsConstLike(e) {
			return []ExprID{e}
		}
		if keep(t.u.RootOf(e)) {
			return []ExprID{e}
		}
		return nil
	}
	if !t.copyConstraints(out, images) {
		// Projection of a consistent type is consistent; reaching here
		// indicates an internal invariant violation.
		panic("symbolic: projection produced an inconsistent type")
	}
	return out
}

// copyConstraints rebuilds t's constraints in dst under an image mapping
// (each expression maps to zero or more target expressions; multiple
// images become mutually equal).
func (t *Pisotype) copyConstraints(dst *Pisotype, images func(ExprID) []ExprID) bool {
	for _, rep := range t.constrainedClasses() {
		var prev ExprID = NoExpr
		for _, m := range t.membersOf(rep) {
			for _, img := range images(m) {
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
	seen := map[uint64]bool{}
	for ra, adj := range t.neq {
		for rb := range adj {
			if rb < ra {
				continue
			}
			code := encodeEdge(ra, rb, true)
			if seen[code] {
				continue
			}
			seen[code] = true
			a := t.firstImage(ra, images)
			b := t.firstImage(rb, images)
			if a != NoExpr && b != NoExpr {
				if !dst.AddNeq(a, b) {
					return false
				}
			}
		}
	}
	return true
}

func (t *Pisotype) firstImage(rep ExprID, images func(ExprID) []ExprID) ExprID {
	for _, m := range t.membersOf(rep) {
		if imgs := images(m); len(imgs) > 0 {
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
	images := func(e ExprID) []ExprID {
		if src.u.IsConstLike(e) {
			return []ExprID{e}
		}
		root := src.u.RootOf(e)
		var out []ExprID
		for _, p := range pairs {
			if p.From == root {
				if img := src.u.Transport(e, p.From, p.To); img != NoExpr {
					out = append(out, img)
				}
			}
		}
		return out
	}
	return src.copyConstraints(t, images)
}

// MergeFrom adds all constraints of src (same universe) into t. Returns
// false on inconsistency.
func (t *Pisotype) MergeFrom(src *Pisotype) bool {
	t.canon = nil
	identity := func(e ExprID) []ExprID { return []ExprID{e} }
	return src.copyConstraints(t, identity)
}

// NumConstraints returns the size of the canonical edge set (a measure of
// how constrained the type is).
func (t *Pisotype) NumConstraints() int { return len(t.Edges()) }

// SizeBytes deterministically estimates the retained heap size of the
// type: struct header, union-find array, constraint maps, and the sealed
// canonical edge set. It is an accounting estimate for the memory-budget
// machinery (deliberately ignoring allocator rounding and map bucket
// internals), not a precise measurement — what matters is that it is a
// pure function of the type's contents, so budget cutoffs are
// reproducible across runs.
func (t *Pisotype) SizeBytes() int {
	sz := 160 + 4*len(t.parent) // struct + slice headers + parent array
	for _, ms := range t.members {
		sz += 48 + 4*len(ms)
	}
	for _, adj := range t.neq {
		sz += 48 + 16*len(adj)
	}
	sz += 16 * (len(t.constOf) + len(t.delegate) + len(t.hasNav))
	sz += 8 * len(t.Edges())
	return sz
}

// String renders the constraints for diagnostics.
func (t *Pisotype) String() string {
	var parts []string
	for _, rep := range t.constrainedClasses() {
		ms := t.membersOf(rep)
		if len(ms) > 1 {
			names := make([]string, len(ms))
			for i, m := range ms {
				names[i] = t.u.ExprString(m)
			}
			sort.Strings(names)
			parts = append(parts, strings.Join(names, "="))
		}
	}
	seen := map[uint64]bool{}
	for ra, adj := range t.neq {
		for rb := range adj {
			code := encodeEdge(ra, rb, true)
			if seen[code] {
				continue
			}
			seen[code] = true
			// Map iteration meets each pair from either side: order the
			// sides so the rendering is the same on every call.
			x, y := t.u.ExprString(ra), t.u.ExprString(rb)
			if y < x {
				x, y = y, x
			}
			parts = append(parts, x+"!="+y)
		}
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}
