// Package symbolic implements the symbolic representation at the heart of
// VERIFAS (paper Section 3.2): navigation expressions, partial isomorphism
// types with congruence closure under key/foreign-key dependencies, partial
// symbolic instances with counted artifact-relation types, and the symbolic
// transition relation succ(I) for internal, child-opening, child-closing
// and self-closing services.
package symbolic

import (
	"fmt"
	"sort"
	"strings"

	"verifas/internal/has"
)

// ExprID indexes an expression within a Universe.
type ExprID int32

// NoExpr is the invalid expression id.
const NoExpr ExprID = -1

// ExprKind discriminates expression kinds.
type ExprKind int

const (
	// EConst is a data constant from the specification or property.
	EConst ExprKind = iota
	// ENull is the null constant.
	ENull
	// ERoot is a variable root: an artifact variable, a property global,
	// a condition witness, or an artifact-relation attribute slot.
	ERoot
	// ENav is a navigation step e.A from an ID-sorted expression.
	ENav
)

// Expr is one expression of the finite set E (paper Section 3.2):
// a constant, or a path ξ1.ξ2...ξm rooted at an ID variable navigating
// foreign keys. Value-sorted variables are length-1 root expressions.
type Expr struct {
	ID   ExprID
	Kind ExprKind
	// Name is the constant text (EConst) or the variable name (ERoot).
	Name string
	// Parent and AttrIdx identify a navigation step: the expression is
	// Parent.Attrs[AttrIdx] of the parent's relation.
	Parent  ExprID
	AttrIdx int
	// Type is the sort: the zero VarType for DOMval, else an ID sort.
	Type has.VarType
	// Root is the root expression of the path (itself for non-ENav).
	Root ExprID
	// Path lists the attribute indexes from the root (empty for roots).
	Path []int
}

// RootClass classifies the purpose of a root expression, used by
// projections to decide what survives a transition.
type RootClass int

const (
	// StateRoot is a task artifact variable.
	StateRoot RootClass = iota
	// GlobalRoot is a property global variable (always propagated).
	GlobalRoot
	// WitnessRoot is an existential witness of some condition (projected
	// away immediately after the condition is evaluated).
	WitnessRoot
	// SlotRoot is an artifact-relation attribute slot (used only inside
	// stored tuple types).
	SlotRoot
)

// Universe is the interned set of expressions for one task's verification:
// the null constant, the data constants of the specification and property,
// and every navigation path from every root variable. Universes are
// immutable after Build.
type Universe struct {
	Schema *has.Schema
	Exprs  []Expr

	// NullExpr is the id of the null constant.
	NullExpr ExprID
	// nav[e] lists the child expressions of an ID-sorted expression, one
	// per attribute of its relation (in attribute order); nil for non-ID
	// expressions.
	nav [][]ExprID

	constByName map[string]ExprID
	rootByName  map[string]ExprID
	// rootClass is indexed by expression (StateRoot for non-roots).
	rootClass []RootClass
}

// UniverseBuilder accumulates the roots and constants of a universe.
type UniverseBuilder struct {
	schema *has.Schema
	consts []string
	roots  []rootDecl
	seen   map[string]bool
}

type rootDecl struct {
	name  string
	typ   has.VarType
	class RootClass
}

// NewUniverseBuilder starts a universe over the given schema.
func NewUniverseBuilder(schema *has.Schema) *UniverseBuilder {
	return &UniverseBuilder{schema: schema, seen: map[string]bool{}}
}

// AddConst registers a data constant.
func (b *UniverseBuilder) AddConst(c string) {
	k := "c:" + c
	if !b.seen[k] {
		b.seen[k] = true
		b.consts = append(b.consts, c)
	}
}

// AddRoot registers a root variable. Duplicate names must agree in type and
// class (the first registration wins; disagreement panics, indicating a
// compiler bug upstream).
func (b *UniverseBuilder) AddRoot(name string, typ has.VarType, class RootClass) {
	k := "r:" + name
	if b.seen[k] {
		for _, r := range b.roots {
			if r.name == name && (r.typ != typ || r.class != class) {
				panic(fmt.Sprintf("symbolic: root %q re-registered with different type or class", name))
			}
		}
		return
	}
	b.seen[k] = true
	b.roots = append(b.roots, rootDecl{name: name, typ: typ, class: class})
}

// Build constructs the universe, enumerating every navigation path (finite
// by foreign-key acyclicity).
func (b *UniverseBuilder) Build() *Universe {
	u := &Universe{
		Schema:      b.schema,
		constByName: map[string]ExprID{},
		rootByName:  map[string]ExprID{},
	}
	add := func(e Expr) ExprID {
		e.ID = ExprID(len(u.Exprs))
		u.Exprs = append(u.Exprs, e)
		u.nav = append(u.nav, nil)
		u.rootClass = append(u.rootClass, StateRoot)
		return e.ID
	}
	u.NullExpr = add(Expr{Kind: ENull, Name: "null"})
	u.Exprs[u.NullExpr].Root = u.NullExpr
	sort.Strings(b.consts)
	for _, c := range b.consts {
		id := add(Expr{Kind: EConst, Name: c})
		u.Exprs[id].Root = id
		u.constByName[c] = id
	}
	var expand func(e ExprID)
	expand = func(e ExprID) {
		ex := &u.Exprs[e]
		if !ex.Type.IsID() {
			return
		}
		rel, ok := b.schema.Relation(ex.Type.Rel)
		if !ok {
			panic(fmt.Sprintf("symbolic: unknown relation %q for expression %s", ex.Type.Rel, u.ExprString(e)))
		}
		children := make([]ExprID, len(rel.Attrs))
		root := ex.Root
		basePath := ex.Path
		for i, a := range rel.Attrs {
			ty := has.ValType()
			if a.Kind == has.ForeignKey {
				ty = has.IDType(a.Ref)
			}
			path := make([]int, len(basePath)+1)
			copy(path, basePath)
			path[len(basePath)] = i
			cid := add(Expr{Kind: ENav, Parent: e, AttrIdx: i, Type: ty, Root: root, Path: path})
			children[i] = cid
		}
		u.nav[e] = children
		for _, c := range children {
			expand(c)
		}
	}
	for _, r := range b.roots {
		id := add(Expr{Kind: ERoot, Name: r.name, Type: r.typ})
		u.Exprs[id].Root = id
		u.rootByName[r.name] = id
		u.rootClass[id] = r.class
		expand(id)
	}
	return u
}

// Const returns the expression of a data constant.
func (u *Universe) Const(c string) (ExprID, bool) {
	id, ok := u.constByName[c]
	return id, ok
}

// Root returns the root expression of a variable name.
func (u *Universe) Root(name string) (ExprID, bool) {
	id, ok := u.rootByName[name]
	return id, ok
}

// Nav returns the child expression e.attr (by attribute index) of an
// ID-sorted expression, or NoExpr.
func (u *Universe) Nav(e ExprID, attrIdx int) ExprID {
	cs := u.nav[e]
	if cs == nil || attrIdx < 0 || attrIdx >= len(cs) {
		return NoExpr
	}
	return cs[attrIdx]
}

// NavAll returns all navigation children of e (nil for non-ID expressions).
func (u *Universe) NavAll(e ExprID) []ExprID { return u.nav[e] }

// NumExprs returns the universe size.
func (u *Universe) NumExprs() int { return len(u.Exprs) }

// RootClassOf returns the class of a root expression.
func (u *Universe) RootClassOf(root ExprID) RootClass { return u.rootClass[root] }

// RootOf returns the root expression of e's path.
func (u *Universe) RootOf(e ExprID) ExprID { return u.Exprs[e].Root }

// IsConstLike reports whether e is a constant or null (shared, never
// projected away).
func (u *Universe) IsConstLike(e ExprID) bool {
	k := u.Exprs[e].Kind
	return k == EConst || k == ENull
}

// Transport maps an expression rooted at `from` to the same path rooted at
// `to`. The roots must have identical ID sorts (hence identical navigation
// trees); constants and null transport to themselves.
func (u *Universe) Transport(e, from, to ExprID) ExprID {
	ex := &u.Exprs[e]
	if ex.Kind == EConst || ex.Kind == ENull {
		return e
	}
	if ex.Root != from {
		return NoExpr
	}
	cur := to
	for _, idx := range ex.Path {
		cur = u.Nav(cur, idx)
		if cur == NoExpr {
			return NoExpr
		}
	}
	return cur
}

// ExprString renders an expression as a dotted path for diagnostics and
// counterexamples.
func (u *Universe) ExprString(e ExprID) string {
	ex := &u.Exprs[e]
	switch ex.Kind {
	case ENull:
		return "null"
	case EConst:
		return fmt.Sprintf("%q", ex.Name)
	case ERoot:
		return ex.Name
	default:
		var sb strings.Builder
		sb.WriteString(u.ExprString(u.Exprs[ex.Root].ID))
		cur := u.Exprs[ex.Root].ID
		for _, idx := range ex.Path {
			rel, _ := u.Schema.Relation(u.Exprs[cur].Type.Rel)
			sb.WriteByte('.')
			sb.WriteString(rel.Attrs[idx].Name)
			cur = u.Nav(cur, idx)
		}
		return sb.String()
	}
}
