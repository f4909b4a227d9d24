// Package has defines the HAS* (Hierarchical Artifact System*) model of the
// VERIFAS paper (VLDB 2017, Section 2): acyclic database schemas with keys
// and foreign keys, hierarchies of tasks with artifact variables and
// updatable artifact relations, and services (internal, opening, closing)
// specified by pre- and post-conditions.
//
// The package provides construction helpers and a validator enforcing every
// well-formedness rule of Definitions 1-13 and 26 of the paper.
package has

import (
	"fmt"
	"sort"

	"verifas/internal/fol"
)

// AttrKind discriminates the attribute kinds of a database relation.
type AttrKind int

const (
	// NonKey is a data attribute with domain DOMval.
	NonKey AttrKind = iota
	// ForeignKey references the ID of another relation.
	ForeignKey
)

// Attr is a non-ID attribute of a database relation. Every relation
// implicitly has a key attribute ID as its first attribute; Attr describes
// the remaining ones.
type Attr struct {
	Name string
	Kind AttrKind
	// Ref is the referenced relation for ForeignKey attributes.
	Ref string
}

// Relation is a database relation R(ID, A1..Am, F1..Fn). The attribute
// order in relation atoms is: ID, then Attrs in declaration order. By the
// paper's convention non-key attributes precede foreign keys; the validator
// enforces this so atom positions are unambiguous.
type Relation struct {
	Name  string
	Attrs []Attr
}

// Arity returns the number of argument positions of the relation's atoms
// (ID plus declared attributes).
func (r *Relation) Arity() int { return 1 + len(r.Attrs) }

// Attr returns the declared attribute with the given name, if any.
func (r *Relation) Attr(name string) (Attr, bool) {
	for _, a := range r.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return Attr{}, false
}

// Schema is a database schema: a set of relations with acyclic foreign
// keys.
type Schema struct {
	Relations []*Relation

	byName map[string]*Relation
}

// NewSchema builds a schema from relations. Call Validate before use.
func NewSchema(rels ...*Relation) *Schema {
	s := &Schema{Relations: rels}
	s.reindex()
	return s
}

func (s *Schema) reindex() {
	s.byName = make(map[string]*Relation, len(s.Relations))
	for _, r := range s.Relations {
		s.byName[r.Name] = r
	}
}

// Relation returns the named relation, if present.
func (s *Schema) Relation(name string) (*Relation, bool) {
	if s.byName == nil {
		s.reindex()
	}
	r, ok := s.byName[name]
	return r, ok
}

// VarType is the sort of an artifact variable or artifact-relation
// attribute: the empty string denotes DOMval; otherwise the name of the
// relation whose ID domain the variable ranges over.
type VarType struct {
	Rel string
}

// ValType is the DOMval sort.
func ValType() VarType { return VarType{} }

// IDType is the ID sort of the named relation.
func IDType(rel string) VarType { return VarType{Rel: rel} }

// IsID reports whether the type is an ID sort.
func (t VarType) IsID() bool { return t.Rel != "" }

// String renders the type.
func (t VarType) String() string {
	if t.Rel == "" {
		return "val"
	}
	return t.Rel + ".ID"
}

// Variable is an artifact variable with its sort.
type Variable struct {
	Name string
	Type VarType
}

// ArtifactRelation is an updatable artifact relation of a task. Attribute
// names and sorts are given as Variables; by the paper, inserted/retrieved
// tuples are typed sequences of task variables matching these attributes.
type ArtifactRelation struct {
	Name  string
	Attrs []Variable
}

// Update is the δ component of an internal service: at most one insertion
// into or retrieval from an artifact relation, carrying the listed task
// variables (which must match the relation's attributes in order and type).
type Update struct {
	// Insert selects +S(z̄) (true) or -S(z̄) (false).
	Insert   bool
	Relation string
	Vars     []string
}

// Service is an internal service σ = (π, ψ, ȳ, δ) of a task.
type Service struct {
	Name string
	// Pre is the pre-condition π over the task's variables.
	Pre fol.Formula
	// Post is the post-condition ψ over the task's variables.
	Post fol.Formula
	// Propagate is ȳ, the set of variables whose values are preserved by
	// the transition. Input variables are always propagated and are added
	// implicitly by the validator if omitted.
	Propagate []string
	// Update is δ; nil when δ = ∅.
	Update *Update
}

// Task is a node of the task hierarchy.
type Task struct {
	Name string
	// Vars is x̄T in declaration order.
	Vars []Variable
	// In and Out are the input and output variable names (subsequences of
	// Vars).
	In, Out []string
	// Relations are the task's artifact relations.
	Relations []*ArtifactRelation
	// Services are the internal services ΣT.
	Services []*Service
	// Children are the subtasks.
	Children []*Task

	// OpeningPre is the pre-condition of the opening service σoT. For a
	// non-root task it is a condition over the PARENT's variables; for the
	// root it must be true (or nil, which means true).
	OpeningPre fol.Formula
	// ClosingPre is the pre-condition of the closing service σcT, a
	// condition over this task's variables. For the root it must be false
	// (or nil, which means false for the root and true for non-root tasks
	// is NOT implied — non-root tasks must set it explicitly; nil means
	// true for non-root tasks for convenience).
	ClosingPre fol.Formula
	// InMap maps each input variable of this task to the parent variable
	// supplying its initial value (fin, 1-1).
	InMap map[string]string
	// OutMap maps each output variable of this task to the parent
	// variable receiving its value on closing (fout, 1-1).
	OutMap map[string]string

	parent *Task
	byName map[string]Variable
}

// Parent returns the parent task, or nil for the root.
func (t *Task) Parent() *Task { return t.parent }

// Var returns the task variable with the given name, if any.
func (t *Task) Var(name string) (Variable, bool) {
	if t.byName == nil {
		t.byName = make(map[string]Variable, len(t.Vars))
		for _, v := range t.Vars {
			t.byName[v.Name] = v
		}
	}
	v, ok := t.byName[name]
	return v, ok
}

// Relation returns the task's artifact relation with the given name.
func (t *Task) Relation(name string) (*ArtifactRelation, bool) {
	for _, r := range t.Relations {
		if r.Name == name {
			return r, true
		}
	}
	return nil, false
}

// Service returns the task's internal service with the given name.
func (t *Task) Service(name string) (*Service, bool) {
	for _, s := range t.Services {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// IsInput reports whether the named variable is an input variable.
func (t *Task) IsInput(name string) bool {
	for _, v := range t.In {
		if v == name {
			return true
		}
	}
	return false
}

// IsOutput reports whether the named variable is an output variable.
func (t *Task) IsOutput(name string) bool {
	for _, v := range t.Out {
		if v == name {
			return true
		}
	}
	return false
}

// ReturnedParentVars returns x̄T(Tc↑) for this (child) task: the parent
// variables receiving the child's outputs, in sorted order.
func (t *Task) ReturnedParentVars() []string {
	out := make([]string, 0, len(t.OutMap))
	for _, pv := range t.OutMap {
		out = append(out, pv)
	}
	sort.Strings(out)
	return out
}

// ServiceAtoms returns the LTL atom names of the task's observable
// services: its own opening and closing, its internal services
// ("call:S") and the opening and closing of its children. A property's
// atoms are these plus its defined conditions.
func (t *Task) ServiceAtoms() map[string]bool {
	out := map[string]bool{
		"open:" + t.Name:  true,
		"close:" + t.Name: true,
	}
	for _, s := range t.Services {
		out["call:"+s.Name] = true
	}
	for _, c := range t.Children {
		out["open:"+c.Name] = true
		out["close:"+c.Name] = true
	}
	return out
}

// System is a complete HAS* Γ = (A, Σ, Π).
type System struct {
	Name   string
	Schema *Schema
	Root   *Task
	// GlobalPre is Π, the global pre-condition over the root task's
	// variables; nil means true.
	GlobalPre fol.Formula

	tasks []*Task
}

// Tasks returns all tasks in pre-order (root first). The slice is computed
// on first use and cached.
func (s *System) Tasks() []*Task {
	if s.tasks == nil {
		var walk func(t *Task)
		walk = func(t *Task) {
			s.tasks = append(s.tasks, t)
			for _, c := range t.Children {
				c.parent = t
				walk(c)
			}
		}
		if s.Root != nil {
			s.Root.parent = nil
			walk(s.Root)
		}
	}
	return s.tasks
}

// Task returns the task with the given name, if any.
func (s *System) Task(name string) (*Task, bool) {
	for _, t := range s.Tasks() {
		if t.Name == name {
			return t, true
		}
	}
	return nil, false
}

// Constants returns all data constants appearing in the system's
// conditions, sorted.
func (s *System) Constants() []string {
	set := map[string]bool{}
	add := func(f fol.Formula) {
		if f == nil {
			return
		}
		for _, c := range fol.Constants(f) {
			set[c] = true
		}
	}
	add(s.GlobalPre)
	for _, t := range s.Tasks() {
		add(t.OpeningPre)
		add(t.ClosingPre)
		for _, svc := range t.Services {
			add(svc.Pre)
			add(svc.Post)
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Stats summarizes the size of a system, matching the columns of the
// paper's Table 1.
type Stats struct {
	Relations int
	Tasks     int
	Variables int
	Services  int
}

// Stats computes the system's size statistics. The service count includes
// internal services plus the opening and closing services of each task,
// matching how the paper counts (its real set averages ~11.6 services over
// ~3.2 tasks).
func (s *System) Stats() Stats {
	st := Stats{Relations: len(s.Schema.Relations)}
	for _, t := range s.Tasks() {
		st.Tasks++
		st.Variables += len(t.Vars)
		st.Services += len(t.Services) + 2
	}
	return st
}

// String summarizes the system for diagnostics.
func (s *System) String() string {
	return fmt.Sprintf("HAS*(%s: %d relations, %d tasks)", s.Name, len(s.Schema.Relations), len(s.Tasks()))
}
