package has

import (
	"fmt"
	"strings"

	"verifas/internal/fol"
)

// ValidationError reports a well-formedness violation in a HAS*
// specification.
type ValidationError struct {
	Where string
	Msg   string
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("has: %s: %s", e.Where, e.Msg)
}

func verr(where, format string, args ...any) error {
	return &ValidationError{Where: where, Msg: fmt.Sprintf(format, args...)}
}

// Validate checks every well-formedness condition of the HAS* definitions:
// schema keys/foreign keys and acyclicity, task variable and relation
// disjointness, input/output subsequences, service updates and propagation
// rules, variable mappings of opening/closing services, and typing of all
// conditions. It must be called (and succeed) before a System is handed to
// the verifier.
//
// A successful Validate also fills every lazy index of the system (the
// task list and parent links, the schema's and each task's name maps),
// so a validated System that is no longer modified is safe to read from
// many goroutines at once.
func (s *System) Validate() error {
	if s.Schema == nil {
		return verr(s.Name, "nil schema")
	}
	if s.Root == nil {
		return verr(s.Name, "nil root task")
	}
	if err := s.Schema.Validate(); err != nil {
		return err
	}
	tasks := s.Tasks()

	// Task names unique; artifact variables pairwise disjoint across
	// tasks; artifact relation symbols distinct and disjoint from DB.
	taskNames := map[string]bool{}
	varOwner := map[string]string{}
	relOwner := map[string]string{}
	for _, t := range tasks {
		if t.Name == "" {
			return verr(s.Name, "task with empty name")
		}
		if taskNames[t.Name] {
			return verr(s.Name, "duplicate task name %q", t.Name)
		}
		taskNames[t.Name] = true
		for _, v := range t.Vars {
			if v.Name == "" {
				return verr(t.Name, "variable with empty name")
			}
			if strings.ContainsAny(v.Name, "#.") {
				return verr(t.Name, "variable name %q contains reserved character", v.Name)
			}
			if owner, dup := varOwner[v.Name]; dup {
				return verr(t.Name, "artifact variable %q already declared in task %q (variable sets must be pairwise disjoint)", v.Name, owner)
			}
			varOwner[v.Name] = t.Name
			if v.Type.IsID() {
				if _, ok := s.Schema.Relation(v.Type.Rel); !ok {
					return verr(t.Name, "variable %q has ID type of unknown relation %q", v.Name, v.Type.Rel)
				}
			}
		}
		for _, ar := range t.Relations {
			if _, ok := s.Schema.Relation(ar.Name); ok {
				return verr(t.Name, "artifact relation %q clashes with a database relation", ar.Name)
			}
			if owner, dup := relOwner[ar.Name]; dup {
				return verr(t.Name, "artifact relation %q already declared in task %q", ar.Name, owner)
			}
			relOwner[ar.Name] = t.Name
			seen := map[string]bool{}
			for _, a := range ar.Attrs {
				if seen[a.Name] {
					return verr(t.Name, "artifact relation %q: duplicate attribute %q", ar.Name, a.Name)
				}
				seen[a.Name] = true
				if a.Type.IsID() {
					if _, ok := s.Schema.Relation(a.Type.Rel); !ok {
						return verr(t.Name, "artifact relation %q: attribute %q has unknown ID type %q", ar.Name, a.Name, a.Type.Rel)
					}
				}
			}
		}
	}

	for _, t := range tasks {
		if err := s.validateTask(t); err != nil {
			return err
		}
	}
	// Global pre-condition is over the root's variables.
	if s.GlobalPre != nil {
		if err := s.CheckCondition(s.GlobalPre, TaskScope(s.Root), "global pre-condition"); err != nil {
			return err
		}
	}
	for _, t := range tasks {
		if t.byName == nil {
			t.reindex()
		}
	}
	return nil
}

// Validate checks schema well-formedness: unique names, resolvable foreign
// keys, non-key attributes preceding foreign keys, and acyclicity of the
// foreign-key graph (Definition 1 and the acyclicity requirement).
func (s *Schema) Validate() error {
	if s.byName == nil {
		s.reindex()
	}
	seen := map[string]bool{}
	for _, r := range s.Relations {
		if r.Name == "" {
			return verr("schema", "relation with empty name")
		}
		if seen[r.Name] {
			return verr("schema", "duplicate relation %q", r.Name)
		}
		seen[r.Name] = true
		attrSeen := map[string]bool{"ID": true}
		sawFK := false
		for _, a := range r.Attrs {
			if a.Name == "" {
				return verr(r.Name, "attribute with empty name")
			}
			if attrSeen[a.Name] {
				return verr(r.Name, "duplicate attribute %q", a.Name)
			}
			attrSeen[a.Name] = true
			switch a.Kind {
			case NonKey:
				if sawFK {
					return verr(r.Name, "non-key attribute %q declared after a foreign key (order must be: non-key attributes, then foreign keys)", a.Name)
				}
			case ForeignKey:
				sawFK = true
				if _, ok := s.byName[a.Ref]; !ok {
					return verr(r.Name, "foreign key %q references unknown relation %q", a.Name, a.Ref)
				}
			default:
				return verr(r.Name, "attribute %q has invalid kind", a.Name)
			}
		}
	}
	// Acyclicity of the foreign-key graph.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(name string, path []string) error
	visit = func(name string, path []string) error {
		switch color[name] {
		case gray:
			return verr("schema", "foreign-key cycle: %s -> %s", strings.Join(path, " -> "), name)
		case black:
			return nil
		}
		color[name] = gray
		r := s.byName[name]
		for _, a := range r.Attrs {
			if a.Kind == ForeignKey {
				if err := visit(a.Ref, append(path, name)); err != nil {
					return err
				}
			}
		}
		color[name] = black
		return nil
	}
	for _, r := range s.Relations {
		if err := visit(r.Name, nil); err != nil {
			return err
		}
	}
	return nil
}

func (s *System) validateTask(t *Task) error {
	// Input/output variables must exist (as subsequences of Vars).
	if !isSubsequence(t.In, t.Vars) {
		return verr(t.Name, "input variables %v are not a subsequence of the task variables", t.In)
	}
	if !isSubsequence(t.Out, t.Vars) {
		return verr(t.Name, "output variables %v are not a subsequence of the task variables", t.Out)
	}

	// Opening / closing services (Definition 26).
	if t.parent == nil {
		if t.OpeningPre != nil {
			if _, ok := t.OpeningPre.(fol.True); !ok {
				return verr(t.Name, "root task must have opening pre-condition true")
			}
		}
		if t.ClosingPre != nil {
			if _, ok := t.ClosingPre.(fol.False); !ok {
				return verr(t.Name, "root task must have closing pre-condition false")
			}
		}
		if len(t.In) != 0 || len(t.Out) != 0 {
			return verr(t.Name, "root task cannot have input or output variables")
		}
	} else {
		p := t.parent
		if t.OpeningPre != nil {
			if err := s.CheckCondition(t.OpeningPre, TaskScope(p), "opening pre-condition of "+t.Name); err != nil {
				return err
			}
		}
		if t.ClosingPre != nil {
			if err := s.CheckCondition(t.ClosingPre, TaskScope(t), "closing pre-condition of "+t.Name); err != nil {
				return err
			}
		}
		// fin: 1-1 from inputs to parent variables, type-preserving.
		if len(t.InMap) != len(t.In) {
			return verr(t.Name, "input mapping covers %d variables, task has %d inputs", len(t.InMap), len(t.In))
		}
		usedParent := map[string]bool{}
		for _, in := range t.In {
			pv, ok := t.InMap[in]
			if !ok {
				return verr(t.Name, "input variable %q has no mapping to a parent variable", in)
			}
			if usedParent[pv] {
				return verr(t.Name, "input mapping is not 1-1: parent variable %q used twice", pv)
			}
			usedParent[pv] = true
			cv, _ := t.Var(in)
			pvar, ok := p.Var(pv)
			if !ok {
				return verr(t.Name, "input mapping references unknown parent variable %q", pv)
			}
			if cv.Type != pvar.Type {
				return verr(t.Name, "input mapping %q <- %q has mismatched types %s vs %s", in, pv, cv.Type, pvar.Type)
			}
		}
		// fout: 1-1 from outputs to parent variables, type-preserving,
		// and the returned parent variables must be disjoint from the
		// parent's input variables (Definition 26(ii)).
		if len(t.OutMap) != len(t.Out) {
			return verr(t.Name, "output mapping covers %d variables, task has %d outputs", len(t.OutMap), len(t.Out))
		}
		usedParent = map[string]bool{}
		for _, out := range t.Out {
			pv, ok := t.OutMap[out]
			if !ok {
				return verr(t.Name, "output variable %q has no mapping to a parent variable", out)
			}
			if usedParent[pv] {
				return verr(t.Name, "output mapping is not 1-1: parent variable %q used twice", pv)
			}
			usedParent[pv] = true
			cv, _ := t.Var(out)
			pvar, ok := p.Var(pv)
			if !ok {
				return verr(t.Name, "output mapping references unknown parent variable %q", pv)
			}
			if cv.Type != pvar.Type {
				return verr(t.Name, "output mapping %q -> %q has mismatched types %s vs %s", out, pv, cv.Type, pvar.Type)
			}
			if p.IsInput(pv) {
				return verr(t.Name, "output mapping targets parent input variable %q (returned variables must be disjoint from the parent's inputs)", pv)
			}
		}
	}

	// Internal services (Definition 10).
	svcSeen := map[string]bool{}
	for _, svc := range t.Services {
		if svc.Name == "" {
			return verr(t.Name, "internal service with empty name")
		}
		if svcSeen[svc.Name] {
			return verr(t.Name, "duplicate internal service %q", svc.Name)
		}
		svcSeen[svc.Name] = true
		where := t.Name + "." + svc.Name
		if svc.Pre != nil {
			if err := s.CheckCondition(svc.Pre, TaskScope(t), "pre-condition of "+where); err != nil {
				return err
			}
		}
		if svc.Post != nil {
			if err := s.CheckCondition(svc.Post, TaskScope(t), "post-condition of "+where); err != nil {
				return err
			}
		}
		// Propagated set: x̄in ⊆ ȳ ⊆ x̄T.
		propSet := map[string]bool{}
		for _, y := range svc.Propagate {
			if _, ok := t.Var(y); !ok {
				return verr(where, "propagated variable %q is not a task variable", y)
			}
			propSet[y] = true
		}
		for _, in := range t.In {
			if !propSet[in] {
				return verr(where, "input variable %q must be propagated (x̄in ⊆ ȳ)", in)
			}
		}
		if svc.Update != nil {
			u := svc.Update
			ar, ok := t.Relation(u.Relation)
			if !ok {
				return verr(where, "update references unknown artifact relation %q", u.Relation)
			}
			if len(u.Vars) != len(ar.Attrs) {
				return verr(where, "update carries %d variables, artifact relation %q has %d attributes", len(u.Vars), u.Relation, len(ar.Attrs))
			}
			for i, z := range u.Vars {
				zv, ok := t.Var(z)
				if !ok {
					return verr(where, "update variable %q is not a task variable", z)
				}
				if zv.Type != ar.Attrs[i].Type {
					return verr(where, "update variable %q has type %s, attribute %q has type %s", z, zv.Type, ar.Attrs[i].Name, ar.Attrs[i].Type)
				}
			}
			// If δ ≠ ∅ then ȳ = x̄in.
			if len(propSet) != len(t.In) {
				return verr(where, "service with an update must propagate exactly the input variables (ȳ = x̄in), got %v", svc.Propagate)
			}
		}
	}
	return nil
}

func isSubsequence(names []string, vars []Variable) bool {
	j := 0
	for _, v := range vars {
		if j < len(names) && names[j] == v.Name {
			j++
		}
	}
	return j == len(names)
}

// Scope describes the variables visible to a condition, used for typing.
type Scope map[string]VarType

// TaskScope returns the scope consisting of the task's variables.
func TaskScope(t *Task) Scope {
	sc := make(Scope, len(t.Vars))
	for _, v := range t.Vars {
		sc[v.Name] = v.Type
	}
	return sc
}

// With returns a copy of the scope extended with additional variables.
func (sc Scope) With(vars ...Variable) Scope {
	out := make(Scope, len(sc)+len(vars))
	for k, v := range sc {
		out[k] = v
	}
	for _, v := range vars {
		out[v.Name] = v.Type
	}
	return out
}

// CheckCondition type-checks a condition against the schema and scope:
// relation atoms must match the schema's arity and attribute sorts,
// equalities must compare same-sorted terms (or null), free variables must
// be in scope, and existential quantification must occur positively with
// correctly sorted, non-shadowing witnesses.
func (s *System) CheckCondition(f fol.Formula, sc Scope, where string) error {
	if f == nil {
		return nil
	}
	if fol.HasNegatedExists(f) {
		return verr(where, "existential quantifier under negation (universal quantification is not in the fragment)")
	}
	return s.checkFormula(f, sc, where)
}

func (s *System) checkFormula(f fol.Formula, sc Scope, where string) error {
	switch g := f.(type) {
	case fol.True, fol.False:
		return nil
	case fol.Eq:
		lt, err := s.termType(g.L, sc, where)
		if err != nil {
			return err
		}
		rt, err := s.termType(g.R, sc, where)
		if err != nil {
			return err
		}
		// null and constants unify with anything of compatible kind:
		// null with all sorts; constants only with DOMval.
		if g.L.Kind == fol.TNull || g.R.Kind == fol.TNull {
			return nil
		}
		if lt != rt {
			return verr(where, "equality %s compares incompatible sorts %s and %s", fol.String(g), lt, rt)
		}
		return nil
	case fol.Rel:
		rel, ok := s.Schema.Relation(g.Name)
		if !ok {
			return verr(where, "unknown relation %q in atom %s", g.Name, fol.String(g))
		}
		if len(g.Args) != rel.Arity() {
			return verr(where, "atom %s has %d arguments, relation %q has arity %d", fol.String(g), len(g.Args), g.Name, rel.Arity())
		}
		// ID position.
		if err := s.checkAtomArg(g.Args[0], IDType(g.Name), sc, where, g); err != nil {
			return err
		}
		for i, a := range rel.Attrs {
			want := ValType()
			if a.Kind == ForeignKey {
				want = IDType(a.Ref)
			}
			if err := s.checkAtomArg(g.Args[i+1], want, sc, where, g); err != nil {
				return err
			}
		}
		return nil
	case fol.Not:
		return s.checkFormula(g.F, sc, where)
	case fol.And:
		for _, sub := range g.Fs {
			if err := s.checkFormula(sub, sc, where); err != nil {
				return err
			}
		}
		return nil
	case fol.Or:
		for _, sub := range g.Fs {
			if err := s.checkFormula(sub, sc, where); err != nil {
				return err
			}
		}
		return nil
	case fol.Implies:
		if err := s.checkFormula(g.L, sc, where); err != nil {
			return err
		}
		return s.checkFormula(g.R, sc, where)
	case fol.Exists:
		inner := sc
		var extra []Variable
		for _, qv := range g.Vars {
			if _, shadow := sc[qv.Name]; shadow {
				return verr(where, "quantified variable %q shadows a variable in scope", qv.Name)
			}
			ty := ValType()
			if qv.Rel != "" {
				if _, ok := s.Schema.Relation(qv.Rel); !ok {
					return verr(where, "quantified variable %q has unknown ID sort %q", qv.Name, qv.Rel)
				}
				ty = IDType(qv.Rel)
			}
			extra = append(extra, Variable{Name: qv.Name, Type: ty})
		}
		inner = sc.With(extra...)
		return s.checkFormula(g.Body, inner, where)
	}
	return verr(where, "unknown formula node %T", f)
}

func (s *System) termType(t fol.Term, sc Scope, where string) (VarType, error) {
	switch t.Kind {
	case fol.TNull:
		return ValType(), nil // caller treats null specially
	case fol.TConst:
		return ValType(), nil
	default:
		ty, ok := sc[t.Name]
		if !ok {
			return VarType{}, verr(where, "variable %q is not in scope", t.Name)
		}
		return ty, nil
	}
}

func (s *System) checkAtomArg(t fol.Term, want VarType, sc Scope, where string, atom fol.Rel) error {
	switch t.Kind {
	case fol.TNull:
		return nil
	case fol.TConst:
		if want.IsID() {
			return verr(where, "atom %s: constant %q in ID-sorted position (sort %s)", fol.String(atom), t.Name, want)
		}
		return nil
	default:
		ty, ok := sc[t.Name]
		if !ok {
			return verr(where, "atom %s: variable %q is not in scope", fol.String(atom), t.Name)
		}
		if ty != want {
			return verr(where, "atom %s: variable %q has sort %s, position requires %s", fol.String(atom), t.Name, ty, want)
		}
		return nil
	}
}
