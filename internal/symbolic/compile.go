package symbolic

import (
	"fmt"
	"sort"
	"sync"

	"verifas/internal/fol"
	"verifas/internal/has"
)

// Lit is a compiled (in)equality constraint between two expressions.
type Lit struct {
	A, B ExprID
	Neq  bool
}

// CompiledCond is a condition compiled to DNF over expression literals:
// the conj(φ) of the paper's Appendix A after flattening relation atoms
// into navigation (in)equalities (positive atoms additionally assert the
// key argument non-null). Witnesses are the prenexed existential roots to
// project away after evaluation.
type CompiledCond struct {
	Witnesses []ExprID
	Conjuncts [][]Lit
	src       fol.Formula
}

// Extend returns the minimal extensions of tau satisfying the condition:
// one consistent clone per DNF conjunct, deduplicated. Witness constraints
// are included; callers project witnesses away afterwards. A nil tau result
// list means the condition is unsatisfiable in tau.
func (c *CompiledCond) Extend(tau *Pisotype) []*Pisotype {
	var out []*Pisotype
conjuncts:
	for _, conj := range c.Conjuncts {
		t := tau.Clone()
		for _, l := range conj {
			if l.Neq {
				if !t.AddNeq(l.A, l.B) {
					continue conjuncts
				}
			} else {
				if !t.AddEq(l.A, l.B) {
					continue conjuncts
				}
			}
		}
		h := t.Hash()
		for _, prev := range out {
			if prev.Hash() == h && prev.Equal(t) {
				continue conjuncts
			}
		}
		if out == nil {
			out = make([]*Pisotype, 0, len(c.Conjuncts))
		}
		out = append(out, t)
	}
	return out
}

// Source returns the original formula (for diagnostics).
func (c *CompiledCond) Source() fol.Formula { return c.src }

// ServiceKind discriminates the observable services of a task's local runs
// (ΣobsT of the paper).
type ServiceKind int

const (
	// SvcInternal is an internal service of the task.
	SvcInternal ServiceKind = iota
	// SvcOpenSelf is the task's own opening service (the first snapshot
	// of every local run).
	SvcOpenSelf
	// SvcCloseSelf is the task's own closing service (ends a finite local
	// run).
	SvcCloseSelf
	// SvcOpenChild opens a child task.
	SvcOpenChild
	// SvcCloseChild closes a child task (its returned variables are
	// havocked in the parent, standing for all possible results).
	SvcCloseChild
)

// ServiceRef identifies a transition's service. The JSON field names are
// part of the persistent result-store envelope (internal/store), so they
// must stay stable across releases.
type ServiceRef struct {
	Kind ServiceKind `json:"kind"`
	// Name is the internal service name (SvcInternal) or the task name
	// (self/child open/close).
	Name string `json:"name"`
	// Index is the internal-service or child index.
	Index int `json:"index"`
}

// AtomName returns the LTL service proposition naming this service
// ("call:Svc", "open:Task", "close:Task").
func (r ServiceRef) AtomName() string {
	switch r.Kind {
	case SvcInternal:
		return "call:" + r.Name
	case SvcOpenSelf, SvcOpenChild:
		return "open:" + r.Name
	default:
		return "close:" + r.Name
	}
}

// String renders the reference as its atom name.
func (r ServiceRef) String() string { return r.AtomName() }

// PropertyBinding carries the FO side of an LTL-FO property: the global
// variables ∀ȳ and the conditions interpreting the propositions.
type PropertyBinding struct {
	Globals []has.Variable
	Conds   map[string]fol.Formula
}

// updateKind discriminates compiled δ.
type updateKind int

const (
	updNone updateKind = iota
	updInsert
	updRetrieve
)

type compiledService struct {
	name      string
	ref       ServiceRef
	pre, post *CompiledCond
	// propRoots marks, by expression, the roots preserved across the
	// transition (ȳ).
	propRoots []bool
	upd       updateKind
	relIdx    int
	// insertPairs map variable roots to slot roots (z̄ → S);
	// retrievePairs map slot roots to variable roots (S → z̄).
	insertPairs, retrievePairs []RootPair
}

type compiledChild struct {
	name    string
	bit     uint32
	openPre *CompiledCond
	// returnedRoots marks, by expression, the parent variables havocked
	// when the child closes.
	returnedRoots []bool
}

// Options configure the compiled transition system.
type Options struct {
	// IgnoreSets drops all artifact-relation updates (the VERIFAS-NoSet
	// configuration of the paper's evaluation, matching the restricted
	// model of the Spin-based verifier).
	IgnoreSets bool
	// Filter is the static-analysis edge filter (nil disables the
	// optimization).
	Filter EdgeFilter
	// DNFLimit caps condition DNF expansion (0 = fol.DefaultDNFLimit).
	DNFLimit int
	// Interner hash-conses the pisotypes retained in states (nil disables
	// interning). Structurally equal types collapse onto one shared
	// allocation and compare by pointer; see Interner.
	Interner *Interner
}

// TaskSystem is the compiled symbolic transition system of one task's
// local runs: the universe, the compiled services, and the compiled
// property conditions in both polarities.
type TaskSystem struct {
	Sys  *has.System
	Task *has.Task
	U    *Universe
	Opts Options

	services  []compiledService
	children  []compiledChild
	closePre  *CompiledCond // nil for the root task
	globalPre *CompiledCond // Π, root task only

	// PropPos and PropNeg are the compiled property conditions and their
	// negations, by proposition name.
	PropPos, PropNeg map[string]*CompiledCond

	numRelations int
	relIndex     map[string]int
	slotRoots    [][]ExprID // per relation, per attribute
}

// Succ is one symbolic transition out of a PSI.
type Succ struct {
	Ref  ServiceRef
	Next *PSI
	// Closing marks the task's own closing service: the local run ends.
	Closing bool
}

const slotPrefix = "\x00slot#" // unparseable, cannot clash with variables

func slotName(rel string, i int) string { return fmt.Sprintf("%s%s#%d", slotPrefix, rel, i) }

func witnessPrefix(kind string) string { return "\x00w#" + kind }

// CompileTask compiles the local-run symbolic semantics of one task,
// together with a property binding (which may be empty). The system must
// have been validated.
func CompileTask(sys *has.System, task *has.Task, prop PropertyBinding, opts Options) (*TaskSystem, error) {
	if len(task.Children) > 32 {
		return nil, fmt.Errorf("symbolic: task %s has %d children; at most 32 supported", task.Name, len(task.Children))
	}
	dnfLimit := opts.DNFLimit
	if dnfLimit == 0 {
		dnfLimit = fol.DefaultDNFLimit
	}

	// ---- Pass 1: prenex every condition, collect roots and constants.
	b := NewUniverseBuilder(sys.Schema)
	for _, c := range sys.Constants() {
		b.AddConst(c)
	}
	for _, v := range task.Vars {
		b.AddRoot(v.Name, v.Type, StateRoot)
	}
	for _, g := range prop.Globals {
		b.AddRoot(g.Name, g.Type, GlobalRoot)
	}
	for name, f := range prop.Conds {
		for _, c := range fol.Constants(f) {
			b.AddConst(c)
		}
		_ = name
	}
	type prenexed struct {
		p      fol.Prenex
		target **CompiledCond
	}
	var work []prenexed
	ts := &TaskSystem{
		Sys: sys, Task: task, Opts: opts,
		PropPos:  map[string]*CompiledCond{},
		PropNeg:  map[string]*CompiledCond{},
		relIndex: map[string]int{},
	}
	addCond := func(f fol.Formula, kind string, target **CompiledCond) error {
		if f == nil {
			f = fol.True{}
		}
		if fol.HasNegatedExists(f) {
			return fmt.Errorf("symbolic: condition %s has a negated existential", kind)
		}
		p := fol.ToPrenex(f, witnessPrefix(kind))
		for _, w := range p.Witnesses {
			ty := has.ValType()
			if w.Rel != "" {
				ty = has.IDType(w.Rel)
			}
			b.AddRoot(w.Name, ty, WitnessRoot)
		}
		work = append(work, prenexed{p: p, target: target})
		return nil
	}

	ts.services = make([]compiledService, len(task.Services))
	for i, svc := range task.Services {
		cs := &ts.services[i]
		cs.name = svc.Name
		cs.ref = ServiceRef{Kind: SvcInternal, Name: svc.Name, Index: i}
		if err := addCond(svc.Pre, fmt.Sprintf("%s.%s.pre", task.Name, svc.Name), &cs.pre); err != nil {
			return nil, err
		}
		if err := addCond(svc.Post, fmt.Sprintf("%s.%s.post", task.Name, svc.Name), &cs.post); err != nil {
			return nil, err
		}
	}
	ts.children = make([]compiledChild, len(task.Children))
	for i, child := range task.Children {
		cc := &ts.children[i]
		cc.name = child.Name
		cc.bit = 1 << uint(i)
		if err := addCond(child.OpeningPre, fmt.Sprintf("%s.open", child.Name), &cc.openPre); err != nil {
			return nil, err
		}
	}
	if task.Parent() != nil {
		cp := task.ClosingPre
		if cp == nil {
			cp = fol.True{}
		}
		if err := addCond(cp, task.Name+".close", &ts.closePre); err != nil {
			return nil, err
		}
	} else if sys.GlobalPre != nil {
		if err := addCond(sys.GlobalPre, "globalpre", &ts.globalPre); err != nil {
			return nil, err
		}
	}
	propNames := make([]string, 0, len(prop.Conds))
	for name := range prop.Conds {
		propNames = append(propNames, name)
	}
	sort.Strings(propNames)
	propTargets := map[string][2]**CompiledCond{}
	for _, name := range propNames {
		f := prop.Conds[name]
		if hasExists(f) {
			return nil, fmt.Errorf("symbolic: property condition %q must be quantifier-free", name)
		}
		pos, neg := new(*CompiledCond), new(*CompiledCond)
		if err := addCond(f, "prop."+name+".pos", pos); err != nil {
			return nil, err
		}
		if err := addCond(fol.MkNot(f), "prop."+name+".neg", neg); err != nil {
			return nil, err
		}
		propTargets[name] = [2]**CompiledCond{pos, neg}
	}

	// Artifact-relation attribute slots.
	ts.numRelations = len(task.Relations)
	for r, ar := range task.Relations {
		ts.relIndex[ar.Name] = r
		for i, a := range ar.Attrs {
			b.AddRoot(slotName(ar.Name, i), a.Type, SlotRoot)
		}
	}

	// ---- Build the universe and finish compilation.
	ts.U = b.Build()
	ts.slotRoots = make([][]ExprID, len(task.Relations))
	for r, ar := range task.Relations {
		ts.slotRoots[r] = make([]ExprID, len(ar.Attrs))
		for i := range ar.Attrs {
			root, ok := ts.U.Root(slotName(ar.Name, i))
			if !ok {
				return nil, fmt.Errorf("symbolic: missing slot root for %s[%d]", ar.Name, i)
			}
			ts.slotRoots[r][i] = root
		}
	}
	for _, w := range work {
		cc, err := ts.compilePrenex(w.p, dnfLimit)
		if err != nil {
			return nil, err
		}
		*w.target = cc
	}
	for _, name := range propNames {
		t := propTargets[name]
		ts.PropPos[name] = *t[0]
		ts.PropNeg[name] = *t[1]
	}

	// Update pairs and propagation sets.
	for i, svc := range task.Services {
		cs := &ts.services[i]
		cs.propRoots = make([]bool, ts.U.NumExprs())
		for _, y := range svc.Propagate {
			root, ok := ts.U.Root(y)
			if !ok {
				return nil, fmt.Errorf("symbolic: unknown propagated variable %q", y)
			}
			cs.propRoots[root] = true
		}
		if svc.Update != nil && !opts.IgnoreSets {
			r := ts.relIndex[svc.Update.Relation]
			cs.relIdx = r
			if svc.Update.Insert {
				cs.upd = updInsert
			} else {
				cs.upd = updRetrieve
			}
			for j, z := range svc.Update.Vars {
				zr, ok := ts.U.Root(z)
				if !ok {
					return nil, fmt.Errorf("symbolic: unknown update variable %q", z)
				}
				cs.insertPairs = append(cs.insertPairs, RootPair{From: zr, To: ts.slotRoots[r][j]})
				cs.retrievePairs = append(cs.retrievePairs, RootPair{From: ts.slotRoots[r][j], To: zr})
			}
		}
	}
	for i, child := range task.Children {
		cc := &ts.children[i]
		cc.returnedRoots = make([]bool, ts.U.NumExprs())
		for _, pv := range child.ReturnedParentVars() {
			root, ok := ts.U.Root(pv)
			if !ok {
				return nil, fmt.Errorf("symbolic: unknown returned variable %q", pv)
			}
			cc.returnedRoots[root] = true
		}
	}
	return ts, nil
}

func hasExists(f fol.Formula) bool {
	switch g := f.(type) {
	case fol.Exists:
		return true
	case fol.Not:
		return hasExists(g.F)
	case fol.And:
		for _, s := range g.Fs {
			if hasExists(s) {
				return true
			}
		}
	case fol.Or:
		for _, s := range g.Fs {
			if hasExists(s) {
				return true
			}
		}
	case fol.Implies:
		return hasExists(g.L) || hasExists(g.R)
	}
	return false
}

// cnode is the internal flattened-formula representation used between
// relation-atom expansion and DNF.
type cnode interface{}

type cTrue struct{}
type cFalse struct{}
type cLit Lit
type cAnd struct{ fs []cnode }
type cOr struct{ fs []cnode }

func (ts *TaskSystem) compilePrenex(p fol.Prenex, dnfLimit int) (*CompiledCond, error) {
	cc := &CompiledCond{src: p.Matrix}
	for _, w := range p.Witnesses {
		root, ok := ts.U.Root(w.Name)
		if !ok {
			return nil, fmt.Errorf("symbolic: witness %q not in universe", w.Name)
		}
		cc.Witnesses = append(cc.Witnesses, root)
	}
	n, err := ts.flatten(p.Matrix)
	if err != nil {
		return nil, err
	}
	conjs, ok := dnfC(n, dnfLimit)
	if !ok {
		return nil, fmt.Errorf("symbolic: condition DNF exceeds %d conjuncts: %s", dnfLimit, fol.String(p.Matrix))
	}
	cc.Conjuncts = conjs
	return cc, nil
}

func (ts *TaskSystem) term(t fol.Term) (ExprID, error) {
	switch t.Kind {
	case fol.TNull:
		return ts.U.NullExpr, nil
	case fol.TConst:
		id, ok := ts.U.Const(t.Name)
		if !ok {
			return NoExpr, fmt.Errorf("symbolic: constant %q not interned", t.Name)
		}
		return id, nil
	default:
		id, ok := ts.U.Root(t.Name)
		if !ok {
			return NoExpr, fmt.Errorf("symbolic: variable %q not in scope of task %s", t.Name, ts.Task.Name)
		}
		return id, nil
	}
}

// flatten expands relation atoms into navigation (in)equalities (the
// flat(φ) of Appendix A, with the null-guard on key arguments) over an NNF
// matrix.
func (ts *TaskSystem) flatten(f fol.Formula) (cnode, error) {
	switch g := f.(type) {
	case fol.True:
		return cTrue{}, nil
	case fol.False:
		return cFalse{}, nil
	case fol.Eq:
		a, err := ts.term(g.L)
		if err != nil {
			return nil, err
		}
		b, err := ts.term(g.R)
		if err != nil {
			return nil, err
		}
		return cLit{A: a, B: b}, nil
	case fol.Rel:
		return ts.flattenRel(g, false)
	case fol.Not:
		switch a := g.F.(type) {
		case fol.Eq:
			x, err := ts.term(a.L)
			if err != nil {
				return nil, err
			}
			y, err := ts.term(a.R)
			if err != nil {
				return nil, err
			}
			return cLit{A: x, B: y, Neq: true}, nil
		case fol.Rel:
			return ts.flattenRel(a, true)
		default:
			return nil, fmt.Errorf("symbolic: non-atomic negation in NNF matrix: %s", fol.String(f))
		}
	case fol.And:
		var fs []cnode
		for _, sub := range g.Fs {
			n, err := ts.flatten(sub)
			if err != nil {
				return nil, err
			}
			fs = append(fs, n)
		}
		return cAnd{fs: fs}, nil
	case fol.Or:
		var fs []cnode
		for _, sub := range g.Fs {
			n, err := ts.flatten(sub)
			if err != nil {
				return nil, err
			}
			fs = append(fs, n)
		}
		return cOr{fs: fs}, nil
	}
	return nil, fmt.Errorf("symbolic: unexpected node %T in NNF matrix", f)
}

func (ts *TaskSystem) flattenRel(g fol.Rel, negated bool) (cnode, error) {
	rel, ok := ts.Sys.Schema.Relation(g.Name)
	if !ok {
		return nil, fmt.Errorf("symbolic: unknown relation %q", g.Name)
	}
	if len(g.Args) != rel.Arity() {
		return nil, fmt.Errorf("symbolic: atom %s has wrong arity", fol.String(g))
	}
	// A null key argument makes the atom false.
	if g.Args[0].Kind == fol.TNull {
		if negated {
			return cTrue{}, nil
		}
		return cFalse{}, nil
	}
	x, err := ts.term(g.Args[0])
	if err != nil {
		return nil, err
	}
	var lits []cnode
	// Positive: key non-null and every attribute matches.
	lits = append(lits, cLit{A: x, B: ts.U.NullExpr, Neq: true})
	for i := range rel.Attrs {
		nav := ts.U.Nav(x, i)
		if nav == NoExpr {
			return nil, fmt.Errorf("symbolic: no navigation %s.%s (is %s ID-sorted?)", fol.String(fol.Rel{Name: g.Name, Args: g.Args[:1]}), rel.Attrs[i].Name, g.Args[0])
		}
		y, err := ts.term(g.Args[i+1])
		if err != nil {
			return nil, err
		}
		lits = append(lits, cLit{A: nav, B: y})
	}
	if !negated {
		return cAnd{fs: lits}, nil
	}
	// Negative: key null, or some attribute differs.
	neg := []cnode{cLit{A: x, B: ts.U.NullExpr}}
	for _, l := range lits[1:] {
		ll := l.(cLit)
		ll.Neq = true
		neg = append(neg, ll)
	}
	return cOr{fs: neg}, nil
}

func dnfC(n cnode, limit int) ([][]Lit, bool) {
	switch g := n.(type) {
	case cTrue:
		return [][]Lit{{}}, true
	case cFalse:
		return nil, true
	case cLit:
		if g.A == g.B {
			if g.Neq {
				return nil, true // x != x is false
			}
			return [][]Lit{{}}, true // x == x is true
		}
		return [][]Lit{{Lit(g)}}, true
	case cOr:
		var out [][]Lit
		for _, sub := range g.fs {
			cs, ok := dnfC(sub, limit)
			if !ok {
				return nil, false
			}
			out = append(out, cs...)
			if len(out) > limit {
				return nil, false
			}
		}
		return out, true
	case cAnd:
		out := [][]Lit{{}}
		for _, sub := range g.fs {
			cs, ok := dnfC(sub, limit)
			if !ok {
				return nil, false
			}
			var next [][]Lit
			for _, base := range out {
				for _, c := range cs {
					merged := make([]Lit, 0, len(base)+len(c))
					merged = append(merged, base...)
					merged = append(merged, c...)
					next = append(next, merged)
					if len(next) > limit {
						return nil, false
					}
				}
			}
			out = next
		}
		return out, true
	}
	panic(fmt.Sprintf("symbolic: unknown cnode %T", n))
}

// keepState reports roots surviving a full-state projection (artifact
// variables and property globals; constants survive implicitly).
func (ts *TaskSystem) keepState(root ExprID) bool {
	c := ts.U.RootClassOf(root)
	return c == StateRoot || c == GlobalRoot
}

// Initial returns the initial PSIs of the task's local runs: for the root
// task, the extensions of the global pre-condition Π; for a non-root task,
// input variables unconstrained and all other variables null. Artifact
// relations start empty and all children inactive (paper Definitions 14
// and 27).
func (ts *TaskSystem) Initial() []*PSI {
	tau := NewPisotype(ts.U, ts.Opts.Filter)
	if ts.Task.Parent() != nil {
		for _, v := range ts.Task.Vars {
			if ts.Task.IsInput(v.Name) {
				continue
			}
			root, _ := ts.U.Root(v.Name)
			if !tau.AddEq(root, ts.U.NullExpr) {
				panic("symbolic: null initialization inconsistent")
			}
		}
	}
	bags := make([]Bag, ts.numRelations)
	var taus []*Pisotype
	if ts.globalPre != nil {
		taus = ts.extendToState(ts.globalPre, tau)
	} else {
		taus = []*Pisotype{ts.InternType(tau)}
	}
	out := make([]*PSI, 0, len(taus))
	for _, t := range taus {
		out = append(out, NewPSI(t, bags, 0))
	}
	return out
}

// OpenRef returns the ServiceRef of the task's own opening service (the
// first letter of every local run).
func (ts *TaskSystem) OpenRef() ServiceRef {
	return ServiceRef{Kind: SvcOpenSelf, Name: ts.Task.Name}
}

// ServiceAtoms returns the atom names of every observable service of the
// task, used to validate property formulas.
func (ts *TaskSystem) ServiceAtoms() map[string]bool {
	out := map[string]bool{
		"open:" + ts.Task.Name:  true,
		"close:" + ts.Task.Name: true,
	}
	for _, s := range ts.services {
		out["call:"+s.name] = true
	}
	for _, c := range ts.children {
		out["open:"+c.name] = true
		out["close:"+c.name] = true
	}
	return out
}

// succScratch is the reusable per-call working set of Successors: the
// dedup map (hash -> indices into out) and the growing output buffer.
// Pooling both removes the two dominant allocations of the hot loop;
// sync.Pool keeps the reuse safe when verifications run concurrently.
type succScratch struct {
	seen map[uint64][]int32
	out  []Succ
}

var succScratchPool = sync.Pool{
	New: func() any { return &succScratch{seen: make(map[uint64][]int32, 32)} },
}

// Successors computes succ(I): every symbolic transition from the PSI by
// an internal service (children all inactive), a child opening or closing,
// or the task's own closing service (non-root, children inactive).
func (ts *TaskSystem) Successors(p *PSI) []Succ {
	scratch := succScratchPool.Get().(*succScratch)
	out := scratch.out[:0]
	seen := scratch.seen
	emit := func(s Succ) {
		h := s.Next.Key()*31 + uint64(s.Ref.Kind)*7 + uint64(s.Ref.Index)
		// Single map lookup: the bucket slice is read, scanned and
		// written back once instead of being rehashed per access.
		bucket := seen[h]
		for _, i := range bucket {
			if prev := &out[i]; prev.Ref == s.Ref && prev.Next.Equal(s.Next) {
				return
			}
		}
		out = append(out, s)
		seen[h] = append(bucket, int32(len(out)-1))
	}

	if p.Mask == 0 {
		for i := range ts.services {
			ts.internalSuccs(p, &ts.services[i], emit)
		}
		if ts.closePre != nil {
			for _, t1 := range ts.extendToState(ts.closePre, p.Tau) {
				emit(Succ{
					Ref:     ServiceRef{Kind: SvcCloseSelf, Name: ts.Task.Name},
					Next:    NewPSI(t1, p.Bags, p.Mask),
					Closing: true,
				})
			}
		}
	}
	for i := range ts.children {
		c := &ts.children[i]
		if p.Mask&c.bit == 0 {
			for _, t1 := range ts.extendToState(c.openPre, p.Tau) {
				emit(Succ{
					Ref:  ServiceRef{Kind: SvcOpenChild, Name: c.name, Index: i},
					Next: NewPSI(t1, p.Bags, p.Mask|c.bit),
				})
			}
		} else {
			t1 := ts.Opts.Interner.memoized(memoKey{op: memoCloseChild, fn: c, in: p.Tau}, func() []*Pisotype {
				return []*Pisotype{ts.InternType(p.Tau.Project(func(root ExprID) bool {
					return ts.keepState(root) && !c.returnedRoots[root]
				}))}
			})[0]
			emit(Succ{
				Ref:  ServiceRef{Kind: SvcCloseChild, Name: c.name, Index: i},
				Next: NewPSI(t1, p.Bags, p.Mask&^c.bit),
			})
		}
	}
	// Hand back an exact-size copy and return the scratch to the pool,
	// dropping the PSI references it accumulated so pooled buffers do
	// not pin dead states.
	res := make([]Succ, len(out))
	copy(res, out)
	for i := range out {
		out[i] = Succ{}
	}
	scratch.out = out[:0]
	clear(seen)
	succScratchPool.Put(scratch)
	return res
}

func (ts *TaskSystem) internalSuccs(p *PSI, cs *compiledService, emit func(Succ)) {
	pairs := ts.Opts.Interner.memoized(memoKey{op: memoService, fn: cs, in: p.Tau}, func() []*Pisotype {
		return ts.serviceTypes(cs, p.Tau)
	})
	for i := 0; i < len(pairs); i += 2 {
		inserted, t3 := pairs[i], pairs[i+1]
		switch cs.upd {
		case updNone:
			emit(Succ{Ref: cs.ref, Next: NewPSI(t3, p.Bags, p.Mask)})
		case updInsert:
			bags := append([]Bag(nil), p.Bags...)
			bags[cs.relIdx] = bags[cs.relIdx].WithDelta(inserted, 1)
			emit(Succ{Ref: cs.ref, Next: NewPSI(t3, bags, p.Mask)})
		case updRetrieve:
			for _, st := range p.Bags[cs.relIdx].Items {
				if st.Count <= 0 {
					continue
				}
				merged := ts.Opts.Interner.memoized(memoKey{op: memoRetrieve, fn: cs, in: t3, aux: st.Type}, func() []*Pisotype {
					t4 := t3.Clone()
					if !t4.MergeTransported(st.Type, cs.retrievePairs) {
						return nil
					}
					return []*Pisotype{ts.InternType(t4)}
				})
				if len(merged) == 0 {
					continue
				}
				bags := append([]Bag(nil), p.Bags...)
				bags[cs.relIdx] = bags[cs.relIdx].WithDelta(st.Type, -1)
				emit(Succ{Ref: cs.ref, Next: NewPSI(merged[0], bags, p.Mask)})
			}
		}
	}
}

// serviceTypes computes the type part of an internal service's
// transitions from tau, as (inserted-tuple type, next type) pairs
// flattened in emission order; the inserted type is nil unless the
// service inserts.
func (ts *TaskSystem) serviceTypes(cs *compiledService, tau *Pisotype) []*Pisotype {
	var out []*Pisotype
	for _, t0 := range cs.pre.Extend(tau) {
		var inserted *Pisotype
		if cs.upd == updInsert {
			inserted = t0.TransportProject(cs.insertPairs)
			if inserted == nil {
				continue
			}
			inserted = ts.InternType(inserted)
		}
		// Propagate ȳ (plus globals and constants); witnesses drop.
		t1 := t0.Project(func(root ExprID) bool {
			if ts.U.RootClassOf(root) == GlobalRoot {
				return true
			}
			return cs.propRoots[root]
		})
		for _, t2 := range cs.post.Extend(t1) {
			out = append(out, inserted, ts.InternType(t2.Project(ts.keepState)))
		}
	}
	return out
}

// extendToState returns the extensions of tau by the condition, projected
// onto the state roots and interned (memoized).
func (ts *TaskSystem) extendToState(cc *CompiledCond, tau *Pisotype) []*Pisotype {
	return ts.Opts.Interner.memoized(memoKey{op: memoExtendToState, fn: cc, in: tau}, func() []*Pisotype {
		var out []*Pisotype
		for _, t0 := range cc.Extend(tau) {
			out = append(out, ts.InternType(t0.Project(ts.keepState)))
		}
		return out
	})
}

// ExtendInterned returns the extensions of tau by the condition, each
// interned (memoized). The result is shared and must not be mutated.
func (ts *TaskSystem) ExtendInterned(cc *CompiledCond, tau *Pisotype) []*Pisotype {
	return ts.Opts.Interner.memoized(memoKey{op: memoExtend, fn: cc, in: tau}, func() []*Pisotype {
		out := cc.Extend(tau)
		for i, t := range out {
			out[i] = ts.InternType(t)
		}
		return out
	})
}

// NumChildren returns the task's child count.
func (ts *TaskSystem) NumChildren() int { return len(ts.children) }

// ChildName returns the i-th child's name.
func (ts *TaskSystem) ChildName(i int) string { return ts.children[i].name }

// ---------------------------------------------------------------------------
// Accessors used by the static-analysis optimization (package static).

// AllConditions returns every compiled condition of the task system:
// service pre/post conditions, children opening pre-conditions, the closing
// pre-condition, the global pre-condition, and both polarities of the
// property conditions.
func (ts *TaskSystem) AllConditions() []*CompiledCond {
	var out []*CompiledCond
	for i := range ts.services {
		out = append(out, ts.services[i].pre, ts.services[i].post)
	}
	for i := range ts.children {
		out = append(out, ts.children[i].openPre)
	}
	if ts.closePre != nil {
		out = append(out, ts.closePre)
	}
	if ts.globalPre != nil {
		out = append(out, ts.globalPre)
	}
	for _, c := range ts.PropPos {
		out = append(out, c)
	}
	for _, c := range ts.PropNeg {
		out = append(out, c)
	}
	return out
}

// UpdateChannels returns the root-pair mappings of every insertion and
// retrieval update of the task (used to close the constraint graph under
// tuple transport).
func (ts *TaskSystem) UpdateChannels() (inserts, retrieves [][]RootPair) {
	for i := range ts.services {
		switch ts.services[i].upd {
		case updInsert:
			inserts = append(inserts, ts.services[i].insertPairs)
			retrieves = append(retrieves, ts.services[i].retrievePairs)
		case updRetrieve:
			retrieves = append(retrieves, ts.services[i].retrievePairs)
			inserts = append(inserts, ts.services[i].insertPairs)
		}
	}
	return inserts, retrieves
}

// InitialNullRoots returns the variable roots assigned null in the initial
// state.
func (ts *TaskSystem) InitialNullRoots() []ExprID {
	var out []ExprID
	for _, v := range ts.Task.Vars {
		if ts.Task.Parent() != nil && ts.Task.IsInput(v.Name) {
			continue
		}
		if root, ok := ts.U.Root(v.Name); ok {
			out = append(out, root)
		}
	}
	return out
}

// SetFilter attaches the static-analysis edge filter. It must be called
// before Initial() so every pisotype created by the system inherits it.
func (ts *TaskSystem) SetFilter(f EdgeFilter) { ts.Opts.Filter = f }

// SetInterner attaches a hash-consing table for the pisotypes retained in
// states. Like SetFilter it must be called before Initial(). Interning is
// semantically transparent — every mutating path clones before writing —
// so it changes only memory retention, never verdicts.
func (ts *TaskSystem) SetInterner(in *Interner) { ts.Opts.Interner = in }

// Interner returns the attached intern table (nil when interning is off).
func (ts *TaskSystem) Interner() *Interner { return ts.Opts.Interner }

// InternType canonicalizes a pisotype through the attached interner; the
// identity when no interner is attached. Nil-safe in both arguments.
func (ts *TaskSystem) InternType(t *Pisotype) *Pisotype {
	if ts.Opts.Interner == nil {
		return t
	}
	return ts.Opts.Interner.Intern(t)
}
