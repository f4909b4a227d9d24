package spinlike

import (
	"fmt"
	"sort"
	"strings"

	"verifas/internal/fol"
	"verifas/internal/has"
)

// st is one explicit product state: the verified task's variable valuation
// over the bounded domain, the child-activity mask, the frozen-row
// interpretation, and the Büchi node.
type st struct {
	vals   map[string]fol.Value
	mask   uint32
	rows   *rowMap
	node   int32
	closed bool
}

func (c *checker) stateKey(s *st) string {
	var sb strings.Builder
	names := make([]string, 0, len(s.vals))
	for k := range s.vals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&sb, "%s=%s;", k, s.vals[k])
	}
	fmt.Fprintf(&sb, "|%d|%d|%v|", s.mask, s.node, s.closed)
	rows := s.rows.entries()
	keys := make([]string, 0, len(rows))
	rowStr := map[string]string{}
	for _, r := range rows {
		k := fmt.Sprintf("%s#%s", r.key.Rel, r.key.ID)
		var rs strings.Builder
		if r.absent {
			rs.WriteString("absent")
		} else {
			for _, v := range r.attrs {
				rs.WriteString(v.String())
				rs.WriteByte(',')
			}
		}
		rowStr[k] = rs.String()
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s:%s;", k, rowStr[k])
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Condition satisfaction with lazy row materialization.

// satisfy returns the row-map extensions under which the (possibly
// negated) formula holds for the valuation. An empty result means
// unsatisfiable; c.overflow is set when branching explodes past the cap.
func (c *checker) satisfy(f fol.Formula, neg bool, nu fol.MapValuation, rows *rowMap) []*rowMap {
	if c.overflow {
		return nil
	}
	switch g := f.(type) {
	case fol.True:
		if neg {
			return nil
		}
		return []*rowMap{rows}
	case fol.False:
		if neg {
			return []*rowMap{rows}
		}
		return nil
	case fol.Not:
		return c.satisfy(g.F, !neg, nu, rows)
	case fol.Implies:
		return c.satisfy(fol.MkOr(fol.MkNot(g.L), g.R), neg, nu, rows)
	case fol.And:
		if neg {
			return c.satisfyUnion(negAll(g.Fs), nu, rows)
		}
		return c.satisfySeq(g.Fs, nu, rows)
	case fol.Or:
		if neg {
			return c.satisfySeq(negAll(g.Fs), nu, rows)
		}
		return c.satisfyUnion(g.Fs, nu, rows)
	case fol.Eq:
		l, okL := c.term(g.L, nu)
		r, okR := c.term(g.R, nu)
		if !okL || !okR {
			return nil
		}
		if (l == r) != neg {
			return []*rowMap{rows}
		}
		return nil
	case fol.Exists:
		if neg {
			// Validation rejects negated existentials; treat as overflow
			// defensively.
			c.overflow = true
			return nil
		}
		return c.satisfyExists(g, nu, rows)
	case fol.Rel:
		return c.satisfyRel(g, neg, nu, rows)
	}
	c.overflow = true
	return nil
}

func negAll(fs []fol.Formula) []fol.Formula {
	out := make([]fol.Formula, len(fs))
	for i, f := range fs {
		out[i] = fol.MkNot(f)
	}
	return out
}

// satisfySeq conjoins: each subformula filters/extends the alternatives.
func (c *checker) satisfySeq(fs []fol.Formula, nu fol.MapValuation, rows *rowMap) []*rowMap {
	alts := []*rowMap{rows}
	for _, f := range fs {
		var next []*rowMap
		for _, alt := range alts {
			next = append(next, c.satisfy(f, false, nu, alt)...)
			if len(next) > maxBranch {
				c.overflow = true
				return nil
			}
		}
		alts = next
		if len(alts) == 0 {
			return nil
		}
	}
	return alts
}

func (c *checker) satisfyUnion(fs []fol.Formula, nu fol.MapValuation, rows *rowMap) []*rowMap {
	var out []*rowMap
	for _, f := range fs {
		out = append(out, c.satisfy(f, false, nu, rows)...)
		if len(out) > maxBranch {
			c.overflow = true
			return nil
		}
	}
	return out
}

func (c *checker) satisfyExists(g fol.Exists, nu fol.MapValuation, rows *rowMap) []*rowMap {
	if len(g.Vars) == 0 {
		return c.satisfy(g.Body, false, nu, rows)
	}
	v := g.Vars[0]
	rest := fol.Exists{Vars: g.Vars[1:], Body: g.Body}
	var cands []fol.Value
	if v.Rel != "" {
		cands = append(cands, c.idDom[v.Rel]...)
	} else {
		cands = append(cands, c.valDom...)
	}
	cands = append(cands, fol.NullValue())
	var out []*rowMap
	inner := fol.MapValuation{}
	for k, x := range nu {
		inner[k] = x
	}
	for _, cand := range cands {
		inner[v.Name] = cand
		out = append(out, c.satisfy(rest, false, inner, rows)...)
		if len(out) > maxBranch {
			c.overflow = true
			return nil
		}
	}
	return out
}

func (c *checker) term(t fol.Term, nu fol.MapValuation) (fol.Value, bool) {
	switch t.Kind {
	case fol.TNull:
		return fol.NullValue(), true
	case fol.TConst:
		return fol.ConstValue(t.Name), true
	default:
		v, ok := nu.Lookup(t.Name)
		return v, ok
	}
}

// refConsistent checks that marking (rel,id) absent does not orphan a
// frozen foreign key, and that a tuple's foreign keys do not reference
// known-absent rows.
func (c *checker) absentConsistent(rows *rowMap, k rowKey) bool {
	for _, e := range rows.entries() {
		if e.absent {
			continue
		}
		rel, _ := c.sys.Schema.Relation(e.key.Rel)
		for i, a := range rel.Attrs {
			if a.Kind == has.ForeignKey && a.Ref == k.Rel && e.attrs[i] == k.ID {
				return false
			}
		}
	}
	return true
}

func (c *checker) tupleConsistent(rows *rowMap, rel *has.Relation, attrs []fol.Value) bool {
	for i, a := range rel.Attrs {
		v := attrs[i]
		switch a.Kind {
		case has.NonKey:
			if v.Kind != fol.VConst {
				return false
			}
		case has.ForeignKey:
			if v.Kind != fol.VID || v.Rel != a.Ref {
				return false
			}
			if e, ok := rows.lookup(rowKey{Rel: a.Ref, ID: v}); ok && e.absent {
				return false
			}
		}
	}
	return true
}

func (c *checker) satisfyRel(g fol.Rel, neg bool, nu fol.MapValuation, rows *rowMap) []*rowMap {
	rel, ok := c.sys.Schema.Relation(g.Name)
	if !ok || len(g.Args) != rel.Arity() {
		c.overflow = true
		return nil
	}
	key, okK := c.term(g.Args[0], nu)
	if !okK {
		return nil
	}
	args := make([]fol.Value, len(g.Args)-1)
	anyNull := key.IsNull()
	for i, a := range g.Args[1:] {
		v, ok := c.term(a, nu)
		if !ok {
			return nil
		}
		args[i] = v
		if v.IsNull() {
			anyNull = true
		}
	}
	if anyNull {
		// Atoms with a null argument are false.
		if neg {
			return []*rowMap{rows}
		}
		return nil
	}
	k := rowKey{Rel: g.Name, ID: key}
	entry, known := rows.lookup(k)
	if !neg {
		if known {
			if entry.absent || !tupleEqual(entry.attrs, args) {
				return nil
			}
			return []*rowMap{rows}
		}
		if !c.tupleConsistent(rows, rel, args) {
			return nil
		}
		return []*rowMap{rows.with(k, false, args)}
	}
	// Negated atom.
	if known {
		if entry.absent || !tupleEqual(entry.attrs, args) {
			return []*rowMap{rows}
		}
		return nil
	}
	var out []*rowMap
	if c.absentConsistent(rows, k) {
		out = append(out, rows.with(k, true, nil))
	}
	// Present with a different tuple: enumerate the bounded tuples.
	for _, tuple := range c.tuples(rel) {
		if tupleEqual(tuple, args) {
			continue
		}
		if !c.tupleConsistent(rows, rel, tuple) {
			continue
		}
		out = append(out, rows.with(k, false, tuple))
		if len(out) > maxBranch {
			c.overflow = true
			return nil
		}
	}
	return out
}

func tupleEqual(a, b []fol.Value) bool {
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

// tuples enumerates every bounded tuple of a relation.
func (c *checker) tuples(rel *has.Relation) [][]fol.Value {
	doms := make([][]fol.Value, len(rel.Attrs))
	for i, a := range rel.Attrs {
		if a.Kind == has.NonKey {
			doms[i] = c.valDom
		} else {
			doms[i] = c.idDom[a.Ref]
		}
	}
	out := [][]fol.Value{nil}
	for _, dom := range doms {
		var next [][]fol.Value
		for _, base := range out {
			for _, v := range dom {
				t := make([]fol.Value, len(base)+1)
				copy(t, base)
				t[len(base)] = v
				next = append(next, t)
			}
		}
		out = next
	}
	return out
}

// ---------------------------------------------------------------------------
// Product successors.

type succ struct {
	atom    string
	closing bool
	s       *st
}

// hasSuccs enumerates the HAS*-level successors (before the Büchi
// product) of the task-local state.
func (c *checker) hasSuccs(s *st, gv fol.MapValuation) []succ {
	var out []succ
	nu := c.valuation(s, gv)
	if s.mask == 0 {
		for _, svc := range c.task.Services {
			out = append(out, c.internalSuccs(s, svc, nu, gv)...)
			if c.overflow {
				return nil
			}
		}
		if c.task.Parent() != nil {
			cp := c.task.ClosingPre
			if cp == nil {
				cp = fol.True{}
			}
			for _, rows := range c.satisfy(cp, false, nu, s.rows) {
				ns := &st{vals: s.vals, mask: s.mask, rows: rows, closed: true}
				out = append(out, succ{atom: "close:" + c.task.Name, closing: true, s: ns})
			}
		}
	}
	for i, ch := range c.task.Children {
		bit := uint32(1) << uint(i)
		if s.mask&bit == 0 {
			op := ch.OpeningPre
			if op == nil {
				op = fol.True{}
			}
			for _, rows := range c.satisfy(op, false, nu, s.rows) {
				ns := &st{vals: s.vals, mask: s.mask | bit, rows: rows}
				out = append(out, succ{atom: "open:" + ch.Name, s: ns})
			}
		} else {
			// Child closes: havoc the returned parent variables over the
			// bounded domain.
			returned := ch.ReturnedParentVars()
			for _, vals := range c.havoc(s.vals, returned) {
				ns := &st{vals: vals, mask: s.mask &^ bit, rows: s.rows}
				out = append(out, succ{atom: "close:" + ch.Name, s: ns})
			}
		}
		if len(out) > maxBranch {
			c.overflow = true
			return nil
		}
	}
	return out
}

func (c *checker) internalSuccs(s *st, svc *has.Service, nu fol.MapValuation, gv fol.MapValuation) []succ {
	pre := svc.Pre
	if pre == nil {
		pre = fol.True{}
	}
	post := svc.Post
	if post == nil {
		post = fol.True{}
	}
	var out []succ
	fixed := map[string]bool{}
	for _, y := range svc.Propagate {
		fixed[y] = true
	}
	for _, in := range c.task.In {
		fixed[in] = true
	}
	var free []string
	for _, v := range c.task.Vars {
		if !fixed[v.Name] {
			free = append(free, v.Name)
		}
	}
	for _, rows := range c.satisfy(pre, false, nu, s.rows) {
		for _, vals := range c.havoc(s.vals, free) {
			nnu := c.valuationVals(vals, gv)
			for _, rows2 := range c.satisfy(post, false, nnu, rows) {
				ns := &st{vals: vals, mask: s.mask, rows: rows2}
				out = append(out, succ{atom: "call:" + svc.Name, s: ns})
				if len(out) > maxBranch {
					c.overflow = true
					return nil
				}
			}
			if c.overflow {
				return nil
			}
		}
	}
	return out
}

// havoc enumerates all bounded reassignments of the named variables.
func (c *checker) havoc(vals map[string]fol.Value, names []string) []map[string]fol.Value {
	out := []map[string]fol.Value{vals}
	for _, name := range names {
		v, _ := c.task.Var(name)
		var cands []fol.Value
		if v.Type.IsID() {
			cands = append(cands, c.idDom[v.Type.Rel]...)
		} else {
			cands = append(cands, c.valDom...)
		}
		cands = append(cands, fol.NullValue())
		var next []map[string]fol.Value
		for _, base := range out {
			for _, cand := range cands {
				nv := make(map[string]fol.Value, len(base))
				for k, x := range base {
					nv[k] = x
				}
				nv[name] = cand
				next = append(next, nv)
			}
			if len(next) > maxBranch {
				c.overflow = true
				return nil
			}
		}
		out = next
	}
	return out
}

func (c *checker) valuation(s *st, gv fol.MapValuation) fol.MapValuation {
	return c.valuationVals(s.vals, gv)
}

func (c *checker) valuationVals(vals map[string]fol.Value, gv fol.MapValuation) fol.MapValuation {
	nu := fol.MapValuation{}
	for k, v := range vals {
		nu[k] = v
	}
	for k, v := range gv {
		nu[k] = v
	}
	return nu
}

// productSuccs composes HAS* successors with the Büchi transition.
func (c *checker) productSuccs(s *st, gv fol.MapValuation) []*st {
	if s.closed {
		return nil
	}
	var out []*st
	for _, hs := range c.hasSuccs(s, gv) {
		for _, n := range c.buchi.States[s.node].Succs {
			ns, ok := c.buchiEnter(hs.s, int32(n), hs.atom, gv)
			if !ok {
				continue
			}
			for _, x := range ns {
				x.closed = hs.closing
			}
			out = append(out, ns...)
			if len(out) > maxBranch {
				c.overflow = true
				return nil
			}
		}
	}
	return out
}

// buchiEnter checks the literal requirements of Büchi node n against the
// snapshot, possibly materializing rows for the condition propositions.
type stList = []*st

func (c *checker) buchiEnter(base *st, n int32, atom string, gv fol.MapValuation) (stList, bool) {
	bs := &c.buchi.States[n]
	nu := c.valuation(base, gv)
	alts := []*rowMap{base.rows}
	for _, a := range bs.Pos {
		if c.svcAtoms[a] {
			if a != atom {
				return nil, false
			}
			continue
		}
		f := c.prop.Conds[a]
		var next []*rowMap
		for _, alt := range alts {
			next = append(next, c.satisfy(f, false, nu, alt)...)
		}
		alts = next
		if len(alts) == 0 {
			return nil, false
		}
	}
	for _, a := range bs.Neg {
		if c.svcAtoms[a] {
			if a == atom {
				return nil, false
			}
			continue
		}
		f := c.prop.Conds[a]
		var next []*rowMap
		for _, alt := range alts {
			next = append(next, c.satisfy(f, true, nu, alt)...)
		}
		alts = next
		if len(alts) == 0 {
			return nil, false
		}
	}
	var out stList
	for _, alt := range alts {
		out = append(out, &st{vals: base.vals, mask: base.mask, rows: alt, node: n})
	}
	return out, true
}

// initialStates builds the initial product states for a global valuation.
func (c *checker) initialStates(gv fol.MapValuation) []*st {
	vals := map[string]fol.Value{}
	for _, v := range c.task.Vars {
		vals[v.Name] = fol.NullValue()
	}
	var bases []*st
	if c.task.Parent() == nil {
		pre := c.sys.GlobalPre
		if pre == nil {
			pre = fol.True{}
		}
		for _, assignment := range c.havoc(vals, varNames(c.task.Vars)) {
			nu := c.valuationVals(assignment, gv)
			for _, rows := range c.satisfy(pre, false, nu, nil) {
				bases = append(bases, &st{vals: assignment, rows: rows})
			}
			if c.overflow {
				return nil
			}
		}
	} else {
		for _, assignment := range c.havoc(vals, c.task.In) {
			bases = append(bases, &st{vals: assignment, rows: nil})
		}
	}
	openAtom := "open:" + c.task.Name
	var out []*st
	for _, b := range bases {
		for _, n := range c.buchi.Initial {
			ns, ok := c.buchiEnter(b, int32(n), openAtom, gv)
			if ok {
				out = append(out, ns...)
			}
		}
	}
	return out
}

func varNames(vs []has.Variable) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out
}

// ---------------------------------------------------------------------------
// Nested depth-first search (the algorithm Spin uses for acceptance
// cycles), plus finite-run acceptance.

// checkForGlobals explores the product for one global valuation.
// It returns (violated, timedOut, budget); budget marks memory-budget
// exhaustion (core.VerdictBudget) as opposed to the state/branch/time
// budgets that map to timedOut.
func (c *checker) checkForGlobals(gv fol.MapValuation) (bool, bool, bool) {
	type nodeRec struct {
		s     *st
		succs []int // state ids
	}
	var recs []nodeRec
	// Exact mode keys the table by the serialized state (retaining one
	// key string per state — the dominant memory cost of the search);
	// bitstate mode keys it by a double 64-bit hash of that string, so
	// the string is transient. A collision of both hashes (~2⁻¹²⁸ per
	// pair) silently merges two distinct states: lossy coverage, which is
	// why Options.Bitstate is opt-in and declared in Caps().Lossy.
	var idOf map[string]int
	var bitOf map[[2]uint64]int
	if c.bitstate {
		bitOf = map[[2]uint64]int{}
	} else {
		idOf = map[string]int{}
	}

	intern := func(s *st) (int, bool) {
		k := c.stateKey(s)
		var hk [2]uint64
		if c.bitstate {
			hk = doubleHash(k)
			if id, ok := bitOf[hk]; ok {
				return id, false
			}
		} else if id, ok := idOf[k]; ok {
			return id, false
		}
		id := len(recs)
		if id >= c.budget {
			c.overflow = true
			return 0, false
		}
		// Memory accounting: map entry + nodeRec + state skeleton; the
		// exact table additionally retains the key string.
		cost := int64(80)
		if !c.bitstate {
			cost += int64(len(k)) + 32
		}
		if c.memBudget > 0 && c.memBytes+cost > c.memBudget {
			c.budgetHit = true
			c.overflow = true
			return 0, false
		}
		c.memBytes += cost
		if c.bitstate {
			bitOf[hk] = id
		} else {
			idOf[k] = id
		}
		recs = append(recs, nodeRec{s: s})
		c.interned++
		return id, true
	}
	expand := func(id int) []int {
		if recs[id].succs != nil || recs[id].s.closed {
			return recs[id].succs
		}
		var out []int
		for _, ns := range c.productSuccs(recs[id].s, gv) {
			if c.overflow {
				return nil
			}
			sid, _ := intern(ns)
			if c.overflow {
				return nil
			}
			out = append(out, sid)
		}
		if out == nil {
			out = []int{}
		}
		recs[id].succs = out
		return out
	}

	checkTime := func() bool {
		return c.ctx != nil && c.ctx.Err() != nil
	}

	// Outer DFS with post-order accepting-state probing (NDFS).
	inner := func(start int) bool {
		// Search for a cycle back to start.
		seen := map[int]bool{}
		stack := append([]int{}, expand(start)...)
		for len(stack) > 0 {
			if c.overflow || checkTime() {
				return false
			}
			c.emitProgress(len(stack), false)
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if id == start {
				return true
			}
			if seen[id] {
				continue
			}
			seen[id] = true
			stack = append(stack, expand(id)...)
		}
		return false
	}

	// stopped maps an overflow/timeout abort to the (timedOut, budget)
	// pair: the memory budget wins over the state/time budgets because
	// budgetHit is only ever set together with overflow.
	stopped := func() (bool, bool, bool) {
		return false, !c.budgetHit, c.budgetHit
	}

	var roots []int
	for _, s := range c.initialStates(gv) {
		if c.overflow {
			return stopped()
		}
		id, _ := intern(s)
		if c.overflow {
			return stopped()
		}
		roots = append(roots, id)
	}
	visited := map[int]bool{}
	type frame struct {
		id int
		ei int
	}
	for _, root := range roots {
		if visited[root] {
			continue
		}
		stack := []frame{{id: root}}
		visited[root] = true
		for len(stack) > 0 {
			if c.overflow || checkTime() {
				return stopped()
			}
			c.emitProgress(len(stack), false)
			f := &stack[len(stack)-1]
			s := recs[f.id].s
			// Finite-run acceptance.
			if s.closed && c.buchi.States[s.node].FinAccepting {
				return true, false, false
			}
			succs := expand(f.id)
			if c.overflow {
				return stopped()
			}
			if f.ei < len(succs) {
				nid := succs[f.ei]
				f.ei++
				if !visited[nid] {
					visited[nid] = true
					stack = append(stack, frame{id: nid})
				}
				continue
			}
			// Post-order: probe accepting states for self-cycles.
			if !s.closed && c.buchi.States[s.node].Accepting {
				if inner(f.id) {
					return true, false, false
				}
				if c.overflow || checkTime() {
					return stopped()
				}
			}
			stack = stack[:len(stack)-1]
		}
	}
	return false, false, false
}

// doubleHash computes two independent 64-bit hashes of the serialized
// state for the bitstate table: FNV-1a plus a SplitMix64-style
// accumulator. Treating the pair as one 128-bit fingerprint puts the
// per-pair collision probability around 2⁻¹²⁸.
func doubleHash(s string) [2]uint64 {
	h1 := uint64(14695981039346656037)
	h2 := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < len(s); i++ {
		b := uint64(s[i])
		h1 = (h1 ^ b) * 1099511628211
		h2 = (h2 + b) * 0xBF58476D1CE4E5B9
		h2 ^= h2 >> 29
	}
	return [2]uint64{h1, h2}
}
