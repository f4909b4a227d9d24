package ltl

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Buchi is a Büchi automaton over letters that are truth assignments to a
// set of atomic propositions. It is produced from an LTL formula by the
// GPVW tableau construction followed by degeneralization.
//
// The automaton is "state-labeled": a run over a word assigns a state to
// every position, and the letter at each position must satisfy the state's
// literal requirements (Pos all true, Neg all false). An infinite word is
// accepted if some run visits an accepting state infinitely often; a finite
// word is accepted if some run ends in a state with FinAccepting set (the
// Qfin of the paper: all postponed obligations are satisfiable on the empty
// suffix).
type Buchi struct {
	States []BState
	// Initial lists the states a run may start in (for position 0).
	Initial []int
	// AtomNames are the atoms mentioned by the source formula, sorted.
	AtomNames []string
}

// BState is one automaton state.
type BState struct {
	// Pos and Neg are the positive and negative literal requirements on
	// the letter at this state's position, sorted.
	Pos, Neg []string
	// Succs are the states reachable at the next position, sorted.
	Succs []int
	// Accepting marks membership in the (degeneralized) Büchi acceptance
	// set.
	Accepting bool
	// FinAccepting marks membership in Qfin.
	FinAccepting bool
}

// Letter is a truth assignment queried through a callback: Holds(atom)
// reports whether the atom is true at the current position.
type Letter interface {
	Holds(atom string) bool
}

// MapLetter is a Letter backed by a set of true atoms.
type MapLetter map[string]bool

// Holds implements Letter.
func (m MapLetter) Holds(atom string) bool { return m[atom] }

// Satisfies reports whether the letter meets the state's literal
// requirements.
func (s *BState) Satisfies(l Letter) bool {
	for _, a := range s.Pos {
		if !l.Holds(a) {
			return false
		}
	}
	for _, a := range s.Neg {
		if l.Holds(a) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// GPVW construction.

// gnode is a node of the GPVW tableau.
type gnode struct {
	id       int
	incoming map[int]bool // -1 denotes init
	new      []Formula
	old      map[string]Formula
	next     map[string]Formula
	// strong marks Next obligations that arose from an explicit X (or,
	// implicitly, a pending Until); such obligations fail at the end of a
	// finite word under strong-next semantics, unlike the weak
	// self-unfoldings of Release. Keyed like next.
	strong map[string]bool
}

type gpvw struct {
	nodes  []*gnode
	nextID int
}

func key(f Formula) string { return String(f) }

func cloneSet(m map[string]Formula) map[string]Formula {
	out := make(map[string]Formula, len(m)+2)
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (g *gpvw) newNode(incoming map[int]bool, new []Formula, old, next map[string]Formula, strong map[string]bool) *gnode {
	g.nextID++
	return &gnode{id: g.nextID, incoming: incoming, new: new, old: old, next: next, strong: strong}
}

func cloneBools(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m)+2)
	for k, v := range m {
		out[k] = v
	}
	return out
}

func boolsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// expand implements the GPVW expansion loop (iteratively, to avoid deep
// recursion on large formulas). The tableau can be exponential in the
// formula, so the loop polls ctx every 256 pops and stops with ctx.Err().
func (g *gpvw) expand(ctx context.Context, q *gnode) error {
	stack := []*gnode{q}
	for pops := 0; len(stack) > 0; pops++ {
		if pops%256 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(n.new) == 0 {
			// Merge with an existing node having identical Old and Next.
			merged := false
			for _, r := range g.nodes {
				if setsEqual(r.old, n.old) && setsEqual(r.next, n.next) && boolsEqual(r.strong, n.strong) {
					for in := range n.incoming {
						r.incoming[in] = true
					}
					merged = true
					break
				}
			}
			if merged {
				continue
			}
			g.nodes = append(g.nodes, n)
			// Successor node obliged to fulfill Next.
			succNew := make([]Formula, 0, len(n.next))
			for _, f := range n.next {
				succNew = append(succNew, f)
			}
			sortFormulas(succNew)
			succ := g.newNode(map[int]bool{n.id: true}, succNew, map[string]Formula{}, map[string]Formula{}, map[string]bool{})
			stack = append(stack, succ)
			continue
		}
		// Pop a formula from New.
		eta := n.new[len(n.new)-1]
		n.new = n.new[:len(n.new)-1]
		ek := key(eta)
		if _, done := n.old[ek]; done {
			stack = append(stack, n)
			continue
		}
		switch f := eta.(type) {
		case FalseF:
			// Contradiction: discard node.
		case TrueF:
			stack = append(stack, n)
		case Atom:
			if _, clash := n.old[key(NotF{F: f})]; clash {
				break // discard
			}
			n.old[ek] = eta
			stack = append(stack, n)
		case NotF:
			// NNF: negation is only over atoms.
			if _, clash := n.old[key(f.F)]; clash {
				break // discard
			}
			n.old[ek] = eta
			stack = append(stack, n)
		case AndF:
			n.old[ek] = eta
			n.new = append(n.new, f.L, f.R)
			stack = append(stack, n)
		case OrF:
			q1 := g.newNode(cloneSetInt(n.incoming), append(cloneFs(n.new), f.L), cloneSet(n.old), cloneSet(n.next), cloneBools(n.strong))
			q1.old[ek] = eta
			q2 := n
			q2.old[ek] = eta
			q2.new = append(q2.new, f.R)
			stack = append(stack, q1, q2)
		case X:
			n.old[ek] = eta
			n.next[key(f.F)] = f.F
			n.strong[key(f.F)] = true
			stack = append(stack, n)
		case U:
			// μ U ψ  =  ψ ∨ (μ ∧ X(μ U ψ))
			q1 := g.newNode(cloneSetInt(n.incoming), append(cloneFs(n.new), f.L), cloneSet(n.old), cloneSet(n.next), cloneBools(n.strong))
			q1.old[ek] = eta
			q1.next[ek] = eta
			q2 := n
			q2.old[ek] = eta
			q2.new = append(q2.new, f.R)
			stack = append(stack, q1, q2)
		case R_:
			// μ R ψ  =  (ψ ∧ μ) ∨ (ψ ∧ X(μ R ψ))
			q1 := g.newNode(cloneSetInt(n.incoming), append(cloneFs(n.new), f.R), cloneSet(n.old), cloneSet(n.next), cloneBools(n.strong))
			q1.old[ek] = eta
			q1.next[ek] = eta
			q2 := n
			q2.old[ek] = eta
			q2.new = append(q2.new, f.L, f.R)
			stack = append(stack, q1, q2)
		default:
			panic(fmt.Sprintf("ltl: unexpected %T in GPVW input (must be normalized)", eta))
		}
	}
	return nil
}

func cloneFs(fs []Formula) []Formula {
	out := make([]Formula, len(fs), len(fs)+2)
	copy(out, fs)
	return out
}

func cloneSetInt(m map[int]bool) map[int]bool {
	out := make(map[int]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func setsEqual(a, b map[string]Formula) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func sortFormulas(fs []Formula) {
	sort.Slice(fs, func(i, j int) bool { return key(fs[i]) < key(fs[j]) })
}

// emptySat reports whether the formula is satisfied by the empty word,
// under finite-trace semantics with strong next: literals and X need a
// position, U/F fail, R/G hold vacuously.
func emptySat(f Formula) bool {
	switch g := f.(type) {
	case TrueF:
		return true
	case FalseF:
		return false
	case Atom, NotF, X:
		return false
	case AndF:
		return emptySat(g.L) && emptySat(g.R)
	case OrF:
		return emptySat(g.L) || emptySat(g.R)
	case U:
		return false
	case R_:
		return true
	}
	return false
}

// Translate is TranslateContext without a deadline.
func Translate(f Formula) *Buchi {
	b, _ := TranslateContext(context.Background(), f)
	return b
}

// TranslateContext builds the Büchi automaton of f via GPVW. The formula
// is normalized internally; callers pass the property (or its negation)
// as-is. The construction is exponential in the worst case, so it polls
// ctx and returns ctx.Err() once ctx is done.
func TranslateContext(ctx context.Context, f Formula) (*Buchi, error) {
	nf := Normalize(f)
	g := &gpvw{}
	if _, isFalse := nf.(FalseF); !isFalse {
		root := g.newNode(map[int]bool{-1: true}, []Formula{nf}, map[string]Formula{}, map[string]Formula{}, map[string]bool{})
		if err := g.expand(ctx, root); err != nil {
			return nil, err
		}
	}

	// Collect the until subformulas for the GBA acceptance sets.
	untils := map[string]U{}
	var collectU func(Formula)
	collectU = func(f Formula) {
		switch h := f.(type) {
		case U:
			untils[key(h)] = h
			collectU(h.L)
			collectU(h.R)
		case R_:
			collectU(h.L)
			collectU(h.R)
		case AndF:
			collectU(h.L)
			collectU(h.R)
		case OrF:
			collectU(h.L)
			collectU(h.R)
		case NotF:
			collectU(h.F)
		case X:
			collectU(h.F)
		}
	}
	collectU(nf)
	untilKeys := make([]string, 0, len(untils))
	for k := range untils {
		untilKeys = append(untilKeys, k)
	}
	sort.Strings(untilKeys)

	// Index nodes.
	idToIdx := map[int]int{}
	for i, n := range g.nodes {
		idToIdx[n.id] = i
	}
	type protoState struct {
		pos, neg []string
		succs    []int
		inGBA    []bool // membership in each GBA acceptance set
		finOK    bool
		initial  bool
	}
	protos := make([]protoState, len(g.nodes))
	for i, n := range g.nodes {
		p := &protos[i]
		for _, f := range n.old {
			switch h := f.(type) {
			case Atom:
				p.pos = append(p.pos, h.Name)
			case NotF:
				if a, ok := h.F.(Atom); ok {
					p.neg = append(p.neg, a.Name)
				}
			}
		}
		sort.Strings(p.pos)
		sort.Strings(p.neg)
		p.initial = n.incoming[-1]
		p.inGBA = make([]bool, len(untilKeys))
		for ui, uk := range untilKeys {
			u := untils[uk]
			_, hasU := n.old[uk]
			_, hasPsi := n.old[key(u.R)]
			if _, isTrue := u.R.(TrueF); isTrue {
				// "true" is dropped during expansion rather than
				// recorded in Old; the until is trivially fulfilled.
				hasPsi = true
			}
			p.inGBA[ui] = hasPsi || !hasU
		}
		p.finOK = true
		for k, f := range n.next {
			if n.strong[k] || !emptySat(f) {
				p.finOK = false
				break
			}
		}
	}
	// Successor lists (q -> r iff q ∈ Incoming(r)).
	for j, n := range g.nodes {
		for in := range n.incoming {
			if in == -1 {
				continue
			}
			if i, ok := idToIdx[in]; ok {
				protos[i].succs = append(protos[i].succs, j)
			}
		}
	}
	for i := range protos {
		sort.Ints(protos[i].succs)
	}

	// Degeneralize: states (node, counter). With k=0 all states accept.
	k := len(untilKeys)
	b := &Buchi{AtomNames: Atoms(f)}
	if k == 0 {
		for _, p := range protos {
			b.States = append(b.States, BState{
				Pos: p.pos, Neg: p.neg, Succs: p.succs,
				Accepting: true, FinAccepting: p.finOK,
			})
		}
		for i, p := range protos {
			if p.initial {
				b.Initial = append(b.Initial, i)
			}
		}
		return b, nil
	}
	// State (i, c) maps to index i*k + c.
	idx := func(i, c int) int { return i*k + c }
	b.States = make([]BState, len(protos)*k)
	for i, p := range protos {
		for c := 0; c < k; c++ {
			st := &b.States[idx(i, c)]
			st.Pos, st.Neg = p.pos, p.neg
			st.FinAccepting = p.finOK
			st.Accepting = c == k-1 && p.inGBA[k-1]
			nc := c
			if p.inGBA[c] {
				nc = (c + 1) % k
			}
			for _, s := range p.succs {
				st.Succs = append(st.Succs, idx(s, nc))
			}
		}
	}
	for i, p := range protos {
		if p.initial {
			b.Initial = append(b.Initial, idx(i, 0))
		}
	}
	return b, nil
}

// NumStates returns the state count.
func (b *Buchi) NumStates() int { return len(b.States) }

// String renders the automaton for debugging.
func (b *Buchi) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Buchi(%d states, initial %v)\n", len(b.States), b.Initial)
	for i, s := range b.States {
		mark := " "
		if s.Accepting {
			mark = "*"
		}
		fin := " "
		if s.FinAccepting {
			fin = "$"
		}
		fmt.Fprintf(&sb, "%s%s %3d: +%v -%v -> %v\n", mark, fin, i, s.Pos, s.Neg, s.Succs)
	}
	return sb.String()
}
