// Package core implements the VERIFAS verifier: the product of a task's
// symbolic transition system with the Büchi automaton of the negated
// LTL-FO property, the lazily-explored Karp-Miller search with the paper's
// optimizations (⪯ pruning, static analysis, index structures), violation
// detection for both finite and infinite local runs, and counterexample
// reconstruction (paper Section 3).
package core

import (
	"context"

	"verifas/internal/ltl"
	"verifas/internal/symbolic"
	"verifas/internal/vass"
)

// PState is a product state: a partial symbolic instance paired with the
// Büchi automaton node having just read the current snapshot. Closed marks
// the terminal state after the task's own closing service.
type PState struct {
	PSI    *symbolic.PSI
	Node   int32
	Closed bool
}

// Label is the edge label of product transitions.
type Label struct {
	Ref symbolic.ServiceRef
}

// Order selects the pruning relation of the search.
type Order int

const (
	// OrderLeq is the classic coverage order ≤ (same type and counters
	// pointwise dominated).
	OrderLeq Order = iota
	// OrderPrecedes is the ⪯ relation of Section 3.5.
	OrderPrecedes
)

// buchiStateInfo precompiles the literal requirements of one Büchi state
// against the task system.
type buchiStateInfo struct {
	// posService is the required service atom ("" = none); unsat marks
	// states requiring two distinct service atoms simultaneously.
	posService string
	unsat      bool
	// negServices are forbidden service atoms.
	negServices map[string]bool
	// conds are condition-proposition requirements: the compiled
	// condition (already the right polarity) applied in sequence.
	conds []*symbolic.CompiledCond
}

// product is the synchronous product system explored by the Karp-Miller
// search; it implements vass.System.
type product struct {
	ts    *symbolic.TaskSystem
	buchi *ltl.Buchi
	info  []buchiStateInfo
	order Order

	// ctx, when non-nil, truncates successor expansion once done, so that
	// a single highly-branching state cannot delay the search's
	// cancellation checks indefinitely.
	ctx context.Context
}

// newProduct precompiles the Büchi states' literals. Atoms must have been
// validated: every atom is a service atom or a compiled property
// condition.
func newProduct(ts *symbolic.TaskSystem, b *ltl.Buchi, order Order) *product {
	svcAtoms := ts.Task.ServiceAtoms()
	p := &product{ts: ts, buchi: b, order: order, info: make([]buchiStateInfo, len(b.States))}
	for i := range b.States {
		st := &b.States[i]
		inf := &p.info[i]
		inf.negServices = map[string]bool{}
		for _, a := range st.Pos {
			if svcAtoms[a] {
				if inf.posService != "" && inf.posService != a {
					inf.unsat = true
				}
				inf.posService = a
			} else {
				inf.conds = append(inf.conds, ts.PropPos[a])
			}
		}
		for _, a := range st.Neg {
			if svcAtoms[a] {
				inf.negServices[a] = true
			} else {
				inf.conds = append(inf.conds, ts.PropNeg[a])
			}
		}
	}
	return p
}

// admitsService reports whether Büchi state n can read a snapshot produced
// by the given service.
func (p *product) admitsService(n int32, ref symbolic.ServiceRef) bool {
	inf := &p.info[n]
	if inf.unsat {
		return false
	}
	atom := ref.AtomName()
	if inf.posService != "" && inf.posService != atom {
		return false
	}
	if inf.negServices[atom] {
		return false
	}
	return true
}

// condVariants folds the condition literals of Büchi state n over tau,
// returning every consistent extension, interned.
func (p *product) condVariants(n int32, tau *symbolic.Pisotype) []*symbolic.Pisotype {
	cur := []*symbolic.Pisotype{tau}
	for _, cc := range p.info[n].conds {
		if cc == nil {
			return nil // atom refers to an unknown proposition; unreachable after validation
		}
		var next []*symbolic.Pisotype
		for _, t := range cur {
			// Interned because these types are retained in product states,
			// and distinct Büchi nodes reading the same snapshot produce
			// many structurally equal ones; memoized because they also
			// reread the same (condition, type) pairs.
			next = append(next, p.ts.ExtendInterned(cc, t)...)
		}
		if len(next) == 0 {
			return nil
		}
		cur = next
	}
	return cur
}

// Initial implements vass.System: the first snapshot of every local run is
// the task's own opening service.
func (p *product) Initial() []vass.State {
	var out []vass.State
	openRef := p.ts.OpenRef()
	for _, psi := range p.ts.Initial() {
		for _, n := range p.buchi.Initial {
			n32 := int32(n)
			if !p.admitsService(n32, openRef) {
				continue
			}
			for _, tau := range p.condVariants(n32, psi.Tau) {
				out = append(out, &PState{
					PSI:  symbolic.NewPSI(tau, psi.Bags, psi.Mask),
					Node: n32,
				})
			}
		}
	}
	return out
}

// Successors implements vass.System.
func (p *product) Successors(s vass.State) []vass.Succ {
	ps := s.(*PState)
	if ps.Closed {
		return nil
	}
	var out []vass.Succ
	for _, sc := range p.ts.Successors(ps.PSI) {
		if p.ctx != nil && p.ctx.Err() != nil {
			return out // truncated; Verify answers "holds" only if ctx is still live at the end
		}
		for _, n := range p.buchi.States[ps.Node].Succs {
			n32 := int32(n)
			if !p.admitsService(n32, sc.Ref) {
				continue
			}
			for _, tau := range p.condVariants(n32, sc.Next.Tau) {
				out = append(out, vass.Succ{
					Label: Label{Ref: sc.Ref},
					S: &PState{
						PSI:    symbolic.NewPSI(tau, sc.Next.Bags, sc.Next.Mask),
						Node:   n32,
						Closed: sc.Closing,
					},
				})
			}
		}
	}
	return out
}

// Key implements vass.System.
func (p *product) Key(s vass.State) uint64 {
	ps := s.(*PState)
	h := ps.PSI.Key()*1000003 + uint64(ps.Node)*2 + 1
	if ps.Closed {
		h ^= 0x5bd1e995
	}
	return h
}

// Equal implements vass.System.
func (p *product) Equal(a, b vass.State) bool {
	x, y := a.(*PState), b.(*PState)
	return x.Node == y.Node && x.Closed == y.Closed && x.PSI.Equal(y.PSI)
}

// Leq implements vass.System with the configured order.
func (p *product) Leq(a, b vass.State) bool {
	x, y := a.(*PState), b.(*PState)
	if x.Node != y.Node || x.Closed != y.Closed {
		return false
	}
	if p.order == OrderLeq {
		return x.PSI.Leq(y.PSI)
	}
	return x.PSI.Precedes(y.PSI)
}

// Accelerate implements vass.System: the accel operator of Section 3.3
// (≤ order) or its ⪯-based generalization of Section 3.5.
func (p *product) Accelerate(ancestor, s vass.State) (vass.State, bool) {
	x, y := ancestor.(*PState), s.(*PState)
	if x.Node != y.Node || x.Closed != y.Closed {
		return s, false
	}
	var ok bool
	var slack [][]bool
	switch p.order {
	case OrderLeq:
		if !x.PSI.Leq(y.PSI) {
			return s, false
		}
		// Strictly grown counters become ω.
		ok = true
		slack = make([][]bool, len(y.PSI.Bags))
		for r := range y.PSI.Bags {
			slack[r] = make([]bool, len(y.PSI.Bags[r].Items))
			for i, it := range y.PSI.Bags[r].Items {
				if it.Count == symbolic.Omega {
					continue
				}
				j := x.PSI.Bags[r].Find(it.Type)
				prev := symbolic.Count(0)
				if j >= 0 {
					prev = x.PSI.Bags[r].Items[j].Count
				}
				if prev != symbolic.Omega && prev < it.Count {
					slack[r][i] = true
				}
			}
		}
	default:
		ok, slack = x.PSI.PrecedesWithSlack(y.PSI)
	}
	if !ok {
		return s, false
	}
	changed := false
	bags := append([]symbolic.Bag(nil), y.PSI.Bags...)
	for r := range bags {
		for i := range bags[r].Items {
			if slack[r][i] && bags[r].Items[i].Count != symbolic.Omega {
				bags[r] = bags[r].WithCount(i, symbolic.Omega)
				changed = true
			}
		}
	}
	if !changed {
		return s, false
	}
	return &PState{PSI: symbolic.NewPSI(y.PSI.Tau, bags, y.PSI.Mask), Node: y.Node, Closed: y.Closed}, true
}

// IndexSet implements vass.System. Every order requires equal Büchi nodes,
// closed flags and child masks, so they make the class: the node in the
// top 31 bits, the closed flag in bit 32 and the mask in the low 32 bits.
// The set is the variable type's canonical edge set, shared and not
// copied: I ⪯ I' (and I ≤ I') implies τ |= τ', that is E(τ') ⊆ E(τ).
func (p *product) IndexSet(s vass.State) (uint64, []uint64) {
	ps := s.(*PState)
	class := uint64(uint32(ps.Node))<<33 | uint64(ps.PSI.Mask)
	if ps.Closed {
		class |= 1 << 32
	}
	return class, ps.PSI.Tau.Edges()
}

// StateBytes implements vass.Sized: the estimated unique retained bytes
// of one product state for the memory-budget accounting. With an
// interner attached the variable type is shared structure charged once
// via the intern table (vass.Options.MemExtra), so only the per-state
// PSI/bag skeleton counts here; without one every state owns its type.
func (p *product) StateBytes(s vass.State) int {
	ps := s.(*PState)
	sz := 96 // PState + PSI struct and slice headers
	for _, b := range ps.PSI.Bags {
		sz += 24 + 24*len(b.Items)
	}
	if p.ts.Interner() == nil {
		sz += ps.PSI.Tau.SizeBytes()
	}
	return sz
}

// Accepting reports whether the state's Büchi node is in the acceptance
// set (for infinite-run violations).
func (p *product) Accepting(s *PState) bool {
	return !s.Closed && p.buchi.States[s.Node].Accepting
}

// FinViolation reports whether the state ends a finite local run accepted
// by the negated property.
func (p *product) FinViolation(s *PState) bool {
	return s.Closed && p.buchi.States[s.Node].FinAccepting
}
