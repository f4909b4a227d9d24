package vass

import (
	"math"
)

// Count is a counter value; VOmega is ω.
type Count = int64

// VOmega is the ω counter value (n < VOmega for all finite n; VOmega±1 =
// VOmega).
const VOmega Count = math.MaxInt64

// VConfig is a configuration of a vector VASS: a control location and a
// counter vector.
type VConfig struct {
	Loc int
	C   []Count
}

func (c VConfig) clone() VConfig {
	return VConfig{Loc: c.Loc, C: append([]Count(nil), c.C...)}
}

// VTrans is a VASS transition: from location From to location To, adding
// Delta to the counters (which must stay non-negative).
type VTrans struct {
	From, To int
	Delta    []Count
}

// Vec is a concrete vector VASS implementing System, used to validate the
// Karp-Miller machinery in isolation.
type Vec struct {
	Dim   int
	Init  VConfig
	Trans []VTrans
}

// Initial implements System.
func (v *Vec) Initial() []State { return []State{v.Init.clone()} }

// Successors implements System.
func (v *Vec) Successors(s State) []Succ {
	c := s.(VConfig)
	var out []Succ
	for i, t := range v.Trans {
		if t.From != c.Loc {
			continue
		}
		next := make([]Count, v.Dim)
		ok := true
		for d := 0; d < v.Dim; d++ {
			if c.C[d] == VOmega {
				next[d] = VOmega
				continue
			}
			next[d] = c.C[d] + t.Delta[d]
			if next[d] < 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		out = append(out, Succ{Label: i, S: VConfig{Loc: t.To, C: next}})
	}
	return out
}

// Leq implements System: same location, counters pointwise ≤.
func (v *Vec) Leq(a, b State) bool {
	ca, cb := a.(VConfig), b.(VConfig)
	if ca.Loc != cb.Loc {
		return false
	}
	for d := range ca.C {
		if cb.C[d] != VOmega && (ca.C[d] == VOmega || ca.C[d] > cb.C[d]) {
			return false
		}
	}
	return true
}

// Accelerate implements System: if ancestor ≤ s with strict growth in some
// dimension, those dimensions become ω.
func (v *Vec) Accelerate(ancestor, s State) (State, bool) {
	ca, cs := ancestor.(VConfig), s.(VConfig)
	if !v.Leq(ca, cs) {
		return s, false
	}
	changed := false
	out := cs.clone()
	for d := range cs.C {
		if cs.C[d] != VOmega && ca.C[d] < cs.C[d] {
			out.C[d] = VOmega
			changed = true
		}
	}
	if !changed {
		return s, false
	}
	return out, true
}

// IndexSet implements System: Leq requires equal locations, so the
// location is the class; the counters are not indexed.
func (v *Vec) IndexSet(s State) (uint64, []uint64) { return uint64(s.(VConfig).Loc), nil }

// BoundedReach enumerates all configurations reachable without any counter
// exceeding bound (a brute-force oracle for tests).
func (v *Vec) BoundedReach(bound Count) []VConfig {
	type key struct {
		loc int
		sig string
	}
	sig := func(c VConfig) key {
		b := make([]byte, 0, len(c.C)*4)
		for _, x := range c.C {
			b = append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
		}
		return key{c.Loc, string(b)}
	}
	seen := map[key]bool{}
	var out []VConfig
	stack := []VConfig{v.Init.clone()}
	seen[sig(v.Init)] = true
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, c)
		for _, sc := range v.Successors(c) {
			nc := sc.S.(VConfig)
			over := false
			for _, x := range nc.C {
				if x > bound {
					over = true
					break
				}
			}
			if over {
				continue
			}
			k := sig(nc)
			if !seen[k] {
				seen[k] = true
				stack = append(stack, nc)
			}
		}
	}
	return out
}
