package symbolic

import (
	"slices"
	"sync"
)

// Interner is a hash-consing table for pisotypes: structurally equal
// types (identical canonical edge sets) are collapsed onto one shared
// *Pisotype, so the thousands of states that reference the same
// constraint graph hold one allocation instead of one copy each, and
// equality between interned types degenerates to pointer comparison
// (Pisotype.Equal and Implies take that fast path).
//
// Interned types are shared across states and across goroutines and MUST
// NOT be mutated. Successor generation builds its intermediate types in
// a pooled typeArena, copying an interned input there before any write,
// and interns through InternCopy, which clones the arena type it adopts;
// so attaching an interner never changes verdicts or traces — only
// retained bytes.
//
// The canonical edge slices of interned types are re-homed into chunked
// []uint64 arena blocks: many small sorted slices become dense segments
// of a few large allocations, shrinking both per-slice overhead and GC
// scan work.
//
// The interner also carries the successor-type memo: the interned
// outputs of each symbolic transformation (a service, a condition
// extension, a child opening or closing, a retrieval merge) applied to an
// interned input type. The outputs are a pure function of the canonical
// inputs, so within one interner's lifetime each (transformation, type)
// pair is computed once; see memoized.
//
// One mutex guards the table and the memo. A verification interns from
// one goroutine, so the lock is uncontended; it keeps every method safe
// for concurrent use.
type Interner struct {
	mu     sync.Mutex
	byHash map[uint64][]*Pisotype
	memo   map[memoKey][]*Pisotype

	// edge arena: canonical edge slices of interned types are copied
	// into fixed-size blocks so their backing arrays are shared.
	block []uint64

	hits   int64
	misses int64
	bytes  int64
}

// internBlockWords sizes the edge-arena blocks (8 KiB each).
const internBlockWords = 1024

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{
		byHash: make(map[uint64][]*Pisotype),
		memo:   make(map[memoKey][]*Pisotype),
	}
}

// Intern returns the canonical representative of t: the previously
// interned type with the same canonical edge set, or t itself (sealed and
// arena-backed) when it is the first of its class. A nil t interns to
// nil; a nil interner is the identity.
func (in *Interner) Intern(t *Pisotype) *Pisotype {
	if in == nil || t == nil {
		return t
	}
	return in.intern(t, false)
}

// InternCopy is Intern for a type the caller goes on to reuse, such as a
// typeArena type: it retains no memory of t, and adopts a clone of t when
// t is the first of its class. A nil interner returns a clone.
func (in *Interner) InternCopy(t *Pisotype) *Pisotype {
	if t == nil {
		return nil
	}
	if in == nil {
		return t.Clone()
	}
	return in.intern(t, true)
}

// intern looks t up and on a miss adopts t, or a clone of t when clone is
// set.
func (in *Interner) intern(t *Pisotype, clone bool) *Pisotype {
	// Seal the lazy canon/hash caches before taking the lock (and before
	// the type can be shared with other goroutines).
	edges := t.Edges()
	h := t.hash
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, c := range in.byHash[h] {
		if c.Equal(t) {
			in.hits++
			return c
		}
	}
	if clone {
		t = t.cloneUnsealed()
		t.hash = h
	}
	// First of its class: adopt t, re-homing its edge slice into the
	// arena so the many small canon arrays share big blocks.
	t.canon = in.arenaCopy(edges)
	t.owner = in
	in.byHash[h] = append(in.byHash[h], t)
	in.misses++
	in.bytes += int64(t.SizeBytes())
	return t
}

// memoOp names the kind of a memoized transformation.
type memoOp uint8

const (
	// memoService: an internal service's pre → project ȳ → post → project
	// chain; outputs are (inserted-tuple type, next type) pairs, flattened.
	memoService memoOp = iota
	// memoRetrieve: merging a stored tuple type (aux) into a service's
	// next type; one output, or none when the merge is inconsistent.
	memoRetrieve
	// memoExtend: a condition's extensions.
	memoExtend
	// memoExtendToState: a condition's extensions projected onto the
	// state roots (closing pre-condition, child opening).
	memoExtendToState
	// memoCloseChild: havocking a child's returned variables.
	memoCloseChild
)

// memoKey identifies one application of a transformation: fn is the
// compiled transformation (*CompiledCond, *compiledService or
// *compiledChild), in and aux its interned input types.
type memoKey struct {
	op      memoOp
	fn      any
	in, aux *Pisotype
}

// memoized returns the interned outputs of the transformation k, running
// compute only on the first request. The memo is bypassed (compute runs
// every time) on a nil interner or when an input type is not one of in's
// representatives: only a representative's pointer stands for its
// content. compute must intern every output through in, so it runs
// without the lock held. The returned slice is shared with every later
// hit and must not be mutated.
func (in *Interner) memoized(k memoKey, compute func() []*Pisotype) []*Pisotype {
	if in == nil || k.in.owner != in || (k.aux != nil && k.aux.owner != in) {
		return compute()
	}
	in.mu.Lock()
	out, ok := in.memo[k]
	in.mu.Unlock()
	if ok {
		return out
	}
	out = compute()
	in.mu.Lock()
	in.memo[k] = out
	in.mu.Unlock()
	return out
}

// arenaCopy copies a sealed edge slice into the current arena block,
// starting a new block when it does not fit. Oversized slices get their
// own allocation. The copy shares no memory with edges, which may belong
// to a scratch type. Caller holds in.mu.
func (in *Interner) arenaCopy(edges []uint64) []uint64 {
	n := len(edges)
	if n == 0 || n > internBlockWords/2 {
		return slices.Clone(edges)
	}
	if cap(in.block)-len(in.block) < n {
		in.block = make([]uint64, 0, internBlockWords)
	}
	start := len(in.block)
	in.block = append(in.block, edges...)
	// Full slice expression: appends by a later arenaCopy must never
	// grow into this segment.
	return in.block[start : start+n : start+n]
}

// Stats reports the cumulative hit/miss counters: hits are Intern calls
// answered by an existing representative, misses are first-of-class
// insertions (the table's population). A memo hit makes no Intern call,
// so the counters cover only the types the memo had to compute.
func (in *Interner) Stats() (hits, misses int64) {
	if in == nil {
		return 0, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits, in.misses
}

// Bytes estimates the retained size of the intern table: the sum of the
// interned types' SizeBytes estimates. It is the MemExtra component of
// the search's memory-budget accounting — per-state estimates exclude
// interned (shared) types, so the shared pool is counted here exactly
// once.
func (in *Interner) Bytes() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.bytes
}

// Len returns the number of distinct interned types.
func (in *Interner) Len() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, bucket := range in.byHash {
		n += len(bucket)
	}
	return n
}
