package symbolic

import "sync"

// Interner is a hash-consing table for pisotypes: structurally equal
// types (identical canonical edge sets) are collapsed onto one shared
// *Pisotype, so the thousands of states that reference the same
// constraint graph hold one allocation instead of one copy each, and
// equality between interned types degenerates to pointer comparison
// (Pisotype.Equal and Implies take that fast path).
//
// Interned types are shared across states and across goroutines and MUST
// NOT be mutated; every mutating path in this repo clones first
// (CompiledCond.Extend, MergeTransported callers), so attaching an
// interner never changes verdicts or traces — only retained bytes.
//
// The canonical edge slices of interned types are re-homed into chunked
// []uint64 arena blocks: many small sorted slices become dense segments
// of a few large allocations, shrinking both per-slice overhead and GC
// scan work.
//
// One mutex guards the table. A verification interns from one goroutine,
// so the lock is uncontended; it keeps every method safe for concurrent
// use.
type Interner struct {
	mu     sync.Mutex
	byHash map[uint64][]*Pisotype

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
	return &Interner{byHash: make(map[uint64][]*Pisotype)}
}

// Intern returns the canonical representative of t: the previously
// interned type with the same canonical edge set, or t itself (sealed and
// arena-backed) when it is the first of its class. A nil t interns to
// nil; a nil interner is the identity.
func (in *Interner) Intern(t *Pisotype) *Pisotype {
	if in == nil || t == nil {
		return t
	}
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
	// First of its class: adopt t, re-homing its edge slice into the
	// arena so the many small canon arrays share big blocks.
	t.canon = in.arenaCopy(edges)
	in.byHash[h] = append(in.byHash[h], t)
	in.misses++
	in.bytes += int64(t.SizeBytes())
	return t
}

// arenaCopy copies a sealed edge slice into the current arena block,
// starting a new block when it does not fit. Oversized slices keep their
// own allocation. Caller holds in.mu.
func (in *Interner) arenaCopy(edges []uint64) []uint64 {
	n := len(edges)
	if n == 0 {
		return edges
	}
	if n > internBlockWords/2 {
		return edges
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
// insertions (the table's population).
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
