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
// The table is sharded by type hash: each shard has its own lock, hash
// buckets and edge arena. A verification interns from one goroutine, so
// the locks are uncontended; they keep every method safe for concurrent
// use.
type Interner struct {
	shards [internShards]internShard
}

// internShards is the number of independently locked shard tables. 64
// keeps the per-shard structures tiny.
const internShards = 64

// internShard is one lock's worth of the table: its own buckets, its own
// edge arena, its own counters. A type's shard is derived from the same
// canonical hash that keys the buckets, so all structurally equal types
// land in one shard and the dedup check stays shard-local.
type internShard struct {
	mu     sync.Mutex
	byHash map[uint64][]*Pisotype

	// edge arena: canonical edge slices of interned types are copied
	// into fixed-size blocks so their backing arrays are shared.
	block []uint64

	hits   int64
	misses int64
	bytes  int64
}

// internBlockWords sizes the per-shard edge-arena blocks (8 KiB each).
const internBlockWords = 1024

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	in := &Interner{}
	for i := range in.shards {
		in.shards[i].byHash = make(map[uint64][]*Pisotype)
	}
	return in
}

// shardOf picks the shard for a type hash. The low bits feed the
// bucket map (which rehashes anyway), so shard selection uses the high
// bits to stay independent of bucket distribution.
func (in *Interner) shardOf(h uint64) *internShard {
	return &in.shards[(h>>57)&(internShards-1)]
}

// Intern returns the canonical representative of t: the previously
// interned type with the same canonical edge set, or t itself (sealed and
// arena-backed) when it is the first of its class. A nil t interns to
// nil; a nil interner is the identity.
func (in *Interner) Intern(t *Pisotype) *Pisotype {
	if in == nil || t == nil {
		return t
	}
	// Seal the lazy canon/hash caches before taking the shard lock (and
	// before the type can be shared with other goroutines).
	edges := t.Edges()
	h := t.hash
	sh := in.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, c := range sh.byHash[h] {
		if c.Equal(t) {
			sh.hits++
			return c
		}
	}
	// First of its class: adopt t, re-homing its edge slice into the
	// shard's arena so the many small canon arrays share big blocks.
	t.canon = sh.arenaCopy(edges)
	sh.byHash[h] = append(sh.byHash[h], t)
	sh.misses++
	sh.bytes += int64(t.SizeBytes())
	return t
}

// arenaCopy copies a sealed edge slice into the shard's current arena
// block, starting a new block when it does not fit. Oversized slices keep
// their own allocation. Caller holds sh.mu.
func (sh *internShard) arenaCopy(edges []uint64) []uint64 {
	n := len(edges)
	if n == 0 {
		return edges
	}
	if n > internBlockWords/2 {
		return edges
	}
	if cap(sh.block)-len(sh.block) < n {
		sh.block = make([]uint64, 0, internBlockWords)
	}
	start := len(sh.block)
	sh.block = append(sh.block, edges...)
	// Full slice expression: appends by a later arenaCopy must never
	// grow into this segment.
	return sh.block[start : start+n : start+n]
}

// Stats reports the cumulative hit/miss counters: hits are Intern calls
// answered by an existing representative, misses are first-of-class
// insertions (the table's population).
func (in *Interner) Stats() (hits, misses int64) {
	if in == nil {
		return 0, 0
	}
	for i := range in.shards {
		sh := &in.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		sh.mu.Unlock()
	}
	return hits, misses
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
	var total int64
	for i := range in.shards {
		sh := &in.shards[i]
		sh.mu.Lock()
		total += sh.bytes
		sh.mu.Unlock()
	}
	return total
}

// Len returns the number of distinct interned types.
func (in *Interner) Len() int {
	if in == nil {
		return 0
	}
	n := 0
	for i := range in.shards {
		sh := &in.shards[i]
		sh.mu.Lock()
		for _, bucket := range sh.byHash {
			n += len(bucket)
		}
		sh.mu.Unlock()
	}
	return n
}
