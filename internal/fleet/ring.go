// Package fleet is the distribution layer over N verifasd replicas: a
// consistent-hash ring routing each job to the shard that owns its
// content-addressed cache key, a stateless HTTP router proxying the
// service API to the owning shard (failing over to ring successors when
// a replica is unhealthy), and a deterministic load generator + soak
// harness that prove fleet-wide request coalescing under heavy traffic.
//
// The ring keys on the same SHA-256 cache key internal/service derives
// for its result store, so identical specs land on one shard whose
// singleflight coalesces them while they are in flight, and the shared
// persistent store answers them on every replica once one has finished.
// During a failover window a key in flight may run on two replicas: the
// work is duplicated, the verdict is not at risk (store writes are
// content-addressed atomic renames).
package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultVNodes is the virtual-node count per member: high enough that
// key distribution stays within a few percent of uniform for single-digit
// fleets, low enough that ring rebuilds stay sub-millisecond.
const DefaultVNodes = 160

// Ring is a consistent-hash ring over replica addresses with virtual
// nodes. Safe for concurrent use; membership changes are O(members ·
// vnodes · log) rebuilds, lookups are a binary search.
//
// The minimal-disruption invariant: removing a member remaps only the
// keys that member owned (their successors absorb them); every other
// key keeps its owner. Adding it back restores the original mapping.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	hashes  []uint64          // sorted vnode positions
	owner   map[uint64]string // vnode position -> member
	members map[string]bool
}

// NewRing builds an empty ring with the given virtual-node count per
// member (<= 0 uses DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{
		vnodes:  vnodes,
		owner:   make(map[uint64]string),
		members: make(map[string]bool),
	}
}

// hash64 positions a label on the ring: FNV-1a (fast, stable across
// processes and releases — the position of a member must not depend on
// process state, or routers would disagree about ownership) followed by
// a SplitMix64-style avalanche finalizer. Bare FNV-1a clusters badly on
// the short, near-identical labels vnodes produce ("host:port#17"); the
// finalizer spreads them across the full 64-bit ring.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// vnodeLabel derives the ring label of one virtual node.
func vnodeLabel(member string, i int) string {
	return member + "#" + strconv.Itoa(i)
}

// Add inserts a member (idempotent).
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.vnodes; i++ {
		h := hash64(vnodeLabel(member, i))
		if _, taken := r.owner[h]; taken {
			// Vanishingly rare 64-bit collision: first claimant keeps the
			// slot; the member still has its other vnodes.
			continue
		}
		r.owner[h] = member
		r.hashes = append(r.hashes, h)
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
}

// Remove deletes a member (idempotent). Only keys the member owned
// change hands.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	keep := r.hashes[:0]
	for _, h := range r.hashes {
		if r.owner[h] == member {
			delete(r.owner, h)
			continue
		}
		keep = append(keep, h)
	}
	r.hashes = keep
}

// Members returns the current membership in sorted order.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// VNodes returns the per-member virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner returns the member owning key ("" on an empty ring): the first
// vnode clockwise from the key's position.
func (r *Ring) Owner(key string) string {
	seq := r.Sequence(key, 1)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

// Sequence returns up to n distinct members in ring order starting at
// key's owner: the failover order — when the owner is unhealthy the
// router tries its successors, which are exactly the members that absorb
// the owner's keys if it is removed.
func (r *Ring) Sequence(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hash64(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.hashes) && len(out) < n; i++ {
		m := r.owner[r.hashes[(start+i)%len(r.hashes)]]
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}
