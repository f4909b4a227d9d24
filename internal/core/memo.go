package core

import "verifas/internal/vass"

// succMemo holds the complete successor list of every product state one
// verification has expanded, so that a state structurally equal to an
// expanded one — met again by phase 1's ⪯ search after pruning, by RR's
// ≤ search, or by RR's coverability graph — is not expanded twice. Both
// products of a run share one memo: their successors do not depend on
// the order. A hit returns the stored slice and its *PState pointers;
// states are immutable, so any number of nodes may hold them.
//
// The memo lives exactly as long as the run's interner. A run's searches
// and its graph build run on one goroutine, so the memo takes no lock.
type succMemo struct {
	// head maps a key to its newest entry in entries; the entries of one
	// key are chained through memoEntry.next. The map holds no pointers,
	// so the garbage collector does not scan it.
	head    map[uint64]int32
	entries []memoEntry
	// bytes is the deterministic retained-bytes estimate charged against
	// the memory budget (see memExtra).
	bytes int64
	// calls counts Successors calls, hits those served from the table.
	calls, hits int
}

type memoEntry struct {
	s     *PState
	succs []vass.Succ
	next  int32 // the key's previous entry, -1 = none
}

// Estimate constants of the memo's retained bytes: one table entry (map
// slot and memoEntry), and one listed successor beyond its state's own
// StateBytes (the Succ slot plus the boxed Label).
const (
	memoEntryBytes = 64
	memoSuccBytes  = 64
)

func newSuccMemo() *succMemo {
	return &succMemo{head: map[uint64]int32{}}
}

// memoKey combines the PSI's hash with the Büchi node and closed flag.
func memoKey(s *PState) uint64 {
	k := s.PSI.Key()*31 + uint64(uint32(s.Node))<<1
	if s.Closed {
		k |= 1
	}
	return k
}

// lookup returns the stored successor list of a state equal to s.
func (m *succMemo) lookup(key uint64, s *PState) ([]vass.Succ, bool) {
	i, ok := m.head[key]
	for ok && i >= 0 {
		e := &m.entries[i]
		if e.s.Node == s.Node && e.s.Closed == s.Closed && e.s.PSI.Equal(s.PSI) {
			return e.succs, true
		}
		i = e.next
	}
	return nil, false
}

// store records the complete successor list of s. stateBytes is the
// per-state estimate, charged for s and for every listed state even
// where a tree node holds the same state, so the estimate bounds what
// the memo alone keeps alive.
func (m *succMemo) store(key uint64, s *PState, succs []vass.Succ, stateBytes func(vass.State) int) {
	prev, ok := m.head[key]
	if !ok {
		prev = -1
	}
	m.head[key] = int32(len(m.entries))
	m.entries = append(m.entries, memoEntry{s: s, succs: succs, next: prev})
	m.bytes += int64(memoEntryBytes + stateBytes(s))
	for _, sc := range succs {
		m.bytes += int64(memoSuccBytes + stateBytes(sc.S))
	}
}
