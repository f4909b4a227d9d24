package store_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/store"
)

// sampleResult builds a representative terminal result with a lasso
// witness, so aliasing bugs in any nested structure show up.
func sampleResult() *core.Result {
	return &core.Result{
		Verdict: core.VerdictViolated,
		Violation: &core.Violation{
			Kind: "cycle",
			Prefix: []core.Step{
				{State: "tau0"},
				{State: "tau1"},
			},
			Cycle: []core.Step{
				{State: "tau2"},
			},
		},
		Stats: core.Stats{
			BuchiStates:  3,
			Reachability: core.PhaseStats{States: 42, Elapsed: 5 * time.Millisecond},
			Elapsed:      6 * time.Millisecond,
		},
	}
}

func TestMemoryLRU(t *testing.T) {
	m := store.NewMemory(2)
	res := func(i int) *core.Result { return &core.Result{Verdict: core.Verdict(i % 3)} }
	key := func(i int) string { return fmt.Sprintf("k%d", i) }

	m.Put(key(1), res(1))
	m.Put(key(2), res(2))
	if _, tier, ok := m.Get(key(1)); !ok || tier != store.TierMemory {
		t.Fatalf("k1 = (%v, %v) before eviction", tier, ok)
	}
	// k1 was just refreshed, so inserting k3 evicts k2.
	m.Put(key(3), res(3))
	if _, _, ok := m.Get(key(2)); ok {
		t.Error("k2 survived past the bound")
	}
	if _, _, ok := m.Get(key(1)); !ok {
		t.Error("recently used k1 was evicted")
	}
	if m.Len() != 2 {
		t.Errorf("len = %d, want 2", m.Len())
	}

	// Re-putting an existing key replaces in place without eviction.
	m.Put(key(1), res(2))
	if got, _, _ := m.Get(key(1)); got.Verdict != res(2).Verdict {
		t.Error("re-put did not replace the entry")
	}
	if m.Len() != 2 {
		t.Errorf("len after re-put = %d, want 2", m.Len())
	}

	st := m.Stats()
	if st.Memory == nil || st.Memory.Evictions != 1 || st.Memory.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction over 2 entries", st.Memory)
	}
	if st.Disk != nil {
		t.Error("memory store reported a disk tier")
	}

	// A disabled store holds nothing.
	off := store.NewMemory(0)
	off.Put(key(1), res(1))
	if off.Len() != 0 {
		t.Error("disabled store stored an entry")
	}
	if _, _, ok := off.Get(key(1)); ok {
		t.Error("disabled store returned a hit")
	}
}

// TestMemoryDefensiveCopies: the shared-pointer hazard of the old
// in-service cache is gone — mutating a hit (or the original after Put)
// cannot corrupt what other callers receive.
func TestMemoryDefensiveCopies(t *testing.T) {
	m := store.NewMemory(4)
	orig := sampleResult()
	want := orig.Clone()
	m.Put("k", orig)

	// Mutating the original after Put must not reach the store.
	orig.Verdict = core.VerdictHolds
	orig.Violation.Prefix[0].State = "CORRUPTED"
	orig.Violation.Cycle[0].State = "CORRUPTED"

	first, _, ok := m.Get("k")
	if !ok {
		t.Fatal("miss")
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("stored result absorbed the caller's mutation:\n got %+v\nwant %+v", first, want)
	}

	// Mutating one hit must not corrupt the next.
	first.Violation.Prefix[1].State = "ALSO CORRUPTED"
	first.Violation.Cycle[0].State = "ALSO CORRUPTED"
	second, _, _ := m.Get("k")
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("a second hit saw the first caller's mutation:\n got %+v\nwant %+v", second, want)
	}
}

func TestCloneDeep(t *testing.T) {
	orig := sampleResult()
	cp := orig.Clone()
	if !reflect.DeepEqual(orig, cp) {
		t.Fatalf("clone differs: %+v vs %+v", orig, cp)
	}
	cp.Violation.Prefix[0].State = "mutated"
	cp.Violation.Cycle[0].State = "mutated"
	if orig.Violation.Prefix[0].State == "mutated" || orig.Violation.Cycle[0].State == "mutated" {
		t.Fatal("clone shares memory with the original")
	}
	// Nil-safety and shape preservation.
	if (*core.Result)(nil).Clone() != nil {
		t.Fatal("nil clone is non-nil")
	}
	bare := &core.Result{Verdict: core.VerdictHolds}
	if got := bare.Clone(); !reflect.DeepEqual(bare, got) {
		t.Fatalf("bare clone differs: %+v", got)
	}
}

func TestTieredPromoteOnHit(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tiered := store.NewTiered(store.NewMemory(4), disk)
	defer tiered.Close()

	// Seed the disk tier behind the memory tier's back: a fresh daemon
	// restarting over an existing store-dir sees exactly this state.
	want := sampleResult()
	disk.Put("k", want)

	res, tier, ok := tiered.Get("k")
	if !ok || tier != store.TierDisk {
		t.Fatalf("first get = (%v, %v), want a disk hit", tier, ok)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("disk hit differs from stored result")
	}
	// The hit was promoted: the next one is memory-fast.
	if _, tier, ok := tiered.Get("k"); !ok || tier != store.TierMemory {
		t.Fatalf("second get = (%v, %v), want a memory hit", tier, ok)
	}
	if _, tier, ok := tiered.Get("absent"); ok || tier != store.TierMiss {
		t.Fatalf("miss = (%v, %v)", tier, ok)
	}

	st := tiered.Stats()
	if st.Memory == nil || st.Disk == nil {
		t.Fatalf("tiered stats missing a tier: %+v", st)
	}
	if st.Disk.Hits != 1 || st.Memory.Hits != 1 {
		t.Errorf("hits = mem %d disk %d, want 1 and 1", st.Memory.Hits, st.Disk.Hits)
	}
}

// TestTieredAsyncPutDurableOnClose: Put returns before the disk write,
// but Close drains the writer, so every accepted Put is durable after
// shutdown — the restart-persistence contract.
func TestTieredAsyncPutDurableOnClose(t *testing.T) {
	dir := t.TempDir()
	disk, err := store.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	tiered := store.NewTiered(store.NewMemory(4), disk)
	want := sampleResult()
	tiered.Put("k", want)
	if _, tier, ok := tiered.Get("k"); !ok || tier != store.TierMemory {
		t.Fatalf("memory tier missing just-put entry (tier %v ok %v)", tier, ok)
	}
	if err := tiered.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the directory as a second daemon generation would.
	disk2, err := store.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, tier, ok := disk2.Get("k")
	if !ok || tier != store.TierDisk {
		t.Fatalf("restart get = (%v, %v), want a disk hit", tier, ok)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restart hit differs from the stored result")
	}

	// Put after Close still persists (synchronously).
	tiered.Put("late", want)
	if _, _, ok := disk.Get("late"); !ok {
		t.Fatal("post-close put was dropped")
	}
}
