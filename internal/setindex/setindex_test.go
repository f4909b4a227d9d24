package setindex

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func mkSet(vals ...uint64) []uint64 {
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	var out []uint64
	for i, v := range vals {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func TestBasicQueries(t *testing.T) {
	x := New()
	sets := [][]uint64{
		mkSet(),        // 0
		mkSet(1),       // 1
		mkSet(1, 2),    // 2
		mkSet(2, 3),    // 3
		mkSet(1, 2, 3), // 4
	}
	for i, s := range sets {
		x.Insert(i, s)
	}
	if x.Len() != 5 {
		t.Fatalf("Len = %d", x.Len())
	}

	subs := x.Subsets(mkSet(1, 2))
	wantSubs := map[int]bool{0: true, 1: true, 2: true}
	if len(subs) != 3 {
		t.Fatalf("Subsets(1,2) = %v", subs)
	}
	for _, id := range subs {
		if !wantSubs[id] {
			t.Errorf("unexpected subset id %d", id)
		}
	}

	sups := x.Supersets(mkSet(1, 2))
	wantSups := map[int]bool{2: true, 4: true}
	if len(sups) != 2 {
		t.Fatalf("Supersets(1,2) = %v", sups)
	}
	for _, id := range sups {
		if !wantSups[id] {
			t.Errorf("unexpected superset id %d", id)
		}
	}

	// Empty query: all sets are supersets; only empty sets are subsets.
	if got := x.Supersets(nil); len(got) != 5 {
		t.Errorf("Supersets(∅) = %v", got)
	}
	if got := x.Subsets(nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("Subsets(∅) = %v", got)
	}
}

// Over-approximation property: with truncation, every true subset /
// superset must still be returned.
func TestTruncationOverApproximates(t *testing.T) {
	x := New()
	big := make([]uint64, MaxIndexed+20)
	for i := range big {
		big[i] = uint64(i)
	}
	x.Insert(0, big)
	x.Insert(1, mkSet(1, 2))
	// big ⊆ big: must be found even though only a prefix is indexed.
	found := false
	for _, id := range x.Subsets(big) {
		if id == 0 {
			found = true
		}
	}
	if !found {
		t.Error("truncated set missing from its own subset query")
	}
	// Supersets of a long query include the stored long set.
	found = false
	for _, id := range x.Supersets(big) {
		if id == 0 {
			found = true
		}
	}
	if !found {
		t.Error("long superset query missed the stored long set")
	}
}

func TestSubsetsSeqEarlyExit(t *testing.T) {
	x := New()
	x.Insert(0, mkSet(1))
	x.Insert(1, mkSet(2))
	x.Insert(2, mkSet(1, 2))
	n := 0
	x.SubsetsSeq(mkSet(1, 2), func(id int) bool {
		n++
		return false // stop immediately
	})
	if n != 1 {
		t.Errorf("early exit visited %d candidates", n)
	}
}

func isSubset(a, b []uint64) bool {
	j := 0
	for _, e := range a {
		for j < len(b) && b[j] < e {
			j++
		}
		if j >= len(b) || b[j] != e {
			return false
		}
		j++
	}
	return true
}

// Property: index queries agree with brute force on random collections.
func TestQuickAgainstBrute(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := New()
		var sets [][]uint64
		n := 1 + r.Intn(40)
		for i := 0; i < n; i++ {
			var vals []uint64
			for j := r.Intn(6); j > 0; j-- {
				vals = append(vals, uint64(r.Intn(10)))
			}
			s := mkSet(vals...)
			sets = append(sets, s)
			x.Insert(i, s)
		}
		for q := 0; q < 10; q++ {
			var vals []uint64
			for j := r.Intn(6); j > 0; j-- {
				vals = append(vals, uint64(r.Intn(10)))
			}
			query := mkSet(vals...)
			gotSubs := map[int]bool{}
			for _, id := range x.Subsets(query) {
				gotSubs[id] = true
			}
			gotSups := map[int]bool{}
			for _, id := range x.Supersets(query) {
				gotSups[id] = true
			}
			for i, s := range sets {
				if isSubset(s, query) != gotSubs[i] {
					t.Logf("subset mismatch set=%v query=%v", s, query)
					return false
				}
				if isSubset(query, s) != gotSups[i] {
					t.Logf("superset mismatch set=%v query=%v", s, query)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDuplicateSets(t *testing.T) {
	x := New()
	x.Insert(0, mkSet(5, 6))
	x.Insert(1, mkSet(5, 6))
	sups := x.Supersets(mkSet(5))
	if len(sups) != 2 {
		t.Errorf("both duplicate sets should be returned: %v", sups)
	}
}

// Retired ids leave the subset side only: the subset queries never yield
// them again, the superset queries still do, and Len still counts them.
func TestRetire(t *testing.T) {
	x := New()
	sets := [][]uint64{
		mkSet(),        // 0
		mkSet(1),       // 1
		mkSet(1, 2),    // 2
		mkSet(2),       // 3
		mkSet(1, 2, 3), // 4
		mkSet(),        // 5
	}
	for i, s := range sets {
		x.Insert(i, s)
	}
	x.Retire(0) // an empty-set entry
	x.Retire(2)
	if x.Len() != len(sets) {
		t.Errorf("Len = %d after Retire, want %d", x.Len(), len(sets))
	}
	q := mkSet(1, 2, 3)
	for round := 0; round < 2; round++ { // the second walks the compacted lists
		if got, want := asSet(x.Subsets(q)), asSet([]int{1, 3, 4, 5}); !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: Subsets = %v, want %v", round, got, want)
		}
		var seq []int
		x.SubsetsSeq(q, func(id int) bool {
			seq = append(seq, id)
			return true
		})
		if got, want := asSet(seq), asSet([]int{1, 3, 4, 5}); !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: SubsetsSeq = %v, want %v", round, got, want)
		}
		if got, want := asSet(x.Supersets(mkSet(1))), asSet([]int{1, 2, 4}); !reflect.DeepEqual(got, want) {
			t.Errorf("round %d: Supersets = %v, want %v", round, got, want)
		}
		var sup []int
		x.SupersetsSeq(nil, func(id int) bool {
			sup = append(sup, id)
			return true
		})
		if len(sup) != len(sets) {
			t.Errorf("round %d: SupersetsSeq(∅) = %v, want every id", round, sup)
		}
	}
	x.DropSupersets()
	if got, want := asSet(x.Subsets(q)), asSet([]int{1, 3, 4, 5}); !reflect.DeepEqual(got, want) {
		t.Errorf("after DropSupersets: Subsets = %v, want %v", got, want)
	}
}

// A subset query stopped early mid-list, after it has dropped retired ids
// ahead of the stop, leaves the list intact: repeating the query yields
// the same live ids.
func TestRetireEarlyStop(t *testing.T) {
	x := New()
	for i := 0; i < 8; i++ {
		x.Insert(i, mkSet(7))
	}
	for _, id := range []int{0, 2, 3, 6} {
		x.Retire(id)
	}
	want := []int{1, 4, 5, 7}
	for stopAt := range want {
		var seen []int
		x.SubsetsSeq(mkSet(7), func(id int) bool {
			seen = append(seen, id)
			return len(seen) <= stopAt
		})
		if !reflect.DeepEqual(seen, want[:stopAt+1]) {
			t.Errorf("stop after %d: yielded %v, want %v", stopAt+1, seen, want[:stopAt+1])
		}
		if got := x.Subsets(mkSet(7)); !reflect.DeepEqual(got, want) {
			t.Errorf("after a stop at %d: Subsets = %v, want %v", stopAt+1, got, want)
		}
	}
}

// Property: with a random part of the entries retired, the subset query
// returns exactly the live brute-force subsets, across repeated and
// early-stopped queries, and the superset query is unaffected.
func TestQuickRetireAgainstBrute(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := New()
		var sets [][]uint64
		dead := map[int]bool{}
		randSet := func() []uint64 {
			var vals []uint64
			for j := r.Intn(5); j > 0; j-- {
				vals = append(vals, uint64(r.Intn(8)))
			}
			return mkSet(vals...)
		}
		for step := 0; step < 60; step++ {
			switch op := r.Intn(4); {
			case op == 0 || len(sets) == 0:
				s := randSet()
				x.Insert(len(sets), s)
				sets = append(sets, s)
			case op == 1:
				id := r.Intn(len(sets))
				x.Retire(id)
				dead[id] = true
			default:
				q := randSet()
				x.SubsetsSeq(q, func(int) bool { return r.Intn(3) > 0 })
				got := asSet(x.Subsets(q))
				for i, s := range sets {
					if want := isSubset(s, q) && !dead[i]; got[i] != want {
						t.Logf("subset mismatch id=%d set=%v query=%v retired=%v", i, s, q, dead[i])
						return false
					}
				}
				sups := asSet(x.Supersets(q))
				for i, s := range sets {
					if isSubset(q, s) != sups[i] {
						t.Logf("superset mismatch id=%d set=%v query=%v", i, s, q)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The subset query's hit counters are stamped with a per-query epoch.
// When the epoch wraps, a stamp left by the query 2^32 queries earlier
// must not resume its count: here it would have reached the set size
// already and hidden the set from the query.
func TestEpochWrap(t *testing.T) {
	x := New()
	x.Insert(0, mkSet(1, 2))
	if got := x.Subsets(mkSet(1, 2)); len(got) != 1 {
		t.Fatalf("Subsets = %v before the wrap", got)
	}
	// Jump 2^32 - 2 queries ahead: the next query wraps the epoch, and
	// the one after it would reuse the stamp left above.
	x.epoch = math.MaxUint32
	x.Subsets(mkSet(3))
	for i := 0; i < 3; i++ {
		if got := x.Subsets(mkSet(1, 2)); len(got) != 1 || got[0] != 0 {
			t.Errorf("query %d after the wrap: Subsets = %v, want [0]", i, got)
		}
	}
}

func asSet(ids []int) map[int]bool {
	out := map[int]bool{}
	for _, id := range ids {
		out[id] = true
	}
	return out
}
