package vass

import "testing"

// producerConsumer is a small VASS whose exploration creates a handful of
// nodes — enough to exercise the stride logic.
func producerConsumer() *Vec {
	return &Vec{
		Dim:  1,
		Init: VConfig{Loc: 0, C: []Count{0}},
		Trans: []VTrans{
			{From: 0, To: 0, Delta: []Count{1}},
			{From: 0, To: 1, Delta: []Count{0}},
			{From: 1, To: 1, Delta: []Count{-1}},
		},
	}
}

func TestOnProgressStride(t *testing.T) {
	var snaps []Progress
	tree, err := Explore(producerConsumer(), Options{
		OnProgress: func(p Progress) {
			snaps = append(snaps, p)
		},
		ProgressStride: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots at stride 1")
	}
	last := -1
	for i, p := range snaps {
		if p.Created < last {
			t.Fatalf("snapshot %d: Created went backwards (%d after %d)", i, p.Created, last)
		}
		last = p.Created
	}
	// The final snapshot (emitted on exit) reflects the finished search.
	fin := snaps[len(snaps)-1]
	if fin.Created != tree.Created || fin.Pruned != tree.Pruned ||
		fin.Skipped != tree.Skipped || fin.Accelerations != tree.Accelerations {
		t.Errorf("final snapshot %+v does not match tree counters (created=%d pruned=%d skipped=%d accel=%d)",
			fin, tree.Created, tree.Pruned, tree.Skipped, tree.Accelerations)
	}
	if fin.Frontier != 0 {
		t.Errorf("final snapshot frontier = %d, want 0 after completion", fin.Frontier)
	}
}

func TestOnProgressFinalSnapshotOnly(t *testing.T) {
	// A search far smaller than the stride still emits exactly the final
	// snapshot.
	var snaps []Progress
	tree, err := Explore(producerConsumer(), Options{
		OnProgress: func(p Progress) {
			snaps = append(snaps, p)
		},
		// Default stride (8192) is far above this search's node count.
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want exactly the final one", len(snaps))
	}
	if snaps[0].Created != tree.Created {
		t.Errorf("final snapshot Created = %d, want %d", snaps[0].Created, tree.Created)
	}
}

func TestOnProgressBudgetExit(t *testing.T) {
	// Budget exhaustion must still deliver the final snapshot.
	var snaps []Progress
	_, err := Explore(noAccel{producerConsumer()}, Options{
		MaxStates: 3,
		OnProgress: func(p Progress) {
			snaps = append(snaps, p)
		},
	})
	if err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if len(snaps) == 0 {
		t.Fatal("no final snapshot on the budget exit path")
	}
}
