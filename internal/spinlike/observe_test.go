package spinlike

import (
	"context"
	"errors"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/fol"
	"verifas/internal/ltl"
	"verifas/internal/workflows"
)

// recorder captures the run's event stream.
type recorder struct {
	starts, ends []core.Phase
	progress     []core.ProgressEvent
	verdicts     []core.VerdictEvent
}

func (r *recorder) PhaseStart(p core.Phase) { r.starts = append(r.starts, p) }
func (r *recorder) PhaseEnd(p core.Phase, _ core.PhaseStats) {
	r.ends = append(r.ends, p)
}
func (r *recorder) Progress(e core.ProgressEvent) { r.progress = append(r.progress, e) }
func (r *recorder) Verdict(e core.VerdictEvent)   { r.verdicts = append(r.verdicts, e) }

func TestObserverEvents(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	res, err := Verify(context.Background(), sys, &core.Property{
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	}, Options{Budget: core.Budget{MaxStates: 400000, Timeout: 120 * time.Second, Observer: rec, ProgressStride: 1}})
	if err != nil {
		t.Fatal(err)
	}
	wantPhases := []core.Phase{core.PhaseCompile, core.PhaseReach}
	if len(rec.starts) != len(wantPhases) || len(rec.ends) != len(wantPhases) {
		t.Fatalf("phases: starts %v, ends %v, want %v", rec.starts, rec.ends, wantPhases)
	}
	for i, p := range wantPhases {
		if rec.starts[i] != p || rec.ends[i] != p {
			t.Fatalf("phase %d: start %q end %q, want %q", i, rec.starts[i], rec.ends[i], p)
		}
	}
	if len(rec.progress) == 0 {
		t.Fatal("no progress events at stride 1")
	}
	last := -1
	for i, e := range rec.progress {
		if e.Phase != core.PhaseReach {
			t.Fatalf("progress %d from phase %q, want %q", i, e.Phase, core.PhaseReach)
		}
		if e.States < last {
			t.Fatalf("progress %d: states went backwards (%d after %d)", i, e.States, last)
		}
		last = e.States
	}
	if last != res.Stats.Reachability.States {
		t.Errorf("final progress states = %d, result %d", last, res.Stats.Reachability.States)
	}
	if len(rec.verdicts) != 1 {
		t.Fatalf("%d verdict events, want 1", len(rec.verdicts))
	}
	v := rec.verdicts[0]
	if v.Verdict != res.Verdict {
		t.Errorf("verdict event %v, result %v", v.Verdict, res.Verdict)
	}
	if v.Stats.Reachability.States != res.Stats.Reachability.States {
		t.Errorf("verdict stats states = %d, result %d", v.Stats.Reachability.States, res.Stats.Reachability.States)
	}
}

func TestUnknownTaskSentinel(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	_, err := Verify(context.Background(), sys, &core.Property{
		Task:    "NoSuchTask",
		Formula: ltl.MustParse(`G call(Anything)`),
	}, Options{})
	if !errors.Is(err, core.ErrUnknownTask) {
		t.Errorf("unknown task error = %v, want core.ErrUnknownTask", err)
	}
}

func TestEngineAdapter(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	eng := Engine(Options{Budget: core.Budget{MaxStates: 400000, Timeout: 120 * time.Second}})
	res, err := eng.Verify(context.Background(), sys, &core.Property{
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut() {
		t.Skipf("bounded search exceeded budget after %d states", res.Stats.Reachability.States)
	}
	if !res.Holds() {
		t.Error("guard property should hold within the bounded domain")
	}
	if res.Stats.StatesExplored() != res.Stats.Reachability.States {
		t.Error("baseline stats must live entirely in the reachability phase")
	}
	if res.Stats.Elapsed == 0 {
		t.Error("elapsed time not propagated")
	}
}
