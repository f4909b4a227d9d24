package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"verifas/internal/fol"
	"verifas/internal/ltl"
	"verifas/internal/workflows"
)

// recorded is one event in flattened form, for ordering assertions.
type recorded struct {
	kind     string // "start", "end", "progress", "verdict"
	phase    Phase
	progress ProgressEvent
	stats    PhaseStats
	verdict  VerdictEvent
}

// recorder captures the full event stream of one run.
type recorder struct {
	events []recorded
}

func (r *recorder) PhaseStart(p Phase) {
	r.events = append(r.events, recorded{kind: "start", phase: p})
}

func (r *recorder) PhaseEnd(p Phase, ps PhaseStats) {
	r.events = append(r.events, recorded{kind: "end", phase: p, stats: ps})
}

func (r *recorder) Progress(e ProgressEvent) {
	r.events = append(r.events, recorded{kind: "progress", phase: e.Phase, progress: e})
}

func (r *recorder) Verdict(e VerdictEvent) {
	r.events = append(r.events, recorded{kind: "verdict", verdict: e})
}

// checkWellFormed asserts the stream invariants of the Observer contract:
// phases are properly paired and never nest, progress events fall inside
// their phase with monotone cumulative counters, and exactly one Verdict
// event terminates the stream.
func checkWellFormed(t *testing.T, events []recorded) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	open := Phase("")
	inPhase := false
	lastStates := -1
	for i, e := range events {
		switch e.kind {
		case "start":
			if inPhase {
				t.Fatalf("event %d: phase %q starts inside open phase %q", i, e.phase, open)
			}
			inPhase = true
			open = e.phase
			lastStates = -1
		case "end":
			if !inPhase || e.phase != open {
				t.Fatalf("event %d: phase %q ends but open phase is %q (in=%v)", i, e.phase, open, inPhase)
			}
			inPhase = false
		case "progress":
			if !inPhase || e.phase != open {
				t.Fatalf("event %d: progress for %q outside its phase (open %q)", i, e.phase, open)
			}
			if e.progress.States < lastStates {
				t.Fatalf("event %d: progress states went backwards: %d after %d", i, e.progress.States, lastStates)
			}
			lastStates = e.progress.States
		case "verdict":
			if inPhase {
				t.Fatalf("event %d: verdict inside open phase %q", i, open)
			}
			if i != len(events)-1 {
				t.Fatalf("event %d: verdict is not the final event (of %d)", i, len(events))
			}
		}
	}
	if last := events[len(events)-1]; last.kind != "verdict" {
		t.Fatalf("stream does not end with a verdict event (last: %s %s)", last.kind, last.phase)
	}
}

func phaseSequence(events []recorded) []Phase {
	var out []Phase
	for _, e := range events {
		if e.kind == "start" {
			out = append(out, e.phase)
		}
	}
	return out
}

func TestObserverEventOrderingSafety(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	rec := &recorder{}
	prop := &Property{
		Name:    "ship-guarded",
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	}
	res := mustVerify(t, sys, prop, Options{Budget: Budget{Observer: rec, ProgressStride: 1}})
	checkWellFormed(t, rec.events)

	seq := phaseSequence(rec.events)
	want := []Phase{PhaseCompile, PhaseStatic, PhaseReach}
	if len(seq) < len(want) {
		t.Fatalf("phase sequence %v too short, want prefix %v", seq, want)
	}
	for i, p := range want {
		if seq[i] != p {
			t.Fatalf("phase sequence %v, want prefix %v", seq, want)
		}
	}
	// stride 1 ⇒ the reachability search reports every state, so its
	// final snapshot matches the phase totals.
	var lastReach *ProgressEvent
	for i := range rec.events {
		if e := rec.events[i]; e.kind == "progress" && e.phase == PhaseReach {
			lastReach = &rec.events[i].progress
		}
	}
	if lastReach == nil {
		t.Fatal("no progress events from the reachability phase")
	}
	if lastReach.States != res.Stats.Reachability.States {
		t.Errorf("final reach snapshot states = %d, phase total %d", lastReach.States, res.Stats.Reachability.States)
	}
	v := rec.events[len(rec.events)-1].verdict
	if v.Verdict != res.Verdict {
		t.Errorf("verdict event %v, result %v", v.Verdict, res.Verdict)
	}
	if v.Stats.StatesExplored() != res.Stats.StatesExplored() {
		t.Errorf("verdict stats states = %d, result %d", v.Stats.StatesExplored(), res.Stats.StatesExplored())
	}
}

func TestObserverEventOrderingLiveness(t *testing.T) {
	// A falsified liveness property drives the repeated-reachability
	// phase into the stream.
	sys := workflows.OrderFulfillment(false)
	rec := &recorder{}
	prop := &Property{
		Name:    "eventually-ships",
		Task:    "ProcessOrders",
		Formula: ltl.MustParse(`F open(ShipItem)`),
	}
	res := mustVerify(t, sys, prop, Options{Budget: Budget{Observer: rec, ProgressStride: 1}})
	if res.Holds() {
		t.Fatal("liveness property unexpectedly holds")
	}
	checkWellFormed(t, rec.events)
	if res.Stats.RR.States > 0 {
		found := false
		for _, p := range phaseSequence(rec.events) {
			if p == PhaseRR {
				found = true
			}
		}
		if !found {
			t.Errorf("RR ran (%d states) but no %q phase was announced", res.Stats.RR.States, PhaseRR)
		}
	}
}

func TestObserverDefaultStrideStillReports(t *testing.T) {
	// Searches far smaller than the stride must still emit at least one
	// progress snapshot per search phase (the acceptance contract:
	// every run produces phase, progress and verdict events).
	sys := workflows.OrderFulfillment(false)
	rec := &recorder{}
	prop := &Property{
		Name:    "ship-guarded",
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	}
	mustVerify(t, sys, prop, Options{Budget: Budget{Observer: rec}})
	n := 0
	for _, e := range rec.events {
		if e.kind == "progress" && e.phase == PhaseReach {
			n++
		}
	}
	if n == 0 {
		t.Error("no progress snapshot despite the final-snapshot guarantee")
	}
}

func TestMultiObserver(t *testing.T) {
	if MultiObserver() != nil {
		t.Error("MultiObserver() should be nil")
	}
	if MultiObserver(nil, nil) != nil {
		t.Error("MultiObserver(nil, nil) should be nil")
	}
	a := &recorder{}
	if MultiObserver(nil, a, nil) != Observer(a) {
		t.Error("single live observer should be returned unwrapped")
	}
	b := &recorder{}
	m := MultiObserver(a, b)
	m.PhaseStart(PhaseReach)
	m.Progress(ProgressEvent{Phase: PhaseReach, States: 7})
	m.PhaseEnd(PhaseReach, PhaseStats{States: 7})
	m.Verdict(VerdictEvent{Verdict: VerdictHolds})
	for name, r := range map[string]*recorder{"a": a, "b": b} {
		if len(r.events) != 4 {
			t.Fatalf("%s saw %d events, want 4", name, len(r.events))
		}
		checkWellFormed(t, r.events)
	}
}

func TestVerdictText(t *testing.T) {
	cases := []struct {
		v Verdict
		s string
	}{
		{VerdictUnknown, "unknown"},
		{VerdictHolds, "holds"},
		{VerdictViolated, "violated"},
		{VerdictTimedOut, "timed-out"},
		{VerdictBudget, "budget-exhausted"},
	}
	for _, c := range cases {
		if c.v.String() != c.s {
			t.Errorf("%d.String() = %q, want %q", int(c.v), c.v.String(), c.s)
		}
		b, err := c.v.MarshalText()
		if err != nil || string(b) != c.s {
			t.Errorf("MarshalText(%v) = %q, %v", c.v, b, err)
		}
		var back Verdict
		if err := back.UnmarshalText([]byte(c.s)); err != nil || back != c.v {
			t.Errorf("UnmarshalText(%q) = %v, %v", c.s, back, err)
		}
	}
	var v Verdict
	if err := v.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("UnmarshalText accepted a bogus verdict")
	}
}

func TestSentinelErrors(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	_, err := Verify(context.Background(), sys, &Property{
		Task:    "NoSuchTask",
		Formula: ltl.MustParse(`G call(Anything)`),
	}, Options{})
	if !errors.Is(err, ErrUnknownTask) {
		t.Errorf("unknown task error = %v, want ErrUnknownTask", err)
	}
	_, err = Verify(context.Background(), sys, &Property{
		Task:    "ProcessOrders",
		Formula: ltl.MustParse(`G undefined_atom`),
	}, Options{})
	if !errors.Is(err, ErrInvalidProperty) {
		t.Errorf("undefined atom error = %v, want ErrInvalidProperty", err)
	}
}

func TestEngineNames(t *testing.T) {
	cases := []struct {
		opts Options
		want string
	}{
		{Options{}, "verifas"},
		{Options{IgnoreSets: true}, "verifas-noset"},
		{Options{NoStatePruning: true}, "verifas-nosp"},
		{Options{NoStaticAnalysis: true}, "verifas-nosa"},
		{Options{NoIndexes: true}, "verifas-nodss"},
		{Options{SkipRepeatedReachability: true}, "verifas-norr"},
		{Options{NoStatePruning: true, NoIndexes: true}, "verifas-nosp-nodss"},
		{Options{Budget: Budget{MaxStates: 10, Timeout: time.Second, ProgressStride: 1}}, "verifas"},
	}
	for _, c := range cases {
		if got := EngineName(c.opts); got != c.want {
			t.Errorf("EngineName(%+v) = %q, want %q", c.opts, got, c.want)
		}
	}
}

func TestEngineDispatch(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	prop := &Property{
		Name:    "ship-guarded",
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	}
	eng := Verifas(Options{Budget: Budget{MaxStates: 300_000, Timeout: 30 * time.Second}})
	res, err := eng.Verify(context.Background(), sys, prop)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds() || res.TimedOut() {
		t.Errorf("engine verdict = %v", res.Verdict)
	}
}
