package spinlike

import (
	"context"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/fol"
	"verifas/internal/has"
	"verifas/internal/ltl"
	"verifas/internal/workflows"
)

func verifyOpts(t *testing.T, sys *has.System, prop *core.Property, opts Options) *core.Result {
	t.Helper()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	if opts.MaxStates == 0 {
		opts.MaxStates = 400000
	}
	if opts.Timeout == 0 {
		opts.Timeout = 120 * time.Second
	}
	res, err := Verify(context.Background(), sys, prop, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBitstateDifferential runs the bounded checker in exact and bitstate
// mode over the standard properties: verdicts and state counts must
// agree on these small systems (a hash collision is ~2^-128), and only
// the bitstate configuration runs under the bitstate engine name.
func TestBitstateDifferential(t *testing.T) {
	props := []*core.Property{
		{
			Task:    "ProcessOrders",
			Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
			Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
		},
		{
			Task:    "ProcessOrders",
			Formula: ltl.MustParse(`F open(ShipItem)`),
		},
		{
			Task:    "CheckCredit",
			Conds:   map[string]fol.Formula{"decided": fol.MustParse(`c_status != null`)},
			Formula: ltl.MustParse(`G (close(CheckCredit) -> decided)`),
		},
	}
	if Engine(Options{}).Name() != EngineName {
		t.Error("exact configuration runs under the bitstate engine name")
	}
	for _, buggy := range []bool{false, true} {
		sys := workflows.OrderFulfillment(buggy)
		for _, prop := range props {
			exact := verifyOpts(t, sys, prop, Options{})
			bit := verifyOpts(t, sys, prop, Options{Bitstate: true})
			if exact.TimedOut() || bit.TimedOut() {
				t.Skipf("bounded search exceeded budget (%d/%d states)", exact.Stats.Reachability.States, bit.Stats.Reachability.States)
			}
			if exact.Holds() != bit.Holds() {
				t.Errorf("buggy=%v %s: bitstate verdict %v, exact %v",
					buggy, prop.Formula, bit.Verdict, exact.Verdict)
			}
			if exact.Stats.Reachability.States != bit.Stats.Reachability.States {
				t.Errorf("buggy=%v %s: bitstate states %d, exact %d",
					buggy, prop.Formula, bit.Stats.Reachability.States, exact.Stats.Reachability.States)
			}
		}
	}
}

// TestBitstateCoverageReporting: the lossy bitstate configuration runs
// under its own engine name, so its coverage gap is visible, and still
// reports its memory accounting.
func TestBitstateCoverageReporting(t *testing.T) {
	opts := Options{Bitstate: true}
	if Engine(opts).Name() != BitstateEngineName {
		t.Fatalf("bitstate engine named %q", Engine(opts).Name())
	}
	res := verifyOpts(t, workflows.OrderFulfillment(false), &core.Property{
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	}, opts)
	if res.Stats.Reachability.MemBytes <= 0 {
		t.Error("bitstate run reports no MemBytes")
	}
}

// TestBitstateUsesLessMemory: the whole point of the lossy mode — the
// per-state accounting must be smaller than exact mode's, which retains
// full state keys.
func TestBitstateUsesLessMemory(t *testing.T) {
	prop := &core.Property{
		Task:    "ProcessOrders",
		Formula: ltl.MustParse(`F open(ShipItem)`),
	}
	sys := workflows.OrderFulfillment(false)
	exact := verifyOpts(t, sys, prop, Options{})
	bit := verifyOpts(t, sys, prop, Options{Bitstate: true})
	if exact.TimedOut() || bit.TimedOut() {
		t.Skip("bounded search exceeded budget")
	}
	if bit.Stats.Reachability.MemBytes >= exact.Stats.Reachability.MemBytes {
		t.Errorf("bitstate MemBytes %d not below exact %d", bit.Stats.Reachability.MemBytes, exact.Stats.Reachability.MemBytes)
	}
}

func TestSpinlikeMemBudget(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	prop := &core.Property{
		Task:    "ProcessOrders",
		Formula: ltl.MustParse(`F open(ShipItem)`),
	}
	res := verifyOpts(t, sys, prop, Options{Budget: core.Budget{MaxMemBytes: 4 << 10}})
	if !res.BudgetExhausted() {
		t.Fatalf("verdict = %v, want budget-exhausted under a 4 KiB budget", res.Verdict)
	}
	if res.TimedOut() {
		t.Error("budget verdict must not read as timed-out")
	}
	if res.Stats.Reachability.States == 0 {
		t.Error("no partial stats on the budget path")
	}
	if res.Stats.Reachability.MemBytes <= 0 {
		t.Error("no MemBytes in partial stats")
	}

	// The same run with a generous budget completes with the real verdict.
	full := verifyOpts(t, sys, prop, Options{Budget: core.Budget{MaxMemBytes: 1 << 30}})
	if full.BudgetExhausted() {
		t.Error("generous budget tripped")
	}
	if full.Holds() {
		t.Error("shipping is not inevitable")
	}
}

func TestSpinlikeMemBudgetCoreStats(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	prop := &core.Property{
		Task:    "ProcessOrders",
		Formula: ltl.MustParse(`F open(ShipItem)`),
	}
	res := verifyOpts(t, sys, prop, Options{Budget: core.Budget{MaxMemBytes: 4 << 10}})
	if !res.Stats.BudgetExhausted {
		t.Error("stats missing BudgetExhausted")
	}
	if res.Stats.Reachability.MemBytes <= 0 {
		t.Error("stats missing MemBytes")
	}
}
