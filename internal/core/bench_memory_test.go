package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"verifas/internal/benchmark/envinfo"
	"verifas/internal/fol"
	"verifas/internal/has"
	"verifas/internal/ltl"
	"verifas/internal/static"
	"verifas/internal/symbolic"
	"verifas/internal/vass"
	"verifas/internal/workflows"
)

// memBenchProp is a safety property that HOLDS, so the reachability
// search enumerates the full product reach set instead of stopping at an
// early violation — the representative retained-memory workload.
func memBenchProp() *Property {
	return &Property{
		Name:    "ship-guarded",
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	}
}

// compileReach replicates Verify's pre-search setup (compile, static
// analysis, optional interning) and returns the task system, ready to
// explore.
func compileReach(tb testing.TB, sys *has.System, prop *Property, noInterning bool) (*symbolic.TaskSystem, *ltl.Buchi) {
	tb.Helper()
	task, err := ValidateProperty(sys, prop)
	if err != nil {
		tb.Fatal(err)
	}
	buchi := ltl.Translate(ltl.Not(prop.Formula))
	ts, err := symbolic.CompileTask(sys, task, symbolic.PropertyBinding{
		Globals: prop.Globals,
		Conds:   prop.Conds,
	}, symbolic.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	ts.SetFilter(static.Analyze(ts))
	if !noInterning {
		ts.SetInterner(symbolic.NewInterner())
	}
	return ts, buchi
}

// buildReachTree explores the product once and RETAINS the exploration
// tree, which Verify discards — retention is exactly what the memory
// benchmarks need to observe. No OnNode hook is attached, so the full
// reach set is enumerated regardless of violations.
func buildReachTree(tb testing.TB, ts *symbolic.TaskSystem, buchi *ltl.Buchi) *vass.Tree {
	tb.Helper()
	prod := newProduct(ts, buchi, OrderPrecedes, newSuccMemo())
	prod.ctx = context.Background()
	tree, err := vass.Explore(prod, vass.Options{MaxStates: DefaultMaxStates, UseIndex: true})
	if err != nil {
		tb.Fatal(err)
	}
	return tree
}

// measureRetainedBytes explores the workload `runs` times against ONE
// compiled task system, keeps every tree alive, and reports GC-settled
// live-heap bytes per retained state. Compiling once keeps the per-run
// fixed cost (universe, filter, automaton) out of the per-state figure;
// repetition amplifies the per-state signal well above GC noise. The
// workload is TravelBooking's full reach set under the trivial property —
// the in-repo system with the strongest type sharing (its states carry an
// order of magnitude fewer distinct pisotypes than nodes), which is what
// interning exploits.
func measureRetainedBytes(tb testing.TB, runs int, noInterning bool) (bytesPerState float64, states int) {
	tb.Helper()
	sys := workflows.TravelBooking()
	if err := sys.Validate(); err != nil {
		tb.Fatal(err)
	}
	prop := &Property{Name: "full-reach", Task: sys.Root.Name, Formula: ltl.FalseF{}}
	ts, buchi := compileReach(tb, sys, prop, noInterning)

	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc

	trees := make([]*vass.Tree, runs)
	total := 0
	for i := range trees {
		trees[i] = buildReachTree(tb, ts, buchi)
		total += trees[i].Created
	}

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	retained := int64(ms.HeapAlloc) - int64(before)
	runtime.KeepAlive(trees)
	runtime.KeepAlive(ts)
	if retained < 0 {
		retained = 0
	}
	if total == 0 {
		tb.Fatal("no states explored")
	}
	return float64(retained) / float64(total), total
}

// memoryBenchRecord is the BENCH_memory.json shape.
type memoryBenchRecord struct {
	Benchmark  string      `json:"benchmark"`
	Instance   string      `json:"instance"`
	Env        envinfo.Env `json:"env"`
	States     int         `json:"states"`
	StatesPerS float64     `json:"states_per_sec"`
	// BytesPerState* are GC-settled live-heap bytes per retained search
	// state, holding the full exploration trees.
	BytesPerStateInterned float64 `json:"bytes_per_state_interned"`
	BytesPerStateNoIntern float64 `json:"bytes_per_state_nointern"`
	// ImprovementX = nointern / interned.
	ImprovementX float64 `json:"improvement_x"`
	PeakHeapMB   float64 `json:"peak_heap_mb"`
	// Budget demonstrates graceful degradation: a Verify run under
	// BudgetBytes must end with the budget-exhausted verdict and nonzero
	// partial stats instead of OOMing.
	Budget struct {
		Bytes   int64  `json:"bytes"`
		Verdict string `json:"verdict"`
		States  int    `json:"states"`
	} `json:"budget"`
}

// TestWriteMemoryBenchJSON emits the machine-readable memory record
// BENCH_memory.json when the BENCH_MEMORY_JSON environment variable names
// an output path (make bench-quick sets it): bytes/state with and without
// interning, exploration throughput, peak heap, and the budget-verdict
// demonstration.
func TestWriteMemoryBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_MEMORY_JSON")
	if path == "" {
		t.Skip("BENCH_MEMORY_JSON not set")
	}
	const runs = 64
	rec := memoryBenchRecord{
		Benchmark: "core reach-tree retention, interned vs non-interned state encoding",
		Instance:  fmt.Sprintf("TravelBooking full reach set, %d retained explorations of one compiled system", runs),
		Env:       envinfo.Collect(),
	}
	rec.BytesPerStateInterned, rec.States = measureRetainedBytes(t, runs, false)
	rec.BytesPerStateNoIntern, _ = measureRetainedBytes(t, runs, true)
	if rec.BytesPerStateInterned > 0 {
		rec.ImprovementX = rec.BytesPerStateNoIntern / rec.BytesPerStateInterned
	}

	// Throughput: full-pipeline states/sec on the same property, best of 3.
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		start := time.Now()
		res, err := Verify(context.Background(), sys, memBenchProp(), Options{Budget: Budget{Timeout: 30 * time.Second}})
		if err != nil || !res.Holds() {
			t.Fatalf("verify: %v (%v)", err, res)
		}
		if sps := float64(res.Stats.StatesExplored()) / time.Since(start).Seconds(); sps > rec.StatesPerS {
			rec.StatesPerS = sps
		}
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec.PeakHeapMB = float64(ms.HeapSys) / (1 << 20)

	// Budget degradation: a tiny budget yields the typed verdict plus
	// partial stats.
	rec.Budget.Bytes = 8 << 10
	bres, err := Verify(context.Background(), sys, memBenchProp(), Options{Budget: Budget{MaxMemBytes: rec.Budget.Bytes}})
	if err != nil {
		t.Fatal(err)
	}
	rec.Budget.Verdict = bres.Verdict.String()
	rec.Budget.States = bres.Stats.StatesExplored()
	if !bres.BudgetExhausted() {
		t.Fatalf("budget demo verdict = %v, want budget-exhausted", bres.Verdict)
	}

	bts, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(bts, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: interned=%.0f B/state nointern=%.0f B/state improvement=%.2fx",
		path, rec.BytesPerStateInterned, rec.BytesPerStateNoIntern, rec.ImprovementX)
}

// TestMemoryBytesPerStateGuard fails when the interned bytes/state
// regresses more than 20% against the committed BENCH_memory.json named
// by BENCH_MEMORY_BASELINE (the CI bench-smoke job sets it; unset =
// skipped, so plain `go test ./...` stays host-independent).
func TestMemoryBytesPerStateGuard(t *testing.T) {
	basePath := os.Getenv("BENCH_MEMORY_BASELINE")
	if basePath == "" {
		t.Skip("BENCH_MEMORY_BASELINE not set")
	}
	raw, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	var base memoryBenchRecord
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	if base.BytesPerStateInterned <= 0 {
		t.Fatalf("baseline %s has no bytes_per_state_interned", basePath)
	}
	// Best of 3: allocator and GC noise only ever inflates the figure.
	cur := 0.0
	for i := 0; i < 3; i++ {
		bps, _ := measureRetainedBytes(t, 64, false)
		if cur == 0 || bps < cur {
			cur = bps
		}
	}
	ratio := cur / base.BytesPerStateInterned
	t.Logf("bytes/state: current %.0f, baseline %.0f, ratio %.3f", cur, base.BytesPerStateInterned, ratio)
	if ratio > 1.20 {
		t.Errorf("bytes/state regressed %.0f%% over the committed baseline (%.0f vs %.0f)",
			(ratio-1)*100, cur, base.BytesPerStateInterned)
	}
}
