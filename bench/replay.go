package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"verifas/internal/core"
	"verifas/internal/ltl"
	"verifas/internal/setindex"
	"verifas/internal/static"
	"verifas/internal/store"
	"verifas/internal/symbolic"
)

const (
	// bfsLimit caps the PSIs a replay BFS expands per spec, and bfsSuccs
	// the successors it may generate, which bounds its work on specs whose
	// PSIs have dozens of successors.
	bfsLimit = 2000
	bfsSuccs = 10000
	// allocProbe is how many expanded PSIs the allocation count re-expands.
	allocProbe = 50
	// pairsPerQuery bounds the index candidates tested with ⪯ per query.
	pairsPerQuery = 8
	// translateRepeats re-translates each formula to steady its timing.
	translateRepeats = 5
)

// replayLayers calls each layer's public entry points on the workload's
// inputs, outside the engine, and measures them per call:
//   - ltl.Translate of each distinct negated formula;
//   - symbolic.CompileTask and static.Analyze of each item;
//   - a BFS per spec over TaskSystem.Successors, bounded by bfsLimit PSIs
//     and bfsSuccs successors,
//     with the edge filter and interner attached as core.Verify attaches
//     them;
//   - setindex.New/Insert/SubsetsSeq over the expanded PSIs' EdgeSets, and
//     PSI.Precedes on seeded (query, candidate) pairs, the pairs the
//     search's dominance check would test;
//   - store Memory and Disk Get/Put of the workload's results.
func replayLayers(items []item, results map[string]*core.Result, seed int64, dir string, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	traceID := tr.id()
	start := time.Now()

	// LTL to Büchi, as core.Verify translates: the negated property.
	var translate []float64
	var buchiStates []float64
	done := map[string]bool{}
	for _, it := range items {
		f := ltl.Not(it.prop.Formula)
		if done[ltl.String(f)] {
			continue
		}
		done[ltl.String(f)] = true
		for r := 0; r < translateRepeats; r++ {
			t0 := time.Now()
			b := ltl.Translate(f)
			d := time.Since(t0)
			tr.record(traceID, traceID, "ltl.Translate", t0, t0.Add(d))
			translate = append(translate, micros(d))
			buchiStates = append(buchiStates, float64(b.NumStates()))
		}
	}
	m["ltl.translate_us"] = median(translate)
	m["ltl.buchi_states"] = mean(buchiStates)

	// Compilation and static analysis of every item; the first item of each
	// spec seeds that spec's successor BFS.
	var compile, analyze []float64
	var firsts []*symbolic.TaskSystem
	seenSpec := map[string]bool{}
	for _, it := range items {
		task, ok := it.spec.Sys.Task(it.prop.Task)
		if !ok {
			return nil, fmt.Errorf("%s: no task %s", it.id, it.prop.Task)
		}
		t0 := time.Now()
		ts, err := symbolic.CompileTask(it.spec.Sys, task, symbolic.PropertyBinding{Globals: it.prop.Globals, Conds: it.prop.Conds}, symbolic.Options{})
		t1 := time.Now()
		tr.record(traceID, traceID, "symbolic.CompileTask", t0, t1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", it.id, err)
		}
		filter := static.Analyze(ts)
		t2 := time.Now()
		tr.record(traceID, traceID, "static.Analyze", t1, t2)
		compile = append(compile, micros(t1.Sub(t0)))
		analyze = append(analyze, micros(t2.Sub(t1)))
		if !seenSpec[it.spec.Name] {
			seenSpec[it.spec.Name] = true
			ts.SetFilter(filter)
			ts.SetInterner(symbolic.NewInterner())
			firsts = append(firsts, ts)
		}
	}
	m["symbolic.compile_us"] = median(compile)
	m["static.analyze_us"] = median(analyze)

	r := rand.New(rand.NewSource(seed))
	var calls, succs, queries, candidates, pairs, precedes int
	var succTime, queryTime, precTime time.Duration
	var hits, misses int64
	var allocs, allocCalls uint64
	for _, ts := range firsts {
		psis, n, out, d := bfs(ts, tr, traceID)
		calls, succs, succTime = calls+n, succs+out, succTime+d
		h, mi := ts.Interner().Stats()
		hits, misses = hits+h, misses+mi
		a, c := successorAllocs(ts, psis)
		allocs, allocCalls = allocs+a, allocCalls+c

		t0 := time.Now()
		idx := setindex.New()
		for i, p := range psis {
			idx.Insert(i, p.EdgeSet())
		}
		t1 := time.Now()
		cands := make([][]int, len(psis))
		for qi, q := range psis {
			idx.SubsetsSeq(q.EdgeSet(), func(id int) bool {
				if id != qi {
					cands[qi] = append(cands[qi], id)
				}
				return true
			})
		}
		t2 := time.Now()
		tr.record(traceID, traceID, "setindex.Insert", t0, t1)
		tr.record(traceID, traceID, "setindex.SubsetsSeq", t1, t2)
		queryTime += t2.Sub(t1)
		queries += len(psis)

		// The dominance check tests q ⪯ c for index candidates c of q.
		var qs, cs []*symbolic.PSI
		for qi, c := range cands {
			candidates += len(c)
			r.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
			for _, ci := range c[:min(len(c), pairsPerQuery)] {
				qs, cs = append(qs, psis[qi]), append(cs, psis[ci])
			}
		}
		t3 := time.Now()
		for i := range qs {
			if qs[i].Precedes(cs[i]) {
				precedes++
			}
		}
		t4 := time.Now()
		tr.record(traceID, traceID, "symbolic.PSI.Precedes", t3, t4)
		precTime += t4.Sub(t3)
		pairs += len(qs)
	}
	m["symbolic.succ_us"] = ratio(micros(succTime), float64(calls))
	m["symbolic.succ_out"] = ratio(float64(succs), float64(calls))
	m["symbolic.succ_allocs"] = ratio(float64(allocs), float64(allocCalls))
	m["symbolic.intern_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["setindex.query_us"] = ratio(micros(queryTime), float64(queries))
	m["setindex.candidates"] = ratio(float64(candidates), float64(queries))
	m["maxflow.precedes_ns"] = ratio(float64(precTime.Nanoseconds()), float64(pairs))
	m["maxflow.precedes_true_ratio"] = ratio(float64(precedes), float64(pairs))

	if err := replayStore(m, items, results, dir, tr, traceID); err != nil {
		return nil, err
	}
	tr.add(traceID, traceID, 0, "replay", start, time.Now())
	return m, nil
}

// bfs expands distinct PSIs breadth-first from the task's initial PSIs,
// until bfsLimit PSIs are expanded or bfsSuccs successors generated,
// timing each Successors call. It returns the expanded PSIs,
// the call count, the successors returned and the time spent in the calls.
func bfs(ts *symbolic.TaskSystem, tr *tracer, traceID uint64) ([]*symbolic.PSI, int, int, time.Duration) {
	seen := map[uint64][]*symbolic.PSI{}
	var queue []*symbolic.PSI
	add := func(p *symbolic.PSI) {
		for _, q := range seen[p.Key()] {
			if q.Equal(p) {
				return
			}
		}
		seen[p.Key()] = append(seen[p.Key()], p)
		queue = append(queue, p)
	}
	for _, p := range ts.Initial() {
		add(p)
	}
	var out int
	var busy time.Duration
	head := 0
	for ; head < len(queue) && head < bfsLimit && out < bfsSuccs; head++ {
		t0 := time.Now()
		next := ts.Successors(queue[head])
		d := time.Since(t0)
		tr.record(traceID, traceID, "symbolic.Successors", t0, t0.Add(d))
		busy += d
		out += len(next)
		for _, s := range next {
			add(s.Next)
		}
	}
	return queue[:head], head, out, busy
}

// successorAllocs re-expands up to allocProbe PSIs and returns the heap
// allocations the Successors calls made and the number of calls.
func successorAllocs(ts *symbolic.TaskSystem, psis []*symbolic.PSI) (uint64, uint64) {
	if len(psis) > allocProbe {
		psis = psis[:allocProbe]
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range psis {
		ts.Successors(p)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, uint64(len(psis))
}

// replayStore writes the workload's results into a memory and a disk store
// and reads each back: the per-entry cost of the tiers a daemon uses.
func replayStore(m map[string]float64, items []item, results map[string]*core.Result, dir string, tr *tracer, traceID uint64) error {
	keys := map[string]*core.Result{}
	for _, it := range items {
		if res := results[it.id]; res != nil {
			sum := sha256.Sum256([]byte(it.id))
			keys[hex.EncodeToString(sum[:])] = res
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("store replay: no results")
	}
	disk, err := store.OpenDisk(dir, 0)
	if err != nil {
		return fmt.Errorf("store replay: %w", err)
	}
	defer disk.Close()
	mem := store.NewMemory(len(keys))
	t0 := time.Now()
	for k, res := range keys {
		disk.Put(k, res)
	}
	t1 := time.Now()
	for k, res := range keys {
		mem.Put(k, res)
	}
	t2 := time.Now()
	for k := range keys {
		if _, _, ok := mem.Get(k); !ok {
			return fmt.Errorf("store replay: memory lost %s", k)
		}
	}
	t3 := time.Now()
	for k := range keys {
		if _, _, ok := disk.Get(k); !ok {
			return fmt.Errorf("store replay: disk lost %s", k)
		}
	}
	t4 := time.Now()
	tr.record(traceID, traceID, "store.Disk.Put", t0, t1)
	tr.record(traceID, traceID, "store.Memory.Get", t2, t3)
	tr.record(traceID, traceID, "store.Disk.Get", t3, t4)
	n := float64(len(keys))
	m["store.put_us"] = micros(t1.Sub(t0)) / n
	m["store.mem_get_us"] = micros(t3.Sub(t2)) / n
	m["store.disk_get_us"] = micros(t4.Sub(t3)) / n
	return nil
}
