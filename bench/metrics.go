package main

import (
	"fmt"
	"time"

	"verifas/internal/core"
)

// metricSpec names a reported metric and its unit. BENCHMARK.json lists the
// same metrics with their direction and bound; a test keeps the two equal.
type metricSpec struct{ name, unit string }

// endToEndMetrics are what a user of the verifier sees; every workload
// reports each of them.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"suite_s", "s"},
	{"verdict_p50_ms", "ms"},
	{"verdict_tail_ms", "ms"},
	{"decided_frac", "frac"},
	{"search_mem_mb_max", "MB"},
}

// perLayerMetrics come from the traced run, grouped by layer as in the
// README's layer table.
var perLayerMetrics = []metricSpec{
	{"setindex.cpu_share", "frac"},
	{"setindex.query_us", "us"},
	{"setindex.candidates", "count"},

	{"symbolic.succ_cpu_share", "frac"},
	{"symbolic.succ_us", "us"},
	{"symbolic.succ_allocs", "count"},
	{"symbolic.succ_out", "count"},
	{"vass.allocs_per_state", "count"},
	{"vass.bytes_per_state", "B"},
	{"runtime.gc_cpu_share", "frac"},

	{"symbolic.intern_cpu_share", "frac"},
	{"symbolic.intern_hit_ratio", "frac"},

	{"maxflow.cpu_share", "frac"},
	{"maxflow.precedes_ns", "ns"},
	{"maxflow.precedes_true_ratio", "frac"},
	{"vass.prune_ratio", "frac"},

	{"core.reach_ms", "ms"},
	{"vass.states", "count"},
	{"vass.accelerations", "count"},
	{"vass.states_per_s", "1/s"},

	{"core.rr_ms", "ms"},
	{"vass.rr_states", "count"},
	{"core.rr_cpu_share", "frac"},

	{"ltl.translate_us", "us"},
	{"ltl.buchi_states", "count"},
	{"symbolic.compile_us", "us"},
	{"static.analyze_us", "us"},
	{"core.compile_ms", "ms"},
	{"core.static_ms", "ms"},

	{"store.mem_get_us", "us"},
	{"store.disk_get_us", "us"},
	{"store.put_us", "us"},
	{"store.disk_hit_ratio", "frac"},

	{"service.engine_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.engine_runs", "count"},
	{"service.coalesced", "count"},
	{"service.rejected", "count"},
	{"service.hit_p50_ms", "ms"},
	{"service.hit_p99_ms", "ms"},
	{"service.miss_p50_ms", "ms"},
	{"service.miss_p95_ms", "ms"},
	{"service.req_per_s", "1/s"},

	{"fleet.router_hop_ms", "ms"},

	{"bench.trace_overhead_pct", "%"},
}

// engineMetrics fills the engine-layer metrics of a traced pass.
func engineMetrics(m map[string]float64, ops []op, cpu *cpuProfile, mallocs, allocBytes uint64) {
	for _, l := range cpuLayers {
		m[l.metric] = cpu.share(l.match)
	}
	var states, rrStates, pruned, skipped, accel int
	var search time.Duration
	seen := map[int]bool{}
	for _, o := range ops {
		// Count each engine run once: hits repeat a run's stats.
		if o.err != nil || o.cached || seen[o.item] {
			continue
		}
		seen[o.item] = true
		s := o.stats
		states += s.StatesExplored()
		rrStates += s.RRStates()
		pruned += s.Pruned()
		skipped += s.Skipped()
		accel += s.Accelerations()
		search += s.Reachability.Elapsed + s.RR.Elapsed + s.Confirm.Elapsed
	}
	m["vass.states"] = float64(states)
	m["vass.rr_states"] = float64(rrStates)
	m["vass.accelerations"] = float64(accel)
	m["vass.prune_ratio"] = ratio(float64(pruned+skipped), float64(states+skipped))
	m["vass.states_per_s"] = ratio(float64(states), search.Seconds())
	m["vass.allocs_per_state"] = ratio(float64(mallocs), float64(states))
	m["vass.bytes_per_state"] = ratio(float64(allocBytes), float64(states))
}

// daemonEngineMetrics fills the engine-layer metrics from the replicas'
// profile and counters.
func daemonEngineMetrics(m map[string]float64, st *serviceTrace) {
	phase := func(names ...core.Phase) float64 {
		var ms int64
		for _, n := range names {
			ms += st.after.Verifier.PhaseMillis[string(n)] - st.before.Verifier.PhaseMillis[string(n)]
		}
		return float64(ms)
	}
	engineMetrics(m, st.ops, st.prof,
		st.after.Memstats.Mallocs-st.before.Memstats.Mallocs,
		st.after.Memstats.TotalAlloc-st.before.Memstats.TotalAlloc)
	m["core.compile_ms"] = phase(core.PhaseCompile)
	m["core.static_ms"] = phase(core.PhaseStatic)
	m["core.reach_ms"] = phase(core.PhaseReach)
	m["core.rr_ms"] = phase(core.PhaseRR, core.PhaseRRConfirm)
}

// serviceOnlyMetrics are measured on service traffic. The suites send none
// and report each as 0, meaning not applicable.
var serviceOnlyMetrics = []string{
	"store.disk_hit_ratio",
	"service.engine_ms", "service.overhead_ms", "service.engine_runs", "service.coalesced", "service.rejected",
	"service.hit_p50_ms", "service.hit_p99_ms", "service.miss_p50_ms", "service.miss_p95_ms", "service.req_per_s",
	"fleet.router_hop_ms",
}

// serviceMetrics fills serviceOnlyMetrics from a traced service pass. It
// fails when the replicas ran the engine other than once per distinct key.
func serviceMetrics(m map[string]float64, st *serviceTrace) error {
	var hits, misses, engine, overhead []float64
	distinct := map[int]bool{}
	for _, o := range st.ops {
		distinct[o.item] = true
		switch {
		case o.err != nil:
		case o.cached:
			hits = append(hits, millis(o.latency))
		default:
			misses = append(misses, millis(o.latency))
			engine = append(engine, millis(o.stats.Elapsed))
			overhead = append(overhead, millis(o.latency-o.stats.Elapsed))
		}
	}
	m["service.hit_p50_ms"] = quantile(hits, 0.5)
	m["service.hit_p99_ms"] = quantile(hits, 0.99)
	m["service.miss_p50_ms"] = quantile(misses, 0.5)
	m["service.miss_p95_ms"] = quantile(misses, 0.95)
	m["service.engine_ms"] = median(engine)
	m["service.overhead_ms"] = median(overhead)
	m["service.req_per_s"] = ratio(float64(len(st.ops)), st.elapsed.Seconds())
	var runs, coalesced, rejected, hitsAll, hitsDisk int64
	for _, s := range st.stats {
		runs += s.Service.EngineRuns
		coalesced += s.Service.Coalesced
		rejected += s.Service.RejectedFull + s.Service.RejectedDraining
		hitsAll += s.Service.CacheHits
		hitsDisk += s.Service.CacheHitsDisk
	}
	m["service.engine_runs"] = float64(runs)
	m["service.coalesced"] = float64(coalesced)
	m["service.rejected"] = float64(rejected)
	m["store.disk_hit_ratio"] = ratio(float64(hitsDisk), float64(hitsAll))
	m["fleet.router_hop_ms"] = median(st.routerHit) - median(st.directHit)
	if runs != int64(len(distinct)) {
		return fmt.Errorf("%d engine runs for %d distinct keys", runs, len(distinct))
	}
	return nil
}
