package service

import (
	"encoding/json"
	"sync/atomic"

	"verifas/internal/store"
)

// Metrics aggregates the service-level counters across the server's
// lifetime. It implements expvar.Var (String renders the snapshot as one
// JSON object), so callers publish it next to the verifier's obs.Registry
// on /debug/vars:
//
//	expvar.Publish("verifasd_service", srv.Metrics())
type Metrics struct {
	submitted        atomic.Int64
	completed        atomic.Int64
	failed           atomic.Int64
	canceled         atomic.Int64
	cacheHitsMemory  atomic.Int64
	cacheHitsDisk    atomic.Int64
	cacheMisses      atomic.Int64
	coalesced        atomic.Int64
	rejectedFull     atomic.Int64
	rejectedDraining atomic.Int64

	// engineRuns counts actual engine invocations (the fleet-wide
	// duplicate-execution assertion of the soak test is derived from
	// it).
	engineRuns atomic.Int64

	// queueDepth/queueCap are set by the server on snapshot; kept here so
	// one var carries the whole picture.
	depth func() (int, int)
}

// hit counts a store hit under its tier.
func (m *Metrics) hit(tier store.Tier) {
	switch tier {
	case store.TierDisk:
		m.cacheHitsDisk.Add(1)
	default:
		m.cacheHitsMemory.Add(1)
	}
}

// MetricsSnapshot is the JSON shape of the service counters.
type MetricsSnapshot struct {
	// Submitted counts admitted jobs, including cache hits and coalesced
	// attachments.
	Submitted int64 `json:"submitted"`
	// Completed/Failed/Canceled count terminal engine runs (not jobs:
	// coalesced jobs share one run).
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	// CacheHits counts submissions answered from the result store
	// (either tier; kept as the historical total). CacheHitsMemory and
	// CacheHitsDisk split it by the tier that answered — disk hits are
	// the restart-surviving ones.
	CacheHits       int64 `json:"cache_hits"`
	CacheHitsMemory int64 `json:"cache_hits_memory"`
	CacheHitsDisk   int64 `json:"cache_hits_disk"`
	// CacheMisses counts submissions that started or joined a run.
	CacheMisses int64 `json:"cache_misses"`
	// Coalesced counts submissions attached to an identical in-flight
	// run (singleflight).
	Coalesced int64 `json:"coalesced"`
	// RejectedFull counts 429s (queue overflow); RejectedDraining counts
	// 503s (submission during shutdown).
	RejectedFull     int64 `json:"rejected_queue_full"`
	RejectedDraining int64 `json:"rejected_draining"`
	// EngineRuns counts actual engine invocations: submissions answered
	// by the store (either tier, so also a sibling replica's stored
	// verdict) or by singleflight do not run an engine, so fleet-wide
	// duplicate execution is asserted from this counter.
	EngineRuns int64 `json:"engine_runs"`
	// QueueDepth is the number of queued-but-unclaimed runs right now;
	// QueueCapacity the admission bound.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
}

// Snapshot returns the current totals.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Submitted:        m.submitted.Load(),
		Completed:        m.completed.Load(),
		Failed:           m.failed.Load(),
		Canceled:         m.canceled.Load(),
		CacheHitsMemory:  m.cacheHitsMemory.Load(),
		CacheHitsDisk:    m.cacheHitsDisk.Load(),
		CacheMisses:      m.cacheMisses.Load(),
		Coalesced:        m.coalesced.Load(),
		RejectedFull:     m.rejectedFull.Load(),
		RejectedDraining: m.rejectedDraining.Load(),
		EngineRuns:       m.engineRuns.Load(),
	}
	s.CacheHits = s.CacheHitsMemory + s.CacheHitsDisk
	if m.depth != nil {
		s.QueueDepth, s.QueueCapacity = m.depth()
	}
	return s
}

// String implements expvar.Var.
func (m *Metrics) String() string {
	b, err := json.Marshal(m.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}
