package core

import (
	"runtime/metrics"
	"sync"
	"time"

	"verifas/internal/vass"
)

// Phase names one stage of a verification. Phases of one run are emitted
// sequentially and never nest.
type Phase string

const (
	// PhaseCompile: Büchi translation of the negated property plus
	// compilation of the task's symbolic transition system.
	PhaseCompile Phase = "compile"
	// PhaseStatic: the constraint-graph static analysis (Section 3.7).
	PhaseStatic Phase = "static-analysis"
	// PhaseReach: the reachability search with on-the-fly violation
	// detection (phase 1 of the verifier; for the spin-like baseline,
	// the whole nested DFS).
	PhaseReach Phase = "reachability"
	// PhaseRR: the repeated-reachability search for infinite-run
	// violations (Section 3.8).
	PhaseRR Phase = "repeated-reachability"
	// PhaseRRConfirm is never emitted; removed at the next benchmark
	// change.
	PhaseRRConfirm Phase = "rr-confirmation"
)

// PhaseStats counts one search phase's effort. Non-search phases (compile,
// static analysis) populate only Elapsed.
type PhaseStats struct {
	// States is the number of states created by the phase.
	States int `json:"states"`
	// Pruned counts nodes deactivated by the monotone pruning.
	Pruned int `json:"pruned"`
	// Skipped counts successor states dropped as dominated/duplicate.
	Skipped int `json:"skipped"`
	// Accelerations counts applications of the ω-acceleration operator.
	Accelerations int           `json:"accelerations"`
	Elapsed       time.Duration `json:"elapsed_ns"`
	// MemBytes is the search's estimated retained bytes at phase end
	// (the memory-budget accounting estimate, not a heap measurement;
	// zero for non-search phases).
	MemBytes int64 `json:"mem_bytes,omitempty"`
}

// ProgressEvent is a periodic snapshot of a running search phase, emitted
// every Options.ProgressStride created states (and once more when the
// phase's search ends).
type ProgressEvent struct {
	Phase Phase `json:"phase"`
	// States created so far in this phase (cumulative, monotone).
	States int `json:"states"`
	// Rate is the states/second throughput since the phase started.
	Rate float64 `json:"rate"`
	// Frontier is the number of unprocessed states in the work list.
	Frontier      int `json:"frontier"`
	Pruned        int `json:"pruned"`
	Skipped       int `json:"skipped"`
	Accelerations int `json:"accelerations"`
	// HeapInUse is the live heap-object footprint at snapshot time
	// (bytes), sampled cheaply via runtime/metrics with a short TTL —
	// consecutive snapshots within the TTL share one reading, so a
	// fine-grained ProgressStride never turns into a heap-profiling
	// workload.
	HeapInUse uint64 `json:"heap_in_use"`
	// MemBytes is the search's estimated retained bytes (the
	// deterministic memory-budget accounting, distinct from the measured
	// HeapInUse).
	MemBytes int64 `json:"mem_bytes,omitempty"`
	// Elapsed since the phase started.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// VerdictEvent is the terminal event of one verification.
type VerdictEvent struct {
	Verdict Verdict `json:"verdict"`
	// ViolationKind is Violation.Kind for violated verdicts ("" otherwise).
	ViolationKind string `json:"violation_kind,omitempty"`
	Stats         Stats  `json:"stats"`
}

// Observer receives the typed event stream of one verification: a sequence
// of PhaseStart/PhaseEnd pairs with Progress snapshots inside the search
// phases, terminated by exactly one Verdict event (unless the run is
// cancelled or fails validation, which produce no events after the point
// of failure).
//
// An Observer instance is used by a single verification at a time and its
// methods are called sequentially, so implementations need no internal
// locking for per-run state; sinks shared across concurrent verifications
// (metrics registries, trace files) must synchronize their shared state
// themselves.
//
// A nil Observer in Options disables all instrumentation; the hot search
// loops then pay only a nil check per iteration.
type Observer interface {
	PhaseStart(Phase)
	PhaseEnd(Phase, PhaseStats)
	Progress(ProgressEvent)
	Verdict(VerdictEvent)
}

// DefaultProgressStride is the state-count stride between Progress events
// when Options.ProgressStride is zero.
const DefaultProgressStride = 8192

// MultiObserver fans the event stream out to several observers in order.
// Nil entries are skipped; with zero non-nil observers it returns nil (the
// disabled fast path).
func MultiObserver(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiObserver(live)
}

type multiObserver []Observer

func (m multiObserver) PhaseStart(p Phase) {
	for _, o := range m {
		o.PhaseStart(p)
	}
}

func (m multiObserver) PhaseEnd(p Phase, ps PhaseStats) {
	for _, o := range m {
		o.PhaseEnd(p, ps)
	}
}

func (m multiObserver) Progress(e ProgressEvent) {
	for _, o := range m {
		o.Progress(e)
	}
}

func (m multiObserver) Verdict(e VerdictEvent) {
	for _, o := range m {
		o.Verdict(e)
	}
}

// emitter wraps a possibly-nil Observer so call sites stay unconditional.
type emitter struct {
	obs    Observer
	stride int
}

func newEmitter(opts Options) emitter {
	stride := opts.ProgressStride
	if stride <= 0 {
		stride = DefaultProgressStride
	}
	return emitter{obs: opts.Observer, stride: stride}
}

func (e emitter) enabled() bool { return e.obs != nil }

func (e emitter) phaseStart(p Phase) {
	if e.obs != nil {
		e.obs.PhaseStart(p)
	}
}

func (e emitter) phaseEnd(p Phase, ps PhaseStats) {
	if e.obs != nil {
		e.obs.PhaseEnd(p, ps)
	}
}

func (e emitter) verdict(res *Result) {
	if e.obs == nil {
		return
	}
	ev := VerdictEvent{Verdict: res.Verdict, Stats: res.Stats}
	if res.Violation != nil {
		ev.ViolationKind = res.Violation.Kind
	}
	e.obs.Verdict(ev)
}

// searchProgress builds the vass.Explore progress hook for one search
// phase: it converts the raw counters into a ProgressEvent with
// throughput and heap usage attached. Returns nil when observation is
// disabled, keeping the explorer on its nil fast path.
func (e emitter) searchProgress(phase Phase) func(vass.Progress) {
	if e.obs == nil {
		return nil
	}
	start := time.Now()
	return func(p vass.Progress) {
		e.obs.Progress(NewProgressEvent(phase, start, p))
	}
}

// NewProgressEvent assembles a ProgressEvent from raw search counters,
// deriving the states/sec throughput and current heap usage. Engines other
// than the core verifier (the spin-like baseline) use it to emit uniform
// snapshots.
func NewProgressEvent(phase Phase, phaseStart time.Time, p vass.Progress) ProgressEvent {
	ev := ProgressEvent{
		Phase:         phase,
		States:        p.Created,
		Frontier:      p.Frontier,
		Pruned:        p.Pruned,
		Skipped:       p.Skipped,
		Accelerations: p.Accelerations,
		Elapsed:       time.Since(phaseStart),
	}
	if secs := ev.Elapsed.Seconds(); secs > 0 {
		ev.Rate = float64(p.Created) / secs
	}
	ev.HeapInUse = heapInUse()
	ev.MemBytes = p.MemBytes
	return ev
}

// heapSampler caches the live-heap reading so that progress snapshots —
// which can fire every few milliseconds under a small ProgressStride —
// do not each pay for a fresh sample. runtime/metrics reads are already
// far cheaper than the stop-the-world runtime.ReadMemStats this
// replaced, but the searches emitting snapshots run concurrently in the
// service, so the cache also bounds total sampling frequency per
// process.
var heapSampler struct {
	mu      sync.Mutex
	last    time.Time
	val     uint64
	samples [1]metrics.Sample
	init    bool
}

// heapSampleTTL is the maximum staleness of a HeapInUse reading.
const heapSampleTTL = 20 * time.Millisecond

// heapInUse returns the bytes occupied by live heap objects, at most
// heapSampleTTL stale.
func heapInUse() uint64 {
	s := &heapSampler
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	if s.init && now.Sub(s.last) < heapSampleTTL {
		return s.val
	}
	if !s.init {
		s.samples[0].Name = "/memory/classes/heap/objects:bytes"
		s.init = true
	}
	metrics.Read(s.samples[:])
	if s.samples[0].Value.Kind() == metrics.KindUint64 {
		s.val = s.samples[0].Value.Uint64()
	}
	s.last = now
	return s.val
}
