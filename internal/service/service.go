// Package service turns the VERIFAS engines into a long-lived
// verification server: jobs (spec + LTL-FO property + options) are
// submitted over HTTP/JSON, executed on a bounded worker pool through the
// shared core.Engine dispatch — one engine by name (the paper's
// ablations are names too, such as "verifas-nosp") — observed live
// through a streaming events endpoint carrying the core.Observer event
// model, and answered from a content-addressed result cache when an
// identical job was verified before. Identical in-flight jobs coalesce
// onto one engine run (singleflight, the only in-flight coalescing
// layer; in a fleet the router sends each key to one replica); a bounded
// queue applies admission control (429 + Retry-After on overflow);
// Shutdown drains by canceling every run's context and rejecting new
// submissions with 503.
//
// The HTTP surface (all JSON):
//
//	POST   /v1/jobs             submit; 202 queued, 200 on a cache hit
//	GET    /v1/jobs/{id}        current status
//	GET    /v1/jobs/{id}/result verdict + stats (+ ?wait=1 to block)
//	GET    /v1/jobs/{id}/events stream: JSONL, or SSE with Accept: text/event-stream
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/stats            service metrics + verifier registry snapshot
//	GET    /healthz             liveness + build version
//
// Package client wraps the surface for Go callers (verifas -server uses
// it); cmd/verifasd is the daemon binary.
package service

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"verifas/internal/core"
	"verifas/internal/engines"
	"verifas/internal/obs"
	"verifas/internal/store"
)

// EngineVerifas is the engine of jobs that name none. Any built-in
// engine name (engines.Names: "verifas" and its ablation
// variants, "spinlike", "spinlike-bitstate") is accepted.
const EngineVerifas = "verifas"

// EngineFunc resolves a normalized option set and a per-run observer into
// a runnable engine. The default (nil) dispatch covers every built-in
// engine name; tests inject synthetic engines through it.
type EngineFunc func(opts EngineOptions, observer core.Observer) (core.Engine, error)

// Config sizes the server. The zero value serves with sensible defaults.
type Config struct {
	// Workers is the verification worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of admitted-but-unclaimed runs beyond
	// the workers; overflow is rejected with 429 (default 64).
	QueueDepth int
	// CacheEntries bounds the in-memory LRU result store built when
	// Store is nil (default 256; negative disables caching).
	CacheEntries int
	// Store overrides the result store: a tiered memory-over-disk store
	// makes verdicts survive restarts (cmd/verifasd builds one from
	// -store-dir). The server takes ownership and closes it once its
	// drain completes. Nil builds a memory-only store from CacheEntries.
	Store store.Store
	// MaxJobs bounds the retained job records; the oldest terminal
	// records are evicted beyond it (default 4096).
	MaxJobs int
	// DefaultTimeout applies when a request sets no timeout_ms
	// (default 60s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the requested timeout (0 = uncapped).
	MaxTimeout time.Duration
	// DefaultMaxStates applies when a request sets no max_states
	// (default core.DefaultMaxStates).
	DefaultMaxStates int
	// DefaultMemBudget applies when a request sets no mem_budget: the
	// per-run memory budget in bytes (default 0 = unlimited). Runs that
	// exceed it end with a budget-exhausted verdict and partial stats.
	DefaultMemBudget int64
	// Registry receives every run's events for aggregate metrics; nil
	// creates a private one.
	Registry *obs.Registry
	// Engine overrides the engine dispatch (nil = BuiltinEngine).
	Engine EngineFunc
	// Version is reported by /healthz (default "unknown").
	Version string
	// NodeID names this replica in a fleet. When set, job ids are
	// prefixed "<node>-j-000001" so a router can route id-addressed
	// requests back to the replica that issued them, and /healthz,
	// /readyz and /v1/stats report the node. Empty keeps the standalone
	// "j-000001" format.
	NodeID string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout > 0 && c.DefaultTimeout > c.MaxTimeout {
		c.DefaultTimeout = c.MaxTimeout
	}
	if c.DefaultMaxStates <= 0 {
		c.DefaultMaxStates = core.DefaultMaxStates
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Version == "" {
		c.Version = "unknown"
	}
	return c
}

// Server is the verification service: an http.Handler plus the worker
// pool behind it. Create with NewServer, serve via Handler, stop with
// Shutdown.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	met   *Metrics
	store store.Store
	start time.Time

	// baseCtx parents every run context; baseCancel is the drain switch.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue chan *execution
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	nextID   int
	jobs     map[string]*job
	order    []string              // job ids in admission order, for eviction
	inflight map[string]*execution // singleflight: cache key -> live run
}

// NewServer builds the service and starts its worker pool.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	st := cfg.Store
	if st == nil {
		st = store.NewMemory(cfg.CacheEntries)
	}
	s := &Server{
		cfg:      cfg,
		met:      &Metrics{},
		store:    st,
		start:    time.Now(),
		queue:    make(chan *execution, cfg.QueueDepth),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*execution),
	}
	s.met.depth = func() (int, int) { return len(s.queue), cap(s.queue) }
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the service counters (an expvar.Var).
func (s *Server) Metrics() *Metrics { return s.met }

// Registry returns the verifier-event registry runs feed into (an
// expvar.Var).
func (s *Server) Registry() *obs.Registry { return s.cfg.Registry }

// engineFor dispatches the configured or built-in engines. A nil
// observer is allowed (resolve uses it to pre-check the label).
func (s *Server) engineFor(o EngineOptions, observer core.Observer) (core.Engine, error) {
	if s.cfg.Engine != nil {
		return s.cfg.Engine(o, observer)
	}
	return BuiltinEngine(o, observer)
}

// budget converts the normalized options into the uniform engine budget
// with the given observer attached.
func (o EngineOptions) budget(observer core.Observer) core.Budget {
	return core.Budget{
		MaxStates:      o.MaxStates,
		MaxMemBytes:    o.MemBudget,
		Timeout:        o.Timeout(),
		Observer:       observer,
		ProgressStride: o.ProgressStride,
	}
}

// BuiltinEngine is the default engine dispatch: engines.Build over the
// job's engine name. Injected Config.Engine overrides can delegate to it
// to wrap the real engines.
func BuiltinEngine(o EngineOptions, observer core.Observer) (core.Engine, error) {
	eng, err := engines.Build(o.Engine, o.budget(observer))
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	return eng, nil
}

// ---------------------------------------------------------------------------
// Submission: cache, singleflight, admission.

// submit admits one resolved request, returning the job's status and the
// HTTP status code the handler should use.
func (s *Server) submit(r *resolved) (JobStatus, int, *apiError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.met.rejectedDraining.Add(1)
		return JobStatus{}, 0, &apiError{
			status: http.StatusServiceUnavailable,
			code:   codeDraining,
			msg:    "server is shutting down",
		}
	}

	s.nextID++
	j := &job{
		id:      fmtJobID(s.cfg.NodeID, s.nextID),
		created: time.Now(),
	}
	j.status = JobStatus{
		ID:        j.id,
		System:    r.sys.Name,
		Property:  r.prop.Name,
		Engine:    r.eopts.Engine,
		Key:       r.key,
		CreatedMS: j.created.UnixMilli(),
	}

	// 1. Result store: answer without touching the queue. The store
	// hands out a deep copy, so this job's result cannot be corrupted by
	// (or corrupt) any other hit on the same key.
	if res, tier, ok := s.store.Get(r.key); ok {
		s.met.submitted.Add(1)
		s.met.hit(tier)
		j.cached = res
		j.cachedTier = tier
		j.status.Run = j.id
		s.admitLocked(j)
		return j.snapshotStatus(), http.StatusOK, nil
	}

	// 2. Singleflight: attach to an identical in-flight run.
	if e, ok := s.inflight[r.key]; ok && !e.state.Terminal() {
		s.met.submitted.Add(1)
		s.met.cacheMisses.Add(1)
		s.met.coalesced.Add(1)
		j.exec = e
		j.coalesced = true
		j.status.Run = e.leader
		e.refs++
		s.admitLocked(j)
		return j.snapshotStatus(), http.StatusAccepted, nil
	}

	// 3. New run: admission-controlled enqueue.
	ctx, cancel := context.WithCancel(s.baseCtx)
	e := &execution{
		key:    r.key,
		leader: j.id,
		res:    r,
		hub:    newHub(j.id),
		cancel: cancel,
		ctx:    ctx,
		refs:   1,
		state:  StateQueued,
		done:   make(chan struct{}),
	}
	observer := core.MultiObserver(e.hub, s.cfg.Registry.Run())
	run, err := s.engineFor(r.eopts, observer)
	if err != nil {
		// resolve pre-checked the label; only an injected Engine can
		// fail here.
		cancel()
		return JobStatus{}, 0, badRequestf(codeUnknownEngine, "%v", err)
	}
	e.run = run
	select {
	case s.queue <- e:
	default:
		cancel()
		s.met.rejectedFull.Add(1)
		return JobStatus{}, 0, &apiError{
			status:     http.StatusTooManyRequests,
			code:       codeQueueFull,
			msg:        fmt.Sprintf("queue full (%d queued runs)", cap(s.queue)),
			retryAfter: 1 * time.Second,
		}
	}
	s.met.submitted.Add(1)
	s.met.cacheMisses.Add(1)
	j.exec = e
	j.status.Run = j.id
	s.inflight[r.key] = e
	s.admitLocked(j)
	return j.snapshotStatus(), http.StatusAccepted, nil
}

// admitLocked records the job and evicts the oldest terminal records
// beyond the retention bound. Caller holds s.mu.
func (s *Server) admitLocked(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for len(s.jobs) > s.cfg.MaxJobs && len(s.order) > 0 {
		// Evict the oldest terminal record; stop at the first live one
		// (live jobs are never evicted).
		id := s.order[0]
		old, ok := s.jobs[id]
		if ok && !old.snapshotStatus().State.Terminal() {
			break
		}
		s.order = s.order[1:]
		delete(s.jobs, id)
	}
}

// lookup returns a job by id.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// cancelJob detaches one job from its run; the run itself is canceled
// when its last interested job detaches.
func (s *Server) cancelJob(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.cached != nil || j.canceled || j.exec.state.Terminal() {
		return j.snapshotStatus()
	}
	j.canceled = true
	s.met.canceled.Add(1)
	j.exec.refs--
	if j.exec.refs <= 0 {
		j.exec.cancel()
	}
	return j.snapshotStatus()
}

// ---------------------------------------------------------------------------
// Worker pool.

func (s *Server) worker() {
	defer s.wg.Done()
	for e := range s.queue {
		s.runExecution(e)
	}
}

// runExecution drives one engine run to a terminal state. The outcome
// is counted before finishExecution publishes it, so a client that has
// seen the verdict also sees it in the metrics.
func (s *Server) runExecution(e *execution) {
	// Fast path for runs canceled while queued (client cancel or drain):
	// skip the engine entirely.
	if e.ctx.Err() != nil {
		s.finishExecution(e, StateCanceled, nil, nil)
		e.hub.terminalCanceled()
		return
	}
	s.mu.Lock()
	e.state = StateRunning
	s.mu.Unlock()

	s.met.engineRuns.Add(1)
	res, err := e.run.Verify(e.ctx, e.res.sys, e.res.prop)
	switch {
	case e.ctx.Err() != nil:
		// Canceled by DELETE or a drain: whatever the engine returned
		// after the cut is never stored.
		s.finishExecution(e, StateCanceled, nil, err)
		e.hub.terminalCanceled()
	case err == nil && res != nil:
		// Put is cheap on the job's completion path: the memory tier
		// inserts synchronously (so a follow-up submission of the same
		// key hits), while a tiered store hands the disk write to its
		// background writer.
		s.store.Put(e.key, res)
		s.met.completed.Add(1)
		s.finishExecution(e, StateDone, res, nil)
		// The verdict event already reached the hub through the
		// observer; it is the stream's terminal record.
		e.hub.close()
	default:
		s.met.failed.Add(1)
		s.finishExecution(e, StateFailed, nil, err)
		e.hub.terminalError(err.Error())
	}
}

// finishExecution publishes the run's terminal state.
func (s *Server) finishExecution(e *execution, st JobState, res *core.Result, err error) {
	s.mu.Lock()
	e.state = st
	e.result = res
	e.err = err
	if s.inflight[e.key] == e {
		delete(s.inflight, e.key)
	}
	s.mu.Unlock()
	e.cancel() // release the context's resources
	close(e.done)
}

// ---------------------------------------------------------------------------
// Shutdown.

// Shutdown drains the server: new submissions are rejected with 503,
// every queued and running execution is canceled via its context, and
// the worker pool is waited for (bounded by ctx). The HTTP listener is
// owned by the caller and must be shut down separately — typically
// service.Shutdown first (so streaming handlers terminate), then
// http.Server.Shutdown.
//
// Shutdown is idempotent; concurrent calls all wait for the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	if first {
		// Cancel every derived run context, then let the workers drain
		// the closed queue: runs already canceled fall through the
		// fast path in runExecution.
		s.baseCancel()
		close(s.queue)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Every run has finished, so no more Puts are coming: flush and
		// close the result store (a tiered store drains its pending disk
		// writes here, making every verdict durable before exit).
		return s.store.Close()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Store returns the result store serving this server (an accessor for
// stats endpoints and tests; the server retains ownership).
func (s *Server) Store() store.Store { return s.store }
