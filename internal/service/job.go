package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"verifas/internal/core"
	"verifas/internal/has"
	"verifas/internal/spec"
	"verifas/internal/store"
)

// ---------------------------------------------------------------------------
// Wire types.

// SubmitRequest is the body of POST /v1/jobs: the specification to verify
// (inline source or a named built-in workflow), which property to check,
// and the engine options. Exactly one of Spec and Workflow must be set.
type SubmitRequest struct {
	// Spec is inline specification source in the internal/spec format
	// (may contain property blocks).
	Spec string `json:"spec,omitempty"`
	// Workflow names a built-in benchmark workflow (internal/workflows)
	// instead of inline source.
	Workflow string `json:"workflow,omitempty"`
	// Property selects a property declared in Spec by name. Required
	// when Spec declares more than one property and PropertySrc is
	// empty.
	Property string `json:"property,omitempty"`
	// PropertySrc is a standalone property block in the spec syntax,
	// verified against the system instead of (or in addition to) the
	// properties declared inline. Required with Workflow.
	PropertySrc string `json:"property_src,omitempty"`
	// Options tune the engine; nil means the server defaults.
	Options *RequestOptions `json:"options,omitempty"`
}

// RequestOptions are the caller-settable engine knobs of one job. The
// zero value of each field means "server default"; unknown fields are
// rejected.
type RequestOptions struct {
	// Engine selects a single engine by name: "verifas" (default),
	// "spinlike" (the bounded baseline), or any other built-in engine
	// name (engines.Names). The paper's ablations are engine names
	// too ("verifas-noset", "verifas-nosp", "verifas-nosa",
	// "verifas-nodss", "verifas-norr"), as is "spinlike-bitstate".
	Engine string `json:"engine,omitempty"`
	// TimeoutMS bounds the verification wall clock in milliseconds
	// (0 = server default). Must be non-negative.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxStates bounds each search phase (0 = server default).
	MaxStates int `json:"max_states,omitempty"`
	// MemBudget bounds the run's estimated retained memory in bytes
	// (0 = server default, which may itself be unlimited). Must be
	// non-negative. A run exceeding it completes with the
	// "budget-exhausted" verdict and partial stats instead of taking the
	// daemon down; like every other knob it participates in the
	// result-cache key.
	MemBudget int64 `json:"mem_budget,omitempty"`
	// ProgressStride is the state-count stride between streamed progress
	// events (0 = core.DefaultProgressStride). It is not part of the
	// result-cache key: a job answered from the store or coalesced onto
	// an identical in-flight run gets that run's events, at that run's
	// stride.
	ProgressStride int `json:"progress_stride,omitempty"`
}

// EngineOptions is the normalized form of RequestOptions with every
// server default applied. Its canonical JSON is the options component of
// the content-addressed result-cache key, so two requests that resolve
// to the same effective configuration share one cache entry regardless
// of which fields they spelled out. Every field but ProgressStride
// marshals unconditionally.
type EngineOptions struct {
	Engine    string `json:"engine"`
	TimeoutMS int64  `json:"timeout_ms"`
	MaxStates int    `json:"max_states"`
	MemBudget int64  `json:"mem_budget"`
	// ProgressStride only sets how often the run sends progress events;
	// it never changes the result, so it stays out of the cache key. A
	// job that joins an identical in-flight run streams events at that
	// run's stride, not its own.
	ProgressStride int `json:"-"`
}

// Timeout returns the wall-clock bound as a duration.
func (o EngineOptions) Timeout() time.Duration {
	return time.Duration(o.TimeoutMS) * time.Millisecond
}

// JobState is the lifecycle state of a job.
type JobState string

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: a worker is executing the verification.
	StateRunning JobState = "running"
	// StateDone: finished with a verdict (holds, violated, timed-out or
	// budget-exhausted — exhausted budgets are still completed jobs).
	StateDone JobState = "done"
	// StateFailed: the engine returned a hard error.
	StateFailed JobState = "failed"
	// StateCanceled: canceled by the client or by server shutdown.
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobStatus is the wire rendering of one job's current state.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Cached: the verdict was served from the result store without
	// running the engine.
	Cached bool `json:"cached,omitempty"`
	// CacheTier names the store tier that answered a cached job:
	// "memory" (resident LRU) or "disk" (the persistent store — the
	// entry survived a daemon restart). Empty for uncached jobs. The
	// same value rides on submit responses as the X-Verifas-Cache
	// header ("miss" for uncached submissions).
	CacheTier string `json:"cache_tier,omitempty"`
	// Coalesced: the job attached to an identical in-flight job's run
	// (singleflight) instead of starting its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Run identifies the execution whose events the job streams; for
	// coalesced jobs this is the leader job's id.
	Run      string `json:"run,omitempty"`
	System   string `json:"system"`
	Property string `json:"property"`
	Engine   string `json:"engine"`
	// Key is the content-addressed cache key of the (spec, property,
	// options) triple.
	Key       string `json:"key"`
	CreatedMS int64  `json:"created_unix_ms"`
}

// JobResult extends the status with the outcome of a terminal job.
type JobResult struct {
	JobStatus
	// Verdict is "holds", "violated", "timed-out" or "budget-exhausted"
	// for done jobs.
	Verdict string `json:"verdict,omitempty"`
	// Violation is the counterexample for violated verdicts.
	Violation *WireViolation `json:"violation,omitempty"`
	Stats     *core.Stats    `json:"stats,omitempty"`
	// Error is the engine failure for failed jobs.
	Error string `json:"error,omitempty"`
}

// WireViolation is the JSON rendering of a counterexample trace.
type WireViolation struct {
	// Kind is "finite", "pumping" or "cycle" (core.Violation.Kind).
	Kind   string     `json:"kind"`
	Prefix []WireStep `json:"prefix,omitempty"`
	Cycle  []WireStep `json:"cycle,omitempty"`
}

// WireStep is one transition of a counterexample trace.
type WireStep struct {
	// Service is the LTL service proposition ("call:Svc", "open:Task",
	// "close:Task").
	Service string `json:"service"`
	// State describes the reached symbolic state.
	State string `json:"state"`
}

func wireViolation(v *core.Violation) *WireViolation {
	if v == nil {
		return nil
	}
	steps := func(in []core.Step) []WireStep {
		out := make([]WireStep, len(in))
		for i, s := range in {
			out[i] = WireStep{Service: s.Service.AtomName(), State: s.State}
		}
		return out
	}
	return &WireViolation{Kind: v.Kind, Prefix: steps(v.Prefix), Cycle: steps(v.Cycle)}
}

// ---------------------------------------------------------------------------
// Request resolution.

// resolved is a submit request compiled into a runnable unit: the system,
// the property (validated against it), the normalized options and the
// cache key.
type resolved struct {
	sys   *has.System
	prop  *core.Property
	eopts EngineOptions
	key   string
}

// KeyDefaults are the server-side option defaults that participate in
// the content-addressed cache key. A fleet router needs them to derive
// the same key a replica will (routing identical submissions to one
// shard), so they are exported; replicas build theirs from Config.
type KeyDefaults struct {
	// Timeout applies when a request sets no timeout_ms (default 60s).
	Timeout time.Duration
	// MaxTimeout caps requested timeouts (0 = uncapped).
	MaxTimeout time.Duration
	// MaxStates applies when a request sets no max_states.
	MaxStates int
	// MemBudget applies when a request sets no mem_budget (bytes).
	MemBudget int64
}

func (d KeyDefaults) withDefaults() KeyDefaults {
	if d.Timeout <= 0 {
		d.Timeout = 60 * time.Second
	}
	if d.MaxStates <= 0 {
		d.MaxStates = core.DefaultMaxStates
	}
	return d
}

// keyDefaults projects the (already defaulted) server config.
func (s *Server) keyDefaults() KeyDefaults {
	return KeyDefaults{
		Timeout:    s.cfg.DefaultTimeout,
		MaxTimeout: s.cfg.MaxTimeout,
		MaxStates:  s.cfg.DefaultMaxStates,
		MemBudget:  s.cfg.DefaultMemBudget,
	}
}

// RequestKey derives the content-addressed cache key a replica running
// with defaults d would assign to req: the router's shard-affinity key.
// The request is parsed and validated exactly like a submission, so an
// error here means every replica would reject the request too.
func RequestKey(req *SubmitRequest, d KeyDefaults) (string, error) {
	r, aerr := resolveRequest(req, d.withDefaults())
	if aerr != nil {
		return "", errors.New(aerr.msg)
	}
	return r.key, nil
}

// resolve parses and validates a submit request. Every failure is an
// *apiError carrying the HTTP status and structured code the handlers
// return verbatim, so bad requests are rejected before touching the
// queue.
func (s *Server) resolve(req *SubmitRequest) (*resolved, *apiError) {
	r, aerr := resolveRequest(req, s.keyDefaults())
	if aerr != nil {
		return nil, aerr
	}
	// Resolve the engine now so unknown labels 400 at submit time (an
	// injected Config.Engine participates in the pre-check).
	if _, err := s.engineFor(r.eopts, nil); err != nil {
		return nil, badRequestf(codeUnknownEngine, "%v", err)
	}
	return r, nil
}

// resolveRequest is the server-independent part of resolve: parse,
// validate, normalize, derive the cache key.
func resolveRequest(req *SubmitRequest, d KeyDefaults) (*resolved, *apiError) {
	eopts, aerr := normalizeOptions(req.Options, d)
	if aerr != nil {
		return nil, aerr
	}

	var sys *has.System
	var sysText string
	var props []*core.Property
	switch {
	case req.Spec != "" && req.Workflow != "":
		return nil, badRequestf(codeBadRequest, "spec and workflow are mutually exclusive")
	case req.Spec != "":
		file, err := spec.Parse(req.Spec)
		if err != nil {
			return nil, badRequestf(codeParseError, "parsing spec: %v", err)
		}
		sys = file.System
		props = file.Properties
	case req.Workflow != "":
		b, ok := builtins()[req.Workflow]
		if !ok {
			return nil, badRequestf(codeUnknownWorkflow, "unknown workflow %q", req.Workflow)
		}
		sys, sysText = b.sys, b.text
	default:
		return nil, badRequestf(codeBadRequest, "one of spec or workflow is required")
	}

	var prop *core.Property
	switch {
	case req.PropertySrc != "":
		if req.Property != "" {
			return nil, badRequestf(codeBadRequest, "property and property_src are mutually exclusive")
		}
		p, err := spec.ParseProperty(req.PropertySrc)
		if err != nil {
			return nil, badRequestf(codeParseError, "parsing property_src: %v", err)
		}
		prop = p
	case req.Property != "":
		for _, p := range props {
			if p.Name == req.Property {
				prop = p
				break
			}
		}
		if prop == nil {
			return nil, badRequestf(codeUnknownProperty, "spec declares no property named %q", req.Property)
		}
	case len(props) == 1:
		prop = props[0]
	case len(props) == 0:
		return nil, badRequestf(codeBadRequest, "no property: the spec declares none and property_src is empty")
	default:
		return nil, badRequestf(codeBadRequest, "spec declares %d properties; select one with property", len(props))
	}

	// Semantic validation, up front: a job that would fail in Verify's
	// pre-flight must never occupy a queue slot. The typed sentinels map
	// to structured 4xx codes.
	if _, err := core.ValidateProperty(sys, prop); err != nil {
		switch {
		case errors.Is(err, core.ErrUnknownTask):
			return nil, &apiError{status: 422, code: codeUnknownTask, msg: err.Error()}
		case errors.Is(err, core.ErrInvalidProperty):
			return nil, &apiError{status: 422, code: codeInvalidProperty, msg: err.Error()}
		default:
			return nil, &apiError{status: 422, code: codeInvalidProperty, msg: err.Error()}
		}
	}

	if sysText == "" { // inline spec: not a built-in
		sysText = canonicalSystem(sys)
	}
	return &resolved{
		sys:   sys,
		prop:  prop,
		eopts: eopts,
		key:   cacheKey(sysText, prop, eopts),
	}, nil
}

// normalizeOptions applies the defaults and range-checks the request
// options.
func normalizeOptions(o *RequestOptions, d KeyDefaults) (EngineOptions, *apiError) {
	if o == nil {
		o = &RequestOptions{}
	}
	if o.TimeoutMS < 0 || o.MaxStates < 0 || o.MemBudget < 0 || o.ProgressStride < 0 {
		return EngineOptions{}, badRequestf(codeBadOptions,
			"options must be non-negative (timeout_ms=%d max_states=%d mem_budget=%d progress_stride=%d)",
			o.TimeoutMS, o.MaxStates, o.MemBudget, o.ProgressStride)
	}
	e := EngineOptions{
		Engine:         o.Engine,
		TimeoutMS:      o.TimeoutMS,
		MaxStates:      o.MaxStates,
		MemBudget:      o.MemBudget,
		ProgressStride: o.ProgressStride,
	}
	if e.Engine == "" {
		e.Engine = EngineVerifas
	}
	if e.TimeoutMS == 0 {
		e.TimeoutMS = d.Timeout.Milliseconds()
	}
	if e.MaxStates == 0 {
		e.MaxStates = d.MaxStates
	}
	if e.MemBudget == 0 {
		e.MemBudget = d.MemBudget
	}
	if e.ProgressStride == 0 {
		e.ProgressStride = core.DefaultProgressStride
	}
	if d.MaxTimeout > 0 && e.Timeout() > d.MaxTimeout {
		return EngineOptions{}, badRequestf(codeBadOptions,
			"timeout_ms=%d exceeds the server cap %s", e.TimeoutMS, d.MaxTimeout)
	}
	return e, nil
}

// ---------------------------------------------------------------------------
// In-memory job and execution records.

// job is one client submission. Several jobs may share one execution
// (singleflight); a job canceled while sharing detaches without stopping
// the others.
type job struct {
	id      string
	created time.Time
	status  JobStatus // immutable descriptive fields (State recomputed)
	exec    *execution
	// cached is set iff the job was answered from the result store; it
	// is this job's private deep copy (store.Get clones), so no other
	// job or store internals alias it. cachedTier records which tier
	// answered.
	cached     *core.Result
	cachedTier store.Tier
	canceled   bool // guarded by Server.mu
	coalesced  bool
}

// execution is one engine run, shared by every job coalesced onto it.
type execution struct {
	key    string
	leader string // job id that started the run; tags the event stream
	res    *resolved
	run    core.Engine
	hub    *hub
	cancel func()
	ctx    context.Context

	// refs counts attached, un-canceled jobs; at zero the run is
	// canceled. Guarded by Server.mu.
	refs int

	// state/result/err are written once by the worker (or the submitter
	// for queued-canceled executions) under Server.mu, then published by
	// closing done.
	state  JobState
	result *core.Result
	err    error
	done   chan struct{}
}

// snapshotStatus renders the job's current state. Caller must hold
// Server.mu.
func (j *job) snapshotStatus() JobStatus {
	st := j.status
	switch {
	case j.cached != nil:
		st.State = StateDone
		st.Cached = true
		st.CacheTier = string(j.cachedTier)
	case j.canceled:
		st.State = StateCanceled
	default:
		st.State = j.exec.state
	}
	st.Coalesced = j.coalesced
	return st
}

// snapshotResult renders the job's result view. Caller must hold
// Server.mu.
func (j *job) snapshotResult() JobResult {
	if j.cached != nil {
		stats := j.cached.Stats
		return JobResult{
			JobStatus: j.snapshotStatus(),
			Verdict:   j.cached.Verdict.String(),
			Violation: wireViolation(j.cached.Violation),
			Stats:     &stats,
		}
	}
	out := JobResult{JobStatus: j.snapshotStatus()}
	e := j.exec
	if !out.State.Terminal() {
		return out
	}
	switch {
	case j.canceled || e.state == StateCanceled:
		out.Error = "canceled"
	case e.state == StateFailed:
		if e.err != nil {
			out.Error = e.err.Error()
		}
	case e.result != nil:
		out.Verdict = e.result.Verdict.String()
		out.Violation = wireViolation(e.result.Violation)
		stats := e.result.Stats
		out.Stats = &stats
	}
	return out
}

// fmtJobID renders a job id: "j-000001" standalone, "<node>-j-000001"
// when the server carries a fleet node id — globally unique across
// replicas so a router can route id-addressed requests.
func fmtJobID(node string, n int) string {
	if node == "" {
		return fmt.Sprintf("j-%06d", n)
	}
	return fmt.Sprintf("%s-j-%06d", node, n)
}

// NodeOfJobID extracts the fleet node id a job id embeds ("" for
// standalone-format ids). The router uses it to send status/result/
// events/cancel requests to the replica that issued the id.
func NodeOfJobID(id string) string {
	if strings.HasPrefix(id, "j-") {
		return ""
	}
	if i := strings.LastIndex(id, "-j-"); i > 0 {
		return id[:i]
	}
	return ""
}
