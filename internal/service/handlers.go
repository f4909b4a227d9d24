package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"verifas/internal/engines"
	"verifas/internal/store"
)

// Structured error codes of the API. Every non-2xx response carries
// {"error": {"code": ..., "message": ...}}.
const (
	codeBadRequest      = "bad-request"
	codeParseError      = "parse-error"
	codeUnknownWorkflow = "unknown-workflow"
	codeUnknownProperty = "unknown-property"
	codeUnknownTask     = "unknown-task"
	codeInvalidProperty = "invalid-property"
	codeUnknownEngine   = "unknown-engine"
	codeBadOptions      = "bad-options"
	codeQueueFull       = "queue-full"
	codeDraining        = "draining"
	codeNotFound        = "not-found"
)

// CacheTierHeader is the response header of POST /v1/jobs naming the
// result-store tier that answered the submission: "memory", "disk", or
// "miss".
const CacheTierHeader = "X-Verifas-Cache"

// ErrorBody is the JSON envelope of every error response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the structured error payload.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// apiError pairs an HTTP status with the structured body.
type apiError struct {
	status     int
	code       string
	msg        string
	retryAfter time.Duration
}

func badRequestf(code, format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: code, msg: fmt.Sprintf(format, args...)}
}

// HealthResponse is the body of GET /healthz: pure liveness — it stays
// 200 for as long as the process serves HTTP, shutdown included. Fleet
// routers must use /readyz for routing decisions.
type HealthResponse struct {
	OK      bool   `json:"ok"`
	Version string `json:"version"`
	// UptimeMS is milliseconds since the server started.
	UptimeMS int64 `json:"uptime_ms"`
	// Draining reports an in-progress shutdown.
	Draining bool `json:"draining,omitempty"`
	// Node is the replica's fleet node id (empty standalone).
	Node string `json:"node,omitempty"`
}

// ReadyResponse is the body of GET /readyz: readiness to accept new
// work. It flips to 503 the moment a graceful drain begins — before the
// listener closes — and while the admission queue is saturated, so a
// fleet router stops routing submissions to this replica immediately
// rather than discovering the condition through rejected jobs.
type ReadyResponse struct {
	Ready bool `json:"ready"`
	// Node is the replica's fleet node id (empty standalone); the
	// router's health checker learns the id-to-address mapping from it.
	Node string `json:"node,omitempty"`
	// Draining reports an in-progress shutdown; Saturated a full
	// admission queue (submissions would 429).
	Draining  bool `json:"draining,omitempty"`
	Saturated bool `json:"saturated,omitempty"`
	// QueueDepth/QueueCapacity snapshot the admission queue.
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Version       string `json:"version"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Service MetricsSnapshot `json:"service"`
	// Verifier is the aggregated engine-event registry (states explored,
	// verdict counts, per-phase wall time).
	Verifier json.RawMessage `json:"verifier"`
	// CacheEntries is the resident (memory-tier) result-store
	// population.
	CacheEntries int `json:"cache_entries"`
	// Store is the per-tier result-store breakdown: hits, misses, puts,
	// evictions, corrupt-quarantine count, entries and bytes for each
	// tier the configured store has ("memory" always; "disk" when the
	// daemon runs with -store-dir).
	Store store.Stats `json:"store"`
	// MemBudget reports the per-job `mem_budget` option's server default.
	MemBudget MemBudgetInfo `json:"mem_budget"`
	// Engines lists the engine names the built-in dispatch accepts for
	// the `engine` job option, in engine-table order.
	Engines []string `json:"engines"`
	// Node is the replica's fleet node id (empty standalone).
	Node string `json:"node,omitempty"`
}

// MemBudgetInfo describes the per-job `mem_budget` option's server
// default. Jobs that exceed their budget end with a budget-exhausted
// verdict and partial stats instead of crashing the server.
type MemBudgetInfo struct {
	// DefaultBytes applies when a job sets no mem_budget (0 = unlimited).
	DefaultBytes int64 `json:"default_bytes"`
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		secs := int(e.retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, e.status, ErrorBody{Error: ErrorDetail{Code: e.code, Message: e.msg}})
}

// decodeSubmit turns a POST /v1/jobs body into a resolved request. The
// decoder is strict: an unknown field, removed options included, is a
// 400 bad-request that names it. Every failure is an *apiError.
func (s *Server) decodeSubmit(body []byte) (*resolved, *apiError) {
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, badRequestf(codeBadRequest, "decoding request: %v", err)
	}
	return s.resolve(&req)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		writeErr(w, badRequestf(codeBadRequest, "reading body: %v", err))
		return
	}
	res, aerr := s.decodeSubmit(body)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	st, httpStatus, aerr := s.submit(res)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	// Surface the store tier that answered: "memory", "disk" (the entry
	// survived a restart), or "miss" (a run was started or joined).
	tier := string(store.TierMiss)
	if st.Cached {
		tier = st.CacheTier
	}
	w.Header().Set(CacheTierHeader, tier)
	writeJSON(w, httpStatus, st)
}

// jobFor resolves the {id} path value, writing a structured 404 on miss.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.lookup(id)
	if !ok {
		writeErr(w, &apiError{status: http.StatusNotFound, code: codeNotFound,
			msg: fmt.Sprintf("no job %q", id)})
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	st := j.snapshotStatus()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait && j.exec != nil {
		select {
		case <-j.exec.done:
		case <-r.Context().Done():
			return
		}
	}
	s.mu.Lock()
	res := j.snapshotResult()
	s.mu.Unlock()
	if !res.State.Terminal() {
		// Not done and not waiting: report the in-flight status with 202
		// so clients can poll without a second endpoint.
		writeJSON(w, http.StatusAccepted, res)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.cancelJob(j))
}

// handleEvents streams the job's event records: JSONL by default
// (application/x-ndjson, one record per line), or server-sent events
// ("data: {...}\n\n") when the client asks with Accept:
// text/event-stream. The stream replays buffered events first, then
// follows live ones, and ends after the terminal record.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	emit := func(ev StreamEvent) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "data: %s\n\n", b)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", b)
		}
		if err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	if j.cached != nil {
		for _, ev := range cachedStream(j.id, j.cached) {
			if !emit(ev) {
				return
			}
		}
		return
	}

	h := j.exec.hub
	i := 0
	for {
		evs, closed, wake := h.snapshot(i)
		for _, ev := range evs {
			if !emit(ev) {
				return
			}
		}
		i += len(evs)
		if closed {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		Service:      s.met.Snapshot(),
		Verifier:     json.RawMessage(s.cfg.Registry.String()),
		CacheEntries: s.store.Len(),
		Store:        s.store.Stats(),
		MemBudget: MemBudgetInfo{
			DefaultBytes: s.cfg.DefaultMemBudget,
		},
		Engines: engines.Names(),
		Node:    s.cfg.NodeID,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, HealthResponse{
		OK:       !draining,
		Version:  s.cfg.Version,
		UptimeMS: time.Since(s.start).Milliseconds(),
		Draining: draining,
		Node:     s.cfg.NodeID,
	})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	depth, capacity := len(s.queue), cap(s.queue)
	resp := ReadyResponse{
		Node:          s.cfg.NodeID,
		Draining:      draining,
		Saturated:     depth >= capacity,
		QueueDepth:    depth,
		QueueCapacity: capacity,
		Version:       s.cfg.Version,
	}
	resp.Ready = !resp.Draining && !resp.Saturated
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}
