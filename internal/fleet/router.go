package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"verifas/internal/service"
	"verifas/internal/service/client"
)

// ShardHeader is set on every proxied response, naming the replica that
// served the request — the wire-visible proof of key affinity that the
// ring property tests and the soak assert on.
const ShardHeader = "X-Verifas-Shard"

// DefaultHealthInterval is the readiness-poll period of the router's
// health checker.
const DefaultHealthInterval = 250 * time.Millisecond

// RouterConfig configures a fleet router.
type RouterConfig struct {
	// Replicas are the verifasd addresses ("host:port" or full URLs)
	// forming the ring. Required, at least one.
	Replicas []string
	// VNodes is the virtual-node count per replica (DefaultVNodes).
	VNodes int
	// HealthInterval is the /readyz poll period (DefaultHealthInterval).
	HealthInterval time.Duration
	// KeyDefaults mirror the replicas' server-side option defaults so
	// the router derives the same cache key a replica would assign. The
	// zero value matches a default-configured verifasd.
	KeyDefaults service.KeyDefaults
	// Retry, when set, re-issues a submission that every candidate
	// rejected with 429 under the policy's backoff (honoring
	// Retry-After) before giving up. Nil fails fast.
	Retry *client.RetryPolicy
	// Version is reported by the router's /healthz and /readyz.
	Version string
}

// Router is the fleet's stateless HTTP front door: it owns a
// consistent-hash ring over the configured replicas, routes each
// submission to the replica owning the job's cache key (where identical
// in-flight jobs coalesce onto one run),
// routes id-addressed requests (status/result/events/cancel) to the
// replica that issued the id, and fails over along the ring's successor
// sequence when the owner is not ready.
//
// The router holds no job state of its own — any number of routers can
// front the same fleet, and a restarted router needs no recovery beyond
// its first health sweep.
type Router struct {
	cfg  RouterConfig
	ring *Ring
	mux  *http.ServeMux
	hc   *http.Client

	mu    sync.RWMutex
	state map[string]*replicaState // by address
	nodes map[string]string        // node id -> address

	met RouterMetrics

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// replicaState is the health checker's view of one replica.
type replicaState struct {
	Addr  string `json:"addr"`
	Node  string `json:"node,omitempty"`
	Ready bool   `json:"ready"`
	// LastErr is the most recent probe failure ("" when healthy).
	LastErr string `json:"last_error,omitempty"`
	// Proxied counts requests this replica served through the router —
	// the soak's admission-fairness assertion reads it.
	Proxied int64 `json:"proxied"`
}

// RouterMetrics are the router-level counters, exposed on /v1/stats and
// publishable as an expvar (it implements expvar.Var).
type RouterMetrics struct {
	proxied      atomic.Int64
	failovers    atomic.Int64
	retries429   atomic.Int64
	noReady      atomic.Int64
	badKey       atomic.Int64
	unknownShard atomic.Int64
	healthProbes atomic.Int64
}

// RouterMetricsSnapshot is the JSON form of RouterMetrics.
type RouterMetricsSnapshot struct {
	// Proxied counts requests forwarded to a replica (any outcome).
	Proxied int64 `json:"proxied"`
	// Failovers counts attempts abandoned for the next ring successor
	// (transport failure or a not-ready 502/503 answer).
	Failovers int64 `json:"failovers"`
	// Retries429 counts submissions re-issued after a fleet-wide 429.
	Retries429 int64 `json:"retries_429"`
	// NoReady counts requests refused because no candidate was ready.
	NoReady int64 `json:"no_ready"`
	// BadKey counts submissions whose cache key could not be derived
	// (malformed spec) — proxied to the first ready replica for the
	// authoritative structured error.
	BadKey int64 `json:"bad_key"`
	// UnknownShard counts id-addressed requests whose node id matched no
	// known replica.
	UnknownShard int64 `json:"unknown_shard"`
	// HealthProbes counts /readyz probes issued by the health checker.
	HealthProbes int64 `json:"health_probes"`
}

// Snapshot returns the current counter values.
func (m *RouterMetrics) Snapshot() RouterMetricsSnapshot {
	return RouterMetricsSnapshot{
		Proxied:      m.proxied.Load(),
		Failovers:    m.failovers.Load(),
		Retries429:   m.retries429.Load(),
		NoReady:      m.noReady.Load(),
		BadKey:       m.badKey.Load(),
		UnknownShard: m.unknownShard.Load(),
		HealthProbes: m.healthProbes.Load(),
	}
}

// String implements expvar.Var.
func (m *RouterMetrics) String() string {
	b, _ := json.Marshal(m.Snapshot())
	return string(b)
}

// RouterStatsResponse is the body of the router's GET /v1/stats.
type RouterStatsResponse struct {
	Router   RouterMetricsSnapshot `json:"router"`
	Replicas []replicaState        `json:"replicas"`
	// Fleet aggregates the reachable replicas' singleflight and store
	// counters — the fleet-wide "each key ran an engine at most once"
	// evidence in one scrape.
	Fleet FleetAggregate `json:"fleet"`
}

// FleetAggregate sums the per-replica counters that matter fleet-wide.
type FleetAggregate struct {
	// ReplicasSeen is how many replicas answered the stats fan-out.
	ReplicasSeen int `json:"replicas_seen"`
	// EngineRuns is the total engine executions across the fleet.
	EngineRuns int64 `json:"engine_runs"`
	// Coalesced sums the replicas' singleflight joins.
	Coalesced int64 `json:"coalesced"`
	// CacheHits sums both store tiers' hits; MemoryHits and DiskHits
	// split them per tier.
	CacheHits  int64 `json:"cache_hits"`
	MemoryHits int64 `json:"memory_hits"`
	DiskHits   int64 `json:"disk_hits"`
}

// NewRouter builds a router over the configured replicas. Every replica
// starts not-ready; call Start (or CheckNow) to populate readiness
// before serving.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: no replicas configured")
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	rt := &Router{
		cfg:   cfg,
		ring:  NewRing(cfg.VNodes),
		hc:    &http.Client{},
		state: make(map[string]*replicaState, len(cfg.Replicas)),
		nodes: make(map[string]string, len(cfg.Replicas)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for _, addr := range cfg.Replicas {
		addr = normalizeAddr(addr)
		if _, dup := rt.state[addr]; dup {
			return nil, fmt.Errorf("fleet: duplicate replica %s", addr)
		}
		rt.state[addr] = &replicaState{Addr: addr}
		rt.ring.Add(addr)
	}
	rt.routes()
	return rt, nil
}

func normalizeAddr(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/")
}

// Start launches the background health checker. Close stops it.
func (rt *Router) Start() {
	go func() {
		defer close(rt.done)
		t := time.NewTicker(rt.cfg.HealthInterval)
		defer t.Stop()
		rt.CheckNow(context.Background())
		for {
			select {
			case <-rt.stop:
				return
			case <-t.C:
				rt.CheckNow(context.Background())
			}
		}
	}()
}

// Close stops the health checker (idempotent).
func (rt *Router) Close() {
	rt.once.Do(func() { close(rt.stop) })
	select {
	case <-rt.done:
	case <-time.After(time.Second):
	}
}

// Metrics exposes the router-level counters (e.g. for expvar.Publish).
func (rt *Router) Metrics() *RouterMetrics { return &rt.met }

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// CheckNow probes every replica's /readyz once, synchronously, updating
// readiness and the node-to-address map. Tests and the serve loop's
// startup call it directly; the background checker calls it on a timer.
func (rt *Router) CheckNow(ctx context.Context) {
	var wg sync.WaitGroup
	for addr := range rt.state {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			rt.probe(ctx, addr)
		}(addr)
	}
	wg.Wait()
}

func (rt *Router) probe(ctx context.Context, addr string) {
	rt.met.healthProbes.Add(1)
	pctx, cancel := context.WithTimeout(ctx, rt.cfg.HealthInterval*4)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, addr+"/readyz", nil)
	if err != nil {
		rt.setHealth(addr, "", false, err.Error())
		return
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		rt.setHealth(addr, "", false, err.Error())
		return
	}
	defer resp.Body.Close()
	var body service.ReadyResponse
	if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); derr != nil {
		rt.setHealth(addr, "", false, fmt.Sprintf("decoding readyz: %v", derr))
		return
	}
	errMsg := ""
	if !body.Ready {
		switch {
		case body.Draining:
			errMsg = "draining"
		case body.Saturated:
			errMsg = "saturated"
		default:
			errMsg = resp.Status
		}
	}
	rt.setHealth(addr, body.Node, body.Ready, errMsg)
}

func (rt *Router) setHealth(addr, node string, ready bool, errMsg string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := rt.state[addr]
	st.Ready = ready
	st.LastErr = errMsg
	if node != "" {
		st.Node = node
		rt.nodes[node] = addr
	}
}

func (rt *Router) ready(addr string) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	st, ok := rt.state[addr]
	return ok && st.Ready
}

// candidates returns the failover order for key: the ring owner first,
// then its successors clockwise. Readiness is applied at proxy time (and
// counted as failovers), not here, so the owner's position is stable.
func (rt *Router) candidates(key string) []string {
	return rt.ring.Sequence(key, rt.ring.Len())
}

// anyReady returns every replica, ready first (for requests with no key
// affinity, like a malformed submission needing an authoritative error).
func (rt *Router) anyReady() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	addrs := make([]string, 0, len(rt.state))
	for addr := range rt.state {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool {
		ri, rj := rt.state[addrs[i]].Ready, rt.state[addrs[j]].Ready
		if ri != rj {
			return ri
		}
		return addrs[i] < addrs[j]
	})
	return addrs
}

func (rt *Router) routes() {
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.handleByID)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/result", rt.handleByID)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/events", rt.handleByID)
	rt.mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleByID)
	rt.mux.HandleFunc("GET /v1/stats", rt.handleStats)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /readyz", rt.handleReady)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, service.ErrorBody{Error: service.ErrorDetail{Code: code, Message: msg}})
}

// handleSubmit derives the submission's cache key and proxies to the
// owning replica, failing over along the ring; a fleet-wide 429 is
// retried under the configured policy.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad-request", fmt.Sprintf("reading body: %v", err))
		return
	}
	var targets []string
	var req service.SubmitRequest
	if jerr := json.Unmarshal(body, &req); jerr != nil {
		rt.met.badKey.Add(1)
		targets = rt.anyReady()
	} else if key, kerr := service.RequestKey(&req, rt.cfg.KeyDefaults); kerr != nil {
		// Undecidable key (unknown workflow, bad property...): any
		// replica produces the authoritative structured 4xx.
		rt.met.badKey.Add(1)
		targets = rt.anyReady()
	} else {
		targets = rt.candidates(key)
	}

	for attempt := 1; ; attempt++ {
		last, done := rt.proxyFailover(w, r, targets, body, true)
		if done {
			return
		}
		// Every candidate answered 429: the fleet is saturated, not
		// broken. Back off and re-issue if the policy allows.
		if last != nil && last.status == http.StatusTooManyRequests &&
			rt.cfg.Retry != nil && attempt < rt.cfg.Retry.Attempts() {
			if rt.cfg.Retry.Wait(r.Context(), rt.cfg.Retry.Delay(attempt, last.retryAfter)) != nil {
				rt.replay(w, last)
				return
			}
			rt.met.retries429.Add(1)
			continue
		}
		if last != nil {
			rt.replay(w, last)
			return
		}
		rt.met.noReady.Add(1)
		writeErr(w, http.StatusServiceUnavailable, "no-ready-shard", "no replica is ready")
		return
	}
}

// handleByID routes status/result/events/cancel to the replica that
// issued the job id (its node prefix). Ids from unknown nodes get 502:
// the shard may be restarting, a retrying client should try again.
func (rt *Router) handleByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	node := service.NodeOfJobID(id)
	rt.mu.RLock()
	addr, ok := rt.nodes[node]
	rt.mu.RUnlock()
	if node == "" || !ok {
		rt.met.unknownShard.Add(1)
		writeErr(w, http.StatusBadGateway, "unknown-shard",
			fmt.Sprintf("job %q names no known replica", id))
		return
	}
	// No failover: job records live only on the issuing replica. A
	// not-ready (draining/saturated) replica still answers id reads.
	if _, done := rt.proxyFailover(w, r, []string{addr}, nil, false); !done {
		writeErr(w, http.StatusBadGateway, "shard-unreachable",
			fmt.Sprintf("replica %s did not answer", addr))
	}
}

// proxied is a buffered non-2xx answer kept for replay after failover
// exhausts the candidates.
type proxied struct {
	status     int
	header     http.Header
	body       []byte
	retryAfter time.Duration
}

// proxyFailover forwards the request to the first candidate that
// answers, in order. A candidate reported not-ready (when requireReady),
// unreachable, or answering 429/502/503 counts a failover and yields to
// the next; any other answer is relayed (streamed, for event streams)
// and the call returns done=true. When every candidate fails, the last
// buffered answer (nil if all failed at transport level) is returned for
// the caller to replay or replace.
func (rt *Router) proxyFailover(w http.ResponseWriter, r *http.Request, targets []string, body []byte, requireReady bool) (last *proxied, done bool) {
	tried := 0
	for _, addr := range targets {
		if tried > 0 {
			rt.met.failovers.Add(1)
		}
		tried++
		if requireReady && !rt.ready(addr) {
			continue
		}
		resp, err := rt.forward(r, addr, body)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable ||
			resp.StatusCode == http.StatusTooManyRequests {
			// Buffer the rejection and try the next candidate; it is
			// replayed only if nobody else answers. 429 fails over too:
			// another shard may have capacity (at the cost of running
			// the key outside its owner's singleflight).
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			last = &proxied{status: resp.StatusCode, header: resp.Header, body: b}
			if secs := resp.Header.Get("Retry-After"); secs != "" {
				if d, perr := time.ParseDuration(secs + "s"); perr == nil {
					last.retryAfter = d
				}
			}
			continue
		}
		rt.met.proxied.Add(1)
		rt.countProxied(addr)
		rt.relay(w, resp, rt.nodeOf(addr))
		return nil, true
	}
	return last, false
}

// forward issues one copy of the inbound request to addr.
func (rt *Router) forward(r *http.Request, addr string, body []byte) (*http.Response, error) {
	url := addr + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, rd)
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "Accept", "Accept-Encoding"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	return rt.hc.Do(req)
}

// relayBufs holds the copy buffers of relay, shared across replies.
var relayBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// flushWriter flushes after every write, so event-stream records
// arrive live.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.f.Flush()
	return n, err
}

// relay copies a replica's response to the client. Event streams are
// flushed after every write; any other reply keeps its Content-Length
// and is written through the response buffer, so a small reply leaves
// in one write. The copy hides the ResponseWriter's ReadFrom, which
// hands a body over 512 bytes to the connection's own copy and that
// allocates a fresh 32 KB buffer per reply.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, node string) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Cache-Control", "Retry-After", service.CacheTierHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if node != "" {
		w.Header().Set(ShardHeader, node)
	}
	var dst io.Writer = struct{ io.Writer }{w}
	if f, ok := w.(http.Flusher); ok && isEventStream(resp.Header.Get("Content-Type")) {
		dst = flushWriter{w, f}
	} else if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	buf := relayBufs.Get().(*[32 << 10]byte)
	defer relayBufs.Put(buf)
	_, _ = io.CopyBuffer(dst, resp.Body, buf[:])
}

// isEventStream reports whether a response content type is one of the
// replica's live event streams (JSONL or server-sent events).
func isEventStream(contentType string) bool {
	mt, _, _ := strings.Cut(contentType, ";")
	switch strings.TrimSpace(mt) {
	case "application/x-ndjson", "text/event-stream":
		return true
	}
	return false
}

// replay writes a buffered replica answer to the client.
func (rt *Router) replay(w http.ResponseWriter, p *proxied) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := p.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(p.status)
	_, _ = w.Write(p.body)
}

func (rt *Router) countProxied(addr string) {
	rt.mu.Lock()
	rt.state[addr].Proxied++
	rt.mu.Unlock()
}

func (rt *Router) nodeOf(addr string) string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if st, ok := rt.state[addr]; ok {
		return st.Node
	}
	return ""
}

// handleStats reports the router counters, the per-replica health view,
// and a fleet-wide aggregate scraped live from every reachable replica.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	replicas := make([]replicaState, 0, len(rt.state))
	for _, st := range rt.state {
		replicas = append(replicas, *st)
	}
	rt.mu.RUnlock()
	sort.Slice(replicas, func(i, j int) bool { return replicas[i].Addr < replicas[j].Addr })

	var agg FleetAggregate
	var wg sync.WaitGroup
	var aggMu sync.Mutex
	for _, st := range replicas {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			stats, err := rt.scrapeStats(r.Context(), addr)
			if err != nil {
				return
			}
			aggMu.Lock()
			defer aggMu.Unlock()
			agg.ReplicasSeen++
			agg.EngineRuns += stats.Service.EngineRuns
			agg.Coalesced += stats.Service.Coalesced
			if t := stats.Store.Memory; t != nil {
				agg.CacheHits += t.Hits
				agg.MemoryHits += t.Hits
			}
			if t := stats.Store.Disk; t != nil {
				agg.CacheHits += t.Hits
				agg.DiskHits += t.Hits
			}
		}(st.Addr)
	}
	wg.Wait()

	writeJSON(w, http.StatusOK, RouterStatsResponse{
		Router:   rt.met.Snapshot(),
		Replicas: replicas,
		Fleet:    agg,
	})
}

func (rt *Router) scrapeStats(ctx context.Context, addr string) (*service.StatsResponse, error) {
	sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, addr+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: %s", resp.Status)
	}
	var out service.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"role":     "router",
		"version":  rt.cfg.Version,
		"replicas": len(rt.cfg.Replicas),
	})
}

// handleReady: the router is ready while at least one replica is.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	readyCount := 0
	rt.mu.RLock()
	for _, st := range rt.state {
		if st.Ready {
			readyCount++
		}
	}
	total := len(rt.state)
	rt.mu.RUnlock()
	status := http.StatusOK
	if readyCount == 0 {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready":          readyCount > 0,
		"ready_replicas": readyCount,
		"replicas":       total,
		"version":        rt.cfg.Version,
	})
}
