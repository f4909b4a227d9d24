package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/fleet"
	"verifas/internal/has"
	"verifas/internal/service"
	"verifas/internal/service/client"
	"verifas/internal/store"
)

// replica is one live verifasd under test.
type replica struct {
	svc  *service.Server
	ts   *httptest.Server
	addr string
	node string
}

// startFleet boots n replicas sharing one store directory (a tiered
// store each, the production fleet shape) and a router over them with
// its first health sweep done.
func startFleet(t *testing.T, n int) (*fleet.Router, *httptest.Server, []*replica) {
	t.Helper()
	return startFleetWith(t, n, nil)
}

// startFleetWith is startFleet with engine dispatch engine (nil = the
// built-in engines) on every replica.
func startFleetWith(t *testing.T, n int, engine service.EngineFunc) (*fleet.Router, *httptest.Server, []*replica) {
	t.Helper()
	dir := t.TempDir()
	reps := make([]*replica, n)
	addrs := make([]string, n)
	for i := range reps {
		node := fmt.Sprintf("r%d", i)
		disk, err := store.OpenDisk(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		svc := service.NewServer(service.Config{
			Workers: 2,
			NodeID:  node,
			Store:   store.NewTiered(store.NewMemory(16), disk),
			Engine:  engine,
		})
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = svc.Shutdown(ctx)
		})
		reps[i] = &replica{svc: svc, ts: ts, addr: ts.URL, node: node}
		addrs[i] = ts.URL
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{Replicas: addrs, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { front.Close(); rt.Close() })
	return rt, front, reps
}

// submitReq is the standard violated-verdict spec, with an option
// variant minting a distinct cache key per i.
func submitReq(i int) *service.SubmitRequest {
	return &service.SubmitRequest{
		Workflow: "OrderFulfillmentBuggy",
		PropertySrc: `property ship_stocked of ProcessOrders {
			define stocked := instock == "Yes"
			formula G (open(ShipItem) -> stocked)
		}`,
		Options: &service.RequestOptions{MaxStates: 10_000 + i},
	}
}

// postJob submits through url, returning the decoded status, the shard
// header, and the cache-tier header.
func postJob(t *testing.T, url string, req *service.SubmitRequest) (service.JobStatus, string, string) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("submit: %s", resp.Status)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, resp.Header.Get(fleet.ShardHeader), resp.Header.Get(service.CacheTierHeader)
}

func routerStats(t *testing.T, url string) fleet.RouterStatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out fleet.RouterStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRouterKeyAffinity: every submission of the same spec lands on the
// same shard, repeats are cache hits, and the fleet runs each key's
// engine exactly once.
func TestRouterKeyAffinity(t *testing.T) {
	_, front, _ := startFleet(t, 3)
	ctx := context.Background()
	cl := client.New(front.URL)

	const distinct = 6
	shardOf := make(map[string]string)
	for i := 0; i < distinct; i++ {
		st, shard, _ := postJob(t, front.URL, submitReq(i))
		if shard == "" {
			t.Fatalf("submission %d carries no %s header", i, fleet.ShardHeader)
		}
		shardOf[st.Key] = shard
		if _, err := cl.Result(ctx, st.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	// Resubmits: same shard, answered from cache.
	for i := 0; i < distinct; i++ {
		st, shard, tier := postJob(t, front.URL, submitReq(i))
		if shard != shardOf[st.Key] {
			t.Errorf("key %s moved shard %s -> %s", st.Key, shardOf[st.Key], shard)
		}
		if !st.Cached || tier == string(store.TierMiss) {
			t.Errorf("resubmit %d not served from cache (tier %q)", i, tier)
		}
	}

	stats := routerStats(t, front.URL)
	if stats.Fleet.ReplicasSeen != 3 {
		t.Fatalf("stats fan-out reached %d replicas, want 3", stats.Fleet.ReplicasSeen)
	}
	if stats.Fleet.EngineRuns != distinct {
		t.Errorf("fleet engine runs = %d, want %d (one per key)", stats.Fleet.EngineRuns, distinct)
	}
	if stats.Router.Proxied < 2*distinct {
		t.Errorf("router proxied %d requests, want >= %d", stats.Router.Proxied, 2*distinct)
	}
}

// TestRouterIDRouting: id-addressed requests reach the issuing replica;
// ids naming no replica answer 502.
func TestRouterIDRouting(t *testing.T) {
	_, front, _ := startFleet(t, 3)
	ctx := context.Background()
	cl := client.New(front.URL)

	st, shard, _ := postJob(t, front.URL, submitReq(0))
	if got := service.NodeOfJobID(st.ID); got != shard {
		t.Fatalf("job id %q names node %q, shard header says %q", st.ID, got, shard)
	}
	got, err := cl.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != st.ID {
		t.Fatalf("status through router returned %q, want %q", got.ID, st.ID)
	}
	res, err := cl.Result(ctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != "violated" {
		t.Fatalf("verdict = %q, want violated", res.Verdict)
	}
	// The event stream proxies live through the router and terminates.
	var last service.StreamEvent
	n := 0
	if err := cl.Stream(ctx, st.ID, func(ev service.StreamEvent) error {
		last = ev
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n == 0 || last.Type != "verdict" {
		t.Fatalf("stream via router ended with %+v after %d events", last, n)
	}

	if _, err := cl.Status(ctx, "ghost-j-000001"); err == nil {
		t.Fatal("unknown shard id did not error")
	} else if ae, ok := err.(*client.APIError); !ok || ae.Status != http.StatusBadGateway || ae.Code != "unknown-shard" {
		t.Fatalf("unknown shard error = %v, want 502 unknown-shard", err)
	}
}

// TestRouterLiveStream: an event stream proxied by the router delivers
// its first record while the job is still running, not when it ends.
func TestRouterLiveStream(t *testing.T) {
	gate := make(chan struct{})
	engine := func(o service.EngineOptions, observer core.Observer) (core.Engine, error) {
		real, err := service.BuiltinEngine(o, observer)
		if err != nil {
			return nil, err
		}
		return core.VerifierFunc(func(ctx context.Context, sys *has.System, prop *core.Property) (*core.Result, error) {
			if observer != nil {
				observer.PhaseStart(core.PhaseCompile)
			}
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return real.Verify(ctx, sys, prop)
		}), nil
	}
	_, front, _ := startFleetWith(t, 2, engine)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := client.New(front.URL)

	st, _, _ := postJob(t, front.URL, submitReq(0))
	first := make(chan service.StreamEvent, 1)
	var last service.StreamEvent
	done := make(chan error, 1)
	go func() {
		n := 0
		done <- cl.Stream(ctx, st.ID, func(ev service.StreamEvent) error {
			if n++; n == 1 {
				first <- ev
			}
			last = ev
			return nil
		})
	}()
	select {
	case ev := <-first:
		if ev.Type == "verdict" {
			t.Fatalf("first streamed record is the verdict of a job still parked in its engine")
		}
	case err := <-done:
		t.Fatalf("stream ended before the job finished: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no record reached the client while the job was running")
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if last.Type != "verdict" {
		t.Fatalf("stream ended with %+v, want the verdict", last)
	}
}

// TestRouterRelayContentLength: a non-stream reply keeps the replica's
// Content-Length through the router instead of being re-chunked.
func TestRouterRelayContentLength(t *testing.T) {
	_, front, _ := startFleet(t, 2)
	b, err := json.Marshal(submitReq(0))
	if err != nil {
		t.Fatal(err)
	}
	// relayed checks one reply and returns its body.
	relayed := func(resp *http.Response, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		what := resp.Request.Method + " " + resp.Request.URL.Path
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v, body %d bytes; want the body's length and no chunking",
				what, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		checkCompact(t, what, body)
		return body
	}
	var st service.JobStatus
	body := relayed(http.Post(front.URL+"/v1/jobs", "application/json", bytes.NewReader(b)))
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	var res service.JobResult
	if err := json.Unmarshal(relayed(http.Get(front.URL+"/v1/jobs/"+st.ID+"/result?wait=1")), &res); err != nil {
		t.Fatal(err)
	}
	if res.Verdict != "violated" {
		t.Fatalf("verdict = %q, want violated", res.Verdict)
	}
	relayed(http.Get(front.URL + "/v1/jobs/" + st.ID))
}

// TestRouterFailover: with a replica dead, its keys are served by ring
// successors — no submission is lost and failovers are counted.
func TestRouterFailover(t *testing.T) {
	rt, front, reps := startFleet(t, 3)
	ctx := context.Background()
	cl := client.New(front.URL)

	// Learn each key's owner, then kill one replica.
	owners := make(map[int]string)
	for i := 0; i < 8; i++ {
		_, shard, _ := postJob(t, front.URL, submitReq(i))
		owners[i] = shard
	}
	victim := reps[1]
	victim.ts.Close()
	rt.CheckNow(ctx)

	served := 0
	for i := 0; i < 8; i++ {
		if owners[i] != victim.node {
			continue
		}
		// The dead owner's key resubmitted: the ring successor takes it
		// and serves the verdict from the shared store.
		st, shard, _ := postJob(t, front.URL, submitReq(i))
		if shard == victim.node || shard == "" {
			t.Fatalf("key routed to dead shard %q", shard)
		}
		if _, err := cl.Result(ctx, st.ID, true); err != nil {
			t.Fatal(err)
		}
		served++
	}
	if served == 0 {
		t.Skip("no key owned by the killed replica (vnode layout)")
	}
	if got := rt.Metrics().Snapshot().Failovers; got == 0 {
		t.Error("failover counter stayed zero")
	}
}

// TestRouterRetryAfter429: a fleet-wide 429 is retried under the policy
// honoring Retry-After, and the final rejection is relayed verbatim.
func TestRouterRetryAfter429(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			json.NewEncoder(w).Encode(service.ReadyResponse{Ready: true, Node: "b0", QueueCapacity: 1})
		case "/v1/jobs":
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(service.ErrorBody{Error: service.ErrorDetail{Code: "queue-full", Message: "full"}})
		default:
			http.NotFound(w, r)
		}
	}))
	defer backend.Close()

	var slept []time.Duration
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Replicas: []string{backend.URL},
		Retry: &client.RetryPolicy{
			MaxAttempts: 3,
			Jitter:      -1,
			Sleep: func(ctx context.Context, d time.Duration) error {
				slept = append(slept, d)
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	defer rt.Close()

	b, _ := json.Marshal(submitReq(0))
	resp, err := http.Post(front.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want relayed 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Errorf("Retry-After not relayed, header = %q", resp.Header.Get("Retry-After"))
	}
	if len(slept) != 2 {
		t.Fatalf("router slept %d times, want 2 (3 attempts)", len(slept))
	}
	for i, d := range slept {
		if d != 2*time.Second {
			t.Errorf("retry delay %d = %v, want the 2s Retry-After hint", i, d)
		}
	}
	if got := rt.Metrics().Snapshot().Retries429; got != 2 {
		t.Errorf("retries_429 = %d, want 2", got)
	}
}

// TestRouterReadyz: the router reports ready only once a replica is.
func TestRouterReadyz(t *testing.T) {
	svc := service.NewServer(service.Config{Workers: 1, NodeID: "r0"})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	rt, err := fleet.NewRouter(fleet.RouterConfig{Replicas: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	get := func() int {
		resp, err := http.Get(front.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get(); got != http.StatusServiceUnavailable {
		t.Fatalf("pre-sweep readyz = %d, want 503", got)
	}
	rt.CheckNow(context.Background())
	if got := get(); got != http.StatusOK {
		t.Fatalf("post-sweep readyz = %d, want 200", got)
	}
	// Liveness is unconditional.
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	checkCompact(t, "GET /healthz", body)
}

// checkCompact fails unless body is one JSON value without insignificant
// whitespace, ended by a newline.
func checkCompact(t *testing.T, what string, body []byte) {
	t.Helper()
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Fatalf("%s: body is not JSON: %v", what, err)
	}
	if want := append(compact.Bytes(), '\n'); !bytes.Equal(body, want) {
		t.Errorf("%s: body %q, want the compact %q", what, body, want)
	}
}
