package service_test

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/has"
	"verifas/internal/service"
	"verifas/internal/service/client"
	"verifas/internal/store"
)

// startReplica boots one fleet replica: a server named node whose tiered
// store persists into dir. Every engine run signals parked when it
// reaches the engine and then waits until gate closes.
func startReplica(t *testing.T, dir, node string, gate, parked chan struct{}) (*service.Server, *client.Client) {
	t.Helper()
	disk, err := store.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, service.Config{
		Workers: 2,
		NodeID:  node,
		Store:   store.NewTiered(store.NewMemory(16), disk),
		Engine: func(o service.EngineOptions, observer core.Observer) (core.Engine, error) {
			eng, err := service.BuiltinEngine(o, observer)
			if err != nil {
				return nil, err
			}
			return core.VerifierFunc(func(ctx context.Context, sys *has.System, prop *core.Property) (*core.Result, error) {
				parked <- struct{}{}
				select {
				case <-gate:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return eng.Verify(ctx, sys, prop)
			}), nil
		},
	})
}

// TestCrossReplicaSameKey: two replicas sharing one store directory
// receive the same key concurrently, which is what a failover window
// looks like (the ring sends a key to one replica otherwise). Each runs
// the engine once; both return the same verdict, and the shared store
// then holds exactly one readable entry for the key.
func TestCrossReplicaSameKey(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	parked := make(chan struct{}, 2)
	svcA, clA := startReplica(t, dir, "ra", gate, parked)
	svcB, clB := startReplica(t, dir, "rb", gate, parked)
	ctx := context.Background()
	req := buggyShipStocked()

	stA, err := clA.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := clB.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if stA.Key != stB.Key {
		t.Fatalf("replicas derived different cache keys: %s vs %s", stA.Key, stB.Key)
	}
	// Both runs are inside the engine before either finishes.
	<-parked
	<-parked
	close(gate)

	resA, err := clA.Result(ctx, stA.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := clB.Result(ctx, stB.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Verdict != "violated" || resB.Verdict != resA.Verdict {
		t.Fatalf("verdicts = %q / %q, want both violated", resA.Verdict, resB.Verdict)
	}
	for _, svc := range []*service.Server{svcA, svcB} {
		if runs := svc.Metrics().Snapshot().EngineRuns; runs != 1 {
			t.Errorf("engine runs = %d, want 1 per replica", runs)
		}
		// The drain flushes the disk tier's background writes.
		if err := svc.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}

	disk, err := store.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := disk.Len(); n != 1 {
		t.Errorf("shared store holds %d entries, want 1", n)
	}
	got, _, ok := disk.Get(stA.Key)
	if !ok || got.Verdict.String() != resA.Verdict {
		t.Fatalf("shared store entry for the key: ok=%v result=%+v", ok, got)
	}
}

// TestRequestKeyMatchesServer: the router-side key derivation agrees
// with the key the replica assigns at submission.
func TestRequestKeyMatchesServer(t *testing.T) {
	_, cl := newTestServer(t, service.Config{Workers: 1})
	req := buggyShipStocked()
	st, err := cl.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	key, err := service.RequestKey(req, service.KeyDefaults{})
	if err != nil {
		t.Fatal(err)
	}
	if key != st.Key {
		t.Fatalf("RequestKey = %s, server assigned %s", key, st.Key)
	}
	// Invalid requests fail key derivation the same way submission would.
	if _, err := service.RequestKey(&service.SubmitRequest{}, service.KeyDefaults{}); err == nil {
		t.Fatal("RequestKey accepted an empty request")
	}
}

// TestNodeJobIDs: replicas with a node id issue globally unique,
// routable job ids.
func TestNodeJobIDs(t *testing.T) {
	_, cl := newTestServer(t, service.Config{Workers: 1, NodeID: "r7"})
	st, err := cl.Submit(context.Background(), buggyShipStocked())
	if err != nil {
		t.Fatal(err)
	}
	if got := service.NodeOfJobID(st.ID); got != "r7" {
		t.Fatalf("NodeOfJobID(%q) = %q, want r7", st.ID, got)
	}
	for id, want := range map[string]string{
		"j-000001":         "",
		"r1-j-000042":      "r1",
		"host:9001-j-0001": "host:9001",
		"garbage":          "",
	} {
		if got := service.NodeOfJobID(id); got != want {
			t.Errorf("NodeOfJobID(%q) = %q, want %q", id, got, want)
		}
	}
}

// TestReadyz: readiness flips on queue saturation and on drain begin,
// while liveness (/healthz) keeps answering 200.
func TestReadyz(t *testing.T) {
	gate := make(chan struct{})
	parked := make(chan struct{}, 4)
	dir := t.TempDir()
	disk, err := store.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.Config{
		Workers:    1,
		QueueDepth: 1,
		NodeID:     "r1",
		Store:      store.NewTiered(store.NewMemory(16), disk),
	}
	cfg.Engine = func(o service.EngineOptions, observer core.Observer) (core.Engine, error) {
		return core.VerifierFunc(func(ctx context.Context, sys *has.System, prop *core.Property) (*core.Result, error) {
			parked <- struct{}{}
			<-gate
			return nil, ctx.Err()
		}), nil
	}
	svc, cl := newTestServer(t, cfg)
	defer close(gate)
	ctx := context.Background()

	readyz := func() (int, service.ReadyResponse) {
		t.Helper()
		resp, err := http.Get(cl.Base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body service.ReadyResponse
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := readyz(); code != http.StatusOK || !body.Ready || body.Node != "r1" {
		t.Fatalf("idle readyz = %d %+v, want 200 ready node=r1", code, body)
	}

	// Saturate: one running job (parked in the engine) + one queued
	// fills the depth-1 queue.
	if _, err := cl.Submit(ctx, buggyShipStocked()); err != nil {
		t.Fatal(err)
	}
	<-parked
	other := buggyShipStocked()
	other.Options = &service.RequestOptions{MaxStates: 123}
	if _, err := cl.Submit(ctx, other); err != nil {
		t.Fatal(err)
	}
	if code, body := readyz(); code != http.StatusServiceUnavailable || !body.Saturated {
		t.Fatalf("saturated readyz = %d %+v, want 503 saturated", code, body)
	}

	// Drain: readiness flips immediately; liveness stays 200.
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(sctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := readyz()
		if code == http.StatusServiceUnavailable && body.Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never reported draining: %d %+v", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatalf("healthz during drain: %v", err)
	}
	if !h.Draining {
		t.Fatal("healthz does not report draining")
	}
}
