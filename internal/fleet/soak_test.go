package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"testing"
	"time"

	"verifas/internal/fleet"
	"verifas/internal/fleet/loadgen"
	"verifas/internal/service"
	"verifas/internal/service/client"
	"verifas/internal/store"
)

// TestScheduleDeterminism: the loadgen schedule is a pure function of
// (seed, jobs, specs) — identical configs replay identical workloads.
func TestScheduleDeterminism(t *testing.T) {
	a := loadgen.Schedule(loadgen.Config{Seed: 42, Jobs: 500, Specs: 50})
	b := loadgen.Schedule(loadgen.Config{Seed: 42, Jobs: 500, Specs: 50})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := loadgen.Schedule(loadgen.Config{Seed: 43, Jobs: 500, Specs: 50})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	modes := map[loadgen.Mode]int{}
	for _, op := range a {
		if op.Spec < 0 || op.Spec >= 50 {
			t.Fatalf("spec index %d out of range", op.Spec)
		}
		modes[op.Mode]++
	}
	for _, m := range []loadgen.Mode{loadgen.ModeWait, loadgen.ModeStatusThenWait, loadgen.ModeStream} {
		if modes[m] == 0 {
			t.Errorf("mode %d never scheduled — the mix is not mixed", m)
		}
	}
	// Identical requests per index: the content-addressed key depends
	// only on the spec index.
	ka, _ := service.RequestKey(loadgen.Request(loadgen.Config{}, 7), service.KeyDefaults{})
	kb, _ := service.RequestKey(loadgen.Request(loadgen.Config{}, 7), service.KeyDefaults{})
	if ka == "" || ka != kb {
		t.Fatalf("request keys for one index diverge: %q vs %q", ka, kb)
	}
}

// soakReplica is one fleet member on a real TCP listener, killable and
// restartable on the same address (crash semantics: Close drops the
// listener and every in-flight connection; nothing is drained).
type soakReplica struct {
	node string
	addr string // host:port, stable across restarts
	svc  *service.Server
	srv  *http.Server
}

// launchSoak boots a replica for the fleet soak: tiered store over the
// shared dir, listener on addr ("127.0.0.1:0" picks a port; pass the
// previous addr to restart).
func launchSoak(t *testing.T, dir, node, addr string) *soakReplica {
	t.Helper()
	disk, err := store.OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.NewServer(service.Config{
		Workers: 4,
		NodeID:  node,
		Store:   store.NewTiered(store.NewMemory(16), disk),
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return &soakReplica{node: node, addr: ln.Addr().String(), svc: svc, srv: srv}
}

// kill simulates a crash: the listener and all connections drop at
// once; the server object is abandoned without a drain.
func (r *soakReplica) kill() { _ = r.srv.Close() }

// soakOutcome bundles what the assertions need.
type soakOutcome struct {
	report *loadgen.Report
	stats  fleet.RouterStatsResponse
	// postWarmupRuns is the fleet-wide engine-run delta after warm-up —
	// the "each key runs at most once" number, which must be zero.
	postWarmupRuns int64
	// perReplica is each live replica's routed-request count.
	perReplica map[string]int64
}

// runSoak drives the full scenario: 3 replicas + router, warm-up of
// every spec key, then jobs submissions at qps with a replica killed
// and restarted mid-run.
func runSoak(t *testing.T, jobs, specs int, qps float64) *soakOutcome {
	t.Helper()
	dir := t.TempDir()
	reps := make([]*soakReplica, 3)
	addrs := make([]string, 3)
	for i := range reps {
		reps[i] = launchSoak(t, dir, fmt.Sprintf("s%d", i), "127.0.0.1:0")
		addrs[i] = reps[i].addr
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.kill()
		}
	})
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Replicas:       addrs,
		HealthInterval: 25 * time.Millisecond,
		Retry:          &client.RetryPolicy{MaxAttempts: 4, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond},
		Version:        "soak",
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.CheckNow(context.Background())
	rt.Start()
	t.Cleanup(rt.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	front := &http.Server{Handler: rt.Handler()}
	go func() { _ = front.Serve(ln) }()
	t.Cleanup(func() { _ = front.Close() })
	target := "http://" + ln.Addr().String()

	// Warm-up: compute every spec key once through the router, so the
	// shared store holds all verdicts before the measured run.
	ctx, cancel := context.WithTimeout(context.Background(), 55*time.Second)
	defer cancel()
	cl := client.New(target)
	cl.Retry = &client.RetryPolicy{MaxAttempts: 4, BaseDelay: 25 * time.Millisecond}
	warm := loadgen.Config{Jobs: jobs, Specs: specs}
	for i := 0; i < specs; i++ {
		st, err := cl.Submit(ctx, loadgen.Request(warm, i))
		if err != nil {
			t.Fatalf("warm-up submit %d: %v", i, err)
		}
		res, err := cl.Result(ctx, st.ID, true)
		if err != nil {
			t.Fatalf("warm-up result %d: %v", i, err)
		}
		if res.Verdict != "violated" {
			t.Fatalf("warm-up verdict %d = %q, want violated", i, res.Verdict)
		}
	}
	baseline := map[string]int64{}
	for _, r := range reps {
		baseline[r.node] = r.svc.Metrics().Snapshot().EngineRuns
	}

	// Measured run, with a kill+restart of replica 1 once a third of
	// the load has been routed.
	proxiedAtStart := rt.Metrics().Snapshot().Proxied
	killed := make(chan struct{})
	var killedSvc *service.Server
	go func() {
		defer close(killed)
		for rt.Metrics().Snapshot().Proxied-proxiedAtStart < int64(jobs/3) {
			select {
			case <-ctx.Done():
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		victim := reps[1]
		killedSvc = victim.svc
		victim.kill()
		time.Sleep(250 * time.Millisecond)
		reps[1] = launchSoak(t, dir, victim.node, victim.addr)
	}()
	rep := loadgen.Run(ctx, loadgen.Config{
		Target: target,
		Seed:   7,
		Jobs:   jobs,
		Specs:  specs,
		QPS:    qps,
		Retry:  &client.RetryPolicy{MaxAttempts: 5, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond},
	})
	<-killed

	// Post-warm-up engine runs, fleet-wide. Surviving replicas report a
	// delta over their warm-up baseline; the restarted instance counts
	// from zero, so its whole counter is post-warm-up. The killed
	// instance's counter froze at kill time and still lives in the
	// frozen server object captured by killedSvc, so its pre-death
	// post-warm-up runs are counted too — nothing escapes the sum.
	if killedSvc == nil {
		t.Fatal("the mid-run kill never fired (run finished or timed out first)")
	}
	var post int64
	for i, r := range reps {
		runs := r.svc.Metrics().Snapshot().EngineRuns
		if i == 1 {
			// The restarted instance counts from zero: every run it did
			// happened after warm-up.
			post += runs
		} else {
			post += runs - baseline[r.node]
		}
	}
	post += killedSvc.Metrics().Snapshot().EngineRuns - baseline[reps[1].node]

	resp, err := http.Get(target + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats fleet.RouterStatsResponse
	if derr := json.NewDecoder(resp.Body).Decode(&stats); derr != nil {
		t.Fatal(derr)
	}
	resp.Body.Close()

	perReplica := map[string]int64{}
	for _, rs := range stats.Replicas {
		perReplica[rs.Node] = rs.Proxied
	}
	return &soakOutcome{report: rep, stats: stats, postWarmupRuns: post, perReplica: perReplica}
}

// TestFleetSoak is the acceptance scenario: 3 replicas behind the
// router, 1000 jobs over 50 distinct keys, one replica crash-killed and
// restarted mid-run. No job is lost, every verdict agrees, no key runs
// an engine after warm-up, and routed load spreads over the fleet.
func TestFleetSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak needs the full job volume; run without -short or via make fleet-soak")
	}
	out := runSoak(t, 1000, 50, 400)
	rep := out.report

	if rep.Lost != 0 {
		t.Errorf("lost %d jobs (errors: %v)", rep.Lost, rep.Errors)
	}
	if rep.Completed != rep.Jobs {
		t.Errorf("completed %d of %d jobs", rep.Completed, rep.Jobs)
	}
	if got := rep.Verdicts["violated"]; got != rep.Completed {
		t.Errorf("verdicts disagree: %v", rep.Verdicts)
	}
	if out.postWarmupRuns != 0 {
		t.Errorf("%d engine runs after warm-up, want 0 (fleet-wide singleflight + shared store)", out.postWarmupRuns)
	}
	if rep.Cached < (rep.Completed*9)/10 {
		t.Errorf("only %d/%d submissions served from cache", rep.Cached, rep.Completed)
	}
	// Admission fairness: consistent hashing spreads the keys, so every
	// replica (including the restarted one) carries a real share.
	for node, n := range out.perReplica {
		if n < int64(rep.Jobs/20) {
			t.Errorf("replica %s served %d requests, want >= %d (unfair routing)", node, n, rep.Jobs/20)
		}
	}
	if out.stats.Fleet.ReplicasSeen != 3 {
		t.Errorf("final stats reached %d replicas, want 3", out.stats.Fleet.ReplicasSeen)
	}
	t.Logf("soak: qps=%.0f p50=%.1fms p99=%.1fms cached=%d resubmits=%d failovers=%d",
		rep.QPS, rep.P50MS, rep.P99MS, rep.Cached, rep.Resubmits, out.stats.Router.Failovers)
}
