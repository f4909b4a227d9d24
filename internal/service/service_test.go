package service_test

import (
	"context"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/engines"
	"verifas/internal/has"
	"verifas/internal/obs"
	"verifas/internal/service"
	"verifas/internal/service/client"
)

// loadSpec returns the order-fulfillment testdata spec source.
func loadSpec(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../../testdata/orderfulfillment.has")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// newTestServer wires a service into an httptest server and returns the
// client. Teardown: HTTP listener first, then the service drain.
func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *client.Client) {
	t.Helper()
	svc := service.NewServer(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	cl := client.New(ts.URL)
	cl.HTTP = ts.Client()
	return svc, cl
}

// TestEndToEnd drives the whole loop over HTTP: submit, stream the event
// sequence, fetch the verdict, resubmit for a cache hit, and coalesce
// concurrent identical submissions onto one engine run. The injected
// engine is the real dispatch wrapped with a run counter, plus a gate
// that parks runs of the coalescing test's property so the concurrent
// submissions deterministically find the first one still in flight.
func TestEndToEnd(t *testing.T) {
	spec := loadSpec(t)
	var runs atomic.Int64
	gated := make(chan struct{})  // closed to release gated runs
	parked := make(chan struct{}) // signals a gated run reached the engine
	cfg := service.Config{Workers: 2}
	cfg.Engine = func(o service.EngineOptions, observer core.Observer) (core.Engine, error) {
		eng, err := service.BuiltinEngine(o, observer)
		if err != nil {
			return nil, err
		}
		return core.VerifierFunc(func(ctx context.Context, sys *has.System, prop *core.Property) (*core.Result, error) {
			runs.Add(1)
			if prop.Name == "credit_close_decided" {
				parked <- struct{}{}
				select {
				case <-gated:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return eng.Verify(ctx, sys, prop)
		}), nil
	}
	svc, cl := newTestServer(t, cfg)
	ctx := context.Background()

	// ---- Submit.
	st, err := cl.Submit(ctx, &service.SubmitRequest{
		Spec:     spec,
		Property: "ship_only_in_stock",
		Options:  &service.RequestOptions{ProgressStride: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached {
		t.Fatal("first submission reported a cache hit")
	}
	if st.System != "OrderFulfillment" || st.Property != "ship_only_in_stock" {
		t.Fatalf("status identifies %s/%s", st.System, st.Property)
	}

	// ---- Stream: well-formed phase/progress/verdict sequence.
	var types []string
	var phases []core.Phase
	var verdict *core.VerdictEvent
	if err := cl.Stream(ctx, st.ID, func(ev service.StreamEvent) error {
		types = append(types, ev.Type)
		if ev.Type == obs.EventPhaseStart {
			phases = append(phases, ev.Phase)
		}
		if ev.Type == obs.EventVerdict {
			verdict = ev.Verdict
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) == 0 || types[len(types)-1] != obs.EventVerdict {
		t.Fatalf("stream = %v, want terminal verdict", types)
	}
	if types[0] != obs.EventPhaseStart || phases[0] != core.PhaseCompile {
		t.Fatalf("stream opens with %v/%v, want phase-start compile", types[0], phases)
	}
	wantPhases := []core.Phase{core.PhaseCompile, core.PhaseStatic, core.PhaseReach}
	for i, p := range wantPhases {
		if i >= len(phases) || phases[i] != p {
			t.Fatalf("phase order = %v, want prefix %v", phases, wantPhases)
		}
	}
	progress := 0
	depth := 0
	for _, ty := range types {
		switch ty {
		case obs.EventPhaseStart:
			depth++
		case obs.EventPhaseEnd:
			depth--
		case obs.EventProgress:
			if depth != 1 {
				t.Fatal("progress event outside a phase bracket")
			}
			progress++
		}
		if depth < 0 || depth > 1 {
			t.Fatalf("phase brackets nest (depth %d) in %v", depth, types)
		}
	}
	if progress == 0 {
		t.Error("no progress events with progress_stride=1")
	}
	if verdict == nil || verdict.Verdict != core.VerdictHolds {
		t.Fatalf("stream verdict = %+v, want holds", verdict)
	}

	// ---- Result.
	res, err := cl.Result(ctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != service.StateDone || res.Verdict != "holds" || res.Stats == nil {
		t.Fatalf("result = %+v", res)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("engine ran %d times, want 1", got)
	}

	// ---- Identical resubmission: cache hit, no engine run.
	st2, err := cl.Submit(ctx, &service.SubmitRequest{
		Spec:     spec,
		Property: "ship_only_in_stock",
		Options:  &service.RequestOptions{ProgressStride: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != service.StateDone {
		t.Fatalf("resubmission = %+v, want cached done", st2)
	}
	if st2.Key != st.Key {
		t.Fatalf("cache keys differ: %s vs %s", st2.Key, st.Key)
	}
	res2, err := cl.Result(ctx, st2.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != "holds" || !res2.Cached {
		t.Fatalf("cached result = %+v", res2)
	}
	// The cached job's stream is a single synthesized verdict record.
	var cachedTypes []string
	sawCachedMark := false
	if err := cl.Stream(ctx, st2.ID, func(ev service.StreamEvent) error {
		cachedTypes = append(cachedTypes, ev.Type)
		sawCachedMark = sawCachedMark || ev.Cached
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(cachedTypes) != 1 || cachedTypes[0] != obs.EventVerdict || !sawCachedMark {
		t.Fatalf("cached stream = %v (cached mark %v), want one flagged verdict", cachedTypes, sawCachedMark)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("engine ran %d times after cache hit, want 1", got)
	}

	// ---- Concurrent identical submissions coalesce (singleflight).
	// A different property misses the cache; its run parks at the gate so
	// the follow-up submissions must find it in flight and attach.
	req := &service.SubmitRequest{Spec: spec, Property: "credit_close_decided"}
	leader, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	<-parked // the leader's run is inside the engine now
	const followers = 3
	statuses := make([]*service.JobStatus, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := cl.Submit(ctx, req)
			if err != nil {
				t.Error(err)
				return
			}
			statuses[i] = s
		}(i)
	}
	wg.Wait()
	close(gated) // release the shared run
	for _, s := range append(statuses, leader) {
		if s == nil {
			t.Fatal("missing status")
		}
		r, err := cl.Result(ctx, s.ID, true)
		if err != nil {
			t.Fatal(err)
		}
		if r.State != service.StateDone || r.Verdict != "holds" {
			t.Fatalf("coalesced job %s = %+v", s.ID, r)
		}
		if s.ID != leader.ID && (!r.Coalesced || r.Run != leader.ID) {
			t.Fatalf("follower %s not coalesced onto %s: %+v", s.ID, leader.ID, r)
		}
	}
	if got := runs.Load(); got != 2 { // 1 first property + 1 coalesced group
		t.Fatalf("engine ran %d times, want 2 (submissions must coalesce)", got)
	}
	snap := svc.Metrics().Snapshot()
	if snap.Coalesced != followers || snap.CacheHits != 1 {
		t.Errorf("metrics = %+v, want coalesced = %d, cache_hits = 1", snap, followers)
	}
}

// blockingConfig injects an engine that parks until release (or ctx
// cancellation), for shutdown/cancel/admission tests.
func blockingConfig(started chan<- string, release <-chan struct{}) service.Config {
	return service.Config{
		Workers:    2,
		QueueDepth: 2,
		Engine: func(o service.EngineOptions, observer core.Observer) (core.Engine, error) {
			return core.VerifierFunc(func(ctx context.Context, sys *has.System, prop *core.Property) (*core.Result, error) {
				if started != nil {
					started <- prop.Name
				}
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-release:
				}
				if observer != nil {
					observer.Verdict(core.VerdictEvent{Verdict: core.VerdictHolds})
				}
				return &core.Result{Verdict: core.VerdictHolds}, nil
			}), nil
		},
	}
}

// TestGracefulShutdown: Shutdown with jobs in flight cancels them via
// context, drains the queue, rejects new submissions with 503, and leaks
// no goroutines.
func TestGracefulShutdown(t *testing.T) {
	spec := loadSpec(t)
	beforeGoroutines := runtime.NumGoroutine()

	started := make(chan string, 4)
	release := make(chan struct{})
	defer close(release)
	cfg := blockingConfig(started, release)
	cfg.Workers = 1
	cfg.QueueDepth = 2

	svc := service.NewServer(cfg)
	ts := httptest.NewServer(svc.Handler())
	cl := client.New(ts.URL)
	cl.HTTP = ts.Client()
	ctx := context.Background()

	// One running job (distinct keys via max_states so nothing coalesces)
	// and one queued behind the single worker.
	submit := func(ms int) *service.JobStatus {
		st, err := cl.Submit(ctx, &service.SubmitRequest{
			Spec:     spec,
			Property: "ship_only_in_stock",
			Options:  &service.RequestOptions{MaxStates: ms},
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	running := submit(1001)
	queued := submit(1002)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("no job reached the engine")
	}

	sdCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(sdCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// In-flight and queued jobs were canceled, not completed.
	for _, st := range []*service.JobStatus{running, queued} {
		res, err := cl.Result(ctx, st.ID, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.State != service.StateCanceled {
			t.Errorf("job %s after shutdown = %s, want canceled", st.ID, res.State)
		}
	}

	// New submissions are rejected with 503 + structured body.
	_, err := cl.Submit(ctx, &service.SubmitRequest{Spec: spec, Property: "ship_only_in_stock"})
	ae, ok := err.(*client.APIError)
	if !ok || ae.Status != 503 || ae.Code != "draining" {
		t.Fatalf("submit during drain = %v, want 503 draining", err)
	}

	// Health reports the drain.
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.OK || !h.Draining {
		t.Errorf("health during drain = %+v", h)
	}

	ts.Close()

	// No goroutine may outlive the drain (worker pool, run contexts,
	// streaming handlers).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= beforeGoroutines {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after shutdown\n%s",
				beforeGoroutines, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionControl: a full queue rejects with 429 + Retry-After.
func TestAdmissionControl(t *testing.T) {
	spec := loadSpec(t)
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	cfg := blockingConfig(started, release)
	cfg.Workers = 1
	cfg.QueueDepth = 1
	svc, cl := newTestServer(t, cfg)
	ctx := context.Background()

	submit := func(ms int) error {
		_, err := cl.Submit(ctx, &service.SubmitRequest{
			Spec:     spec,
			Property: "ship_only_in_stock",
			Options:  &service.RequestOptions{MaxStates: ms},
		})
		return err
	}
	if err := submit(1001); err != nil { // claimed by the worker
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("no job reached the engine")
	}
	if err := submit(1002); err != nil { // sits in the queue
		t.Fatal(err)
	}
	err := submit(1003) // overflow
	ae, ok := err.(*client.APIError)
	if !ok || ae.Status != 429 || ae.Code != "queue-full" {
		t.Fatalf("overflow submit = %v, want 429 queue-full", err)
	}
	if ae.RetryAfter <= 0 {
		t.Errorf("429 without Retry-After hint: %+v", ae)
	}
	if snap := svc.Metrics().Snapshot(); snap.RejectedFull != 1 {
		t.Errorf("rejected_queue_full = %d, want 1", snap.RejectedFull)
	}
}

// TestCancel: canceling the only job of a run cancels the engine;
// canceling one of two coalesced jobs leaves the other running.
func TestCancel(t *testing.T) {
	spec := loadSpec(t)
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	_, cl := newTestServer(t, blockingConfig(started, release))
	ctx := context.Background()

	// Solo cancel: engine context must be canceled.
	st, err := cl.Submit(ctx, &service.SubmitRequest{
		Spec: spec, Property: "ship_only_in_stock",
		Options: &service.RequestOptions{MaxStates: 2001},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Result(ctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != service.StateCanceled {
		t.Fatalf("canceled job state = %s", res.State)
	}
	// Its stream terminates with the "canceled" record.
	var last string
	if err := cl.Stream(ctx, st.ID, func(ev service.StreamEvent) error {
		last = ev.Type
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last != service.EventCanceled {
		t.Fatalf("canceled stream ends with %q, want canceled", last)
	}

	// Coalesced cancel: job A and B share one run; canceling A keeps the
	// run alive for B.
	reqB := &service.SubmitRequest{Spec: spec, Property: "ship_only_in_stock",
		Options: &service.RequestOptions{MaxStates: 2002}}
	a, err := cl.Submit(ctx, reqB)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	b, err := cl.Submit(ctx, reqB)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Coalesced {
		t.Fatalf("second identical submission not coalesced: %+v", b)
	}
	if _, err := cl.Cancel(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	release <- struct{}{} // let the shared run finish
	resB, err := cl.Result(ctx, b.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if resB.State != service.StateDone || resB.Verdict != "holds" {
		t.Fatalf("survivor after peer cancel = %+v", resB)
	}
	resA, err := cl.Result(ctx, a.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if resA.State != service.StateCanceled {
		t.Fatalf("canceled peer = %+v", resA)
	}
}

// TestWorkflowSubmission: a named workflow plus a property_src block.
func TestWorkflowSubmission(t *testing.T) {
	_, cl := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()
	res, err := cl.Verify(ctx, &service.SubmitRequest{
		Workflow: "OrderFulfillment",
		PropertySrc: `property ship_stocked of ProcessOrders {
			define stocked := instock == "Yes"
			formula G (open(ShipItem) -> stocked)
		}`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != service.StateDone || res.Verdict != "holds" {
		t.Fatalf("workflow job = %+v", res)
	}
	// The buggy variant violates the same property and carries a trace.
	res2, err := cl.Verify(ctx, &service.SubmitRequest{
		Workflow: "OrderFulfillmentBuggy",
		PropertySrc: `property ship_stocked of ProcessOrders {
			define stocked := instock == "Yes"
			formula G (open(ShipItem) -> stocked)
		}`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != "violated" || res2.Violation == nil || len(res2.Violation.Prefix) == 0 {
		t.Fatalf("buggy workflow job = %+v", res2)
	}
	for _, step := range res2.Violation.Prefix {
		if step.Service == "" {
			t.Fatalf("violation step without service atom: %+v", res2.Violation)
		}
	}
}

// TestSpinlikeEngine: the baseline engine dispatches through the same
// API and its options separate the cache key from the default engine's.
func TestSpinlikeEngine(t *testing.T) {
	spec := loadSpec(t)
	_, cl := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()
	stV, err := cl.Submit(ctx, &service.SubmitRequest{Spec: spec, Property: "ship_only_in_stock"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Verify(ctx, &service.SubmitRequest{
		Spec: spec, Property: "ship_only_in_stock",
		Options: &service.RequestOptions{Engine: "spinlike", MaxStates: 200000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("spinlike submission hit the verifas cache entry")
	}
	if res.Key == stV.Key {
		t.Fatal("engine choice does not contribute to the cache key")
	}
	if res.State != service.StateDone || res.Verdict != "holds" {
		t.Fatalf("spinlike job = %+v", res)
	}
	if res.Engine != "spinlike" {
		t.Fatalf("engine label = %q", res.Engine)
	}
}

// TestEveryEngineName: each registered engine name, the paper's
// ablations included, verifies through the daemon under its own key.
func TestEveryEngineName(t *testing.T) {
	_, cl := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()
	keys := map[string]string{}
	for _, name := range engines.Names() {
		req := buggyShipStocked()
		req.Options = &service.RequestOptions{Engine: name, MaxStates: 200000}
		res, err := cl.Verify(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.State != service.StateDone || res.Verdict == "" || res.Engine != name {
			t.Fatalf("%s: job = %+v", name, res)
		}
		if other, ok := keys[res.Key]; ok {
			t.Errorf("engines %s and %s share a cache key", other, name)
		}
		keys[res.Key] = name
	}
}

// TestCacheKeyCanonicalization: formatting differences and spelled-out
// defaults do not defeat the cache; semantic differences do.
func TestCacheKeyCanonicalization(t *testing.T) {
	spec := loadSpec(t)
	_, cl := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	base, err := cl.Verify(ctx, &service.SubmitRequest{Spec: spec, Property: "ship_only_in_stock"})
	if err != nil {
		t.Fatal(err)
	}

	// Comments, blank lines, and an unrelated extra property in the
	// source must not change the key.
	reformatted := "# reformatted copy\n" + strings.Replace(spec, "\n\n", "\n\n\n# noise\n", 1) +
		"\nproperty unrelated of ProcessOrders {\n  formula F close(TakeOrder)\n}\n"
	st, err := cl.Submit(ctx, &service.SubmitRequest{Spec: reformatted, Property: "ship_only_in_stock"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Key != base.Key || !st.Cached {
		t.Fatalf("reformatted spec missed the cache (keys %s vs %s)", st.Key, base.Key)
	}

	// Spelling out a default option equals omitting it.
	st2, err := cl.Submit(ctx, &service.SubmitRequest{
		Spec: spec, Property: "ship_only_in_stock",
		Options: &service.RequestOptions{Engine: "verifas"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatal("explicit default engine missed the cache")
	}

	// A semantic option change is a different key: an ablation is
	// selected by its engine name.
	st3, err := cl.Submit(ctx, &service.SubmitRequest{
		Spec: spec, Property: "ship_only_in_stock",
		Options: &service.RequestOptions{Engine: "verifas-nosp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Cached || st3.Key == base.Key {
		t.Fatal("engine verifas-nosp collided with the default-options key")
	}
}

// TestProgressStrideNotInKey: the progress stride only paces the event
// stream, so a job that differs from a finished one only in
// progress_stride is a cache hit, not a second engine run.
func TestProgressStrideNotInKey(t *testing.T) {
	spec := loadSpec(t)
	var runs atomic.Int64
	cfg := service.Config{Workers: 1}
	cfg.Engine = func(o service.EngineOptions, observer core.Observer) (core.Engine, error) {
		eng, err := service.BuiltinEngine(o, observer)
		if err != nil {
			return nil, err
		}
		return core.VerifierFunc(func(ctx context.Context, sys *has.System, prop *core.Property) (*core.Result, error) {
			runs.Add(1)
			return eng.Verify(ctx, sys, prop)
		}), nil
	}
	_, cl := newTestServer(t, cfg)
	ctx := context.Background()

	first, err := cl.Verify(ctx, &service.SubmitRequest{
		Spec: spec, Property: "ship_only_in_stock",
		Options: &service.RequestOptions{ProgressStride: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first submission reported a cache hit")
	}
	second, err := cl.Submit(ctx, &service.SubmitRequest{Spec: spec, Property: "ship_only_in_stock"})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Key != first.Key {
		t.Errorf("default-stride resubmission: cached=%v, key %s vs %s", second.Cached, second.Key, first.Key)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("%d engine runs, want 1", n)
	}
}
