package service_test

import (
	"context"
	"os"
	"sync/atomic"
	"testing"

	"verifas/internal/core"
	"verifas/internal/engines"
	"verifas/internal/has"
	"verifas/internal/service"
	"verifas/internal/service/client"
	"verifas/internal/store"
)

// cutContext layers a poll counter on a job's context. From its at-th
// Err call onward it reports context.DeadlineExceeded; with a pause
// channel it instead signals pause at that call and waits until the job
// context is done, so a DELETE lands at an exact point of the search.
// The search polls Err and never selects on Done, so the poll count
// places the cut (at 0 never cuts).
type cutContext struct {
	context.Context
	at    int64
	pause chan<- struct{}
	polls atomic.Int64
}

func (c *cutContext) Err() error {
	n := c.polls.Add(1)
	switch {
	case c.at == 0 || n < c.at:
		return c.Context.Err()
	case c.pause == nil:
		return context.DeadlineExceeded
	case n == c.at:
		select {
		case c.pause <- struct{}{}:
		case <-c.Context.Done():
		}
		<-c.Context.Done()
	}
	return c.Context.Err()
}

// cutEngine runs the real verifas engine, without a timeout of its own,
// under a cutContext made by newCtx on the job's context.
func cutEngine(newCtx func(context.Context) *cutContext) service.EngineFunc {
	return func(o service.EngineOptions, observer core.Observer) (core.Engine, error) {
		eng, err := engines.Build("verifas", core.Budget{MaxStates: o.MaxStates, Observer: observer})
		if err != nil {
			return nil, err
		}
		return core.VerifierFunc(func(ctx context.Context, sys *has.System, prop *core.Property) (*core.Result, error) {
			return eng.Verify(newCtx(ctx), sys, prop)
		}), nil
	}
}

// TestCutRunNeverStoredHolds verifies a property whose uncut verdict is
// an accepting cycle found by repeated reachability, with the job's
// deadline cut at polls spread over the whole run, and with a DELETE at
// the same points. A cut job may store "timed out", or "violated" on a
// path found before the cut; it must never store "holds". A deleted job
// ends canceled and stores nothing.
func TestCutRunNeverStoredHolds(t *testing.T) {
	src, err := os.ReadFile("../../testdata/rr-omega-dominated.has")
	if err != nil {
		t.Fatal(err)
	}
	req := &service.SubmitRequest{Spec: string(src), Property: "omega_dominated"}
	ctx := context.Background()

	// serve runs one job under the cut that newCtx makes, returning the
	// server's store and the job's status.
	serve := func(newCtx func(context.Context) *cutContext) (store.Store, *client.Client, service.JobStatus) {
		st := store.NewMemory(16)
		_, cl := newTestServer(t, service.Config{Workers: 1, Store: st, Engine: cutEngine(newCtx)})
		js, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return st, cl, *js
	}

	var uncut *cutContext
	st, cl, js := serve(func(job context.Context) *cutContext {
		uncut = &cutContext{Context: job}
		return uncut
	})
	res, err := cl.Result(ctx, js.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != "violated" || res.Violation == nil || res.Violation.Kind != "cycle" {
		t.Fatalf("uncut job = %+v, want a violated cycle", res)
	}
	if _, _, ok := st.Get(js.Key); !ok {
		t.Fatal("uncut result not stored")
	}
	polls := uncut.polls.Load()

	const cuts = 40
	for i := int64(1); i <= cuts; i++ {
		at := (polls*i + cuts - 1) / cuts

		st, cl, js := serve(func(job context.Context) *cutContext {
			return &cutContext{Context: job, at: at}
		})
		res, err := cl.Result(ctx, js.ID, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.State != service.StateDone {
			t.Fatalf("cut at poll %d of %d: job = %+v", at, polls, res)
		}
		stored, _, ok := st.Get(js.Key)
		if !ok {
			t.Fatalf("cut at poll %d of %d: no stored result", at, polls)
		}
		if stored.Verdict == core.VerdictHolds {
			t.Errorf("cut at poll %d of %d: stored holds, uncut violated", at, polls)
		}

		paused := make(chan struct{})
		st, cl, js = serve(func(job context.Context) *cutContext {
			return &cutContext{Context: job, at: at, pause: paused}
		})
		<-paused
		if _, err := cl.Cancel(ctx, js.ID); err != nil {
			t.Fatal(err)
		}
		res, err = cl.Result(ctx, js.ID, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.State != service.StateCanceled {
			t.Errorf("DELETE at poll %d of %d: job ended %s (%s), want canceled", at, polls, res.State, res.Verdict)
		}
		if r, _, ok := st.Get(js.Key); ok {
			t.Errorf("DELETE at poll %d of %d: stored %s", at, polls, r.Verdict)
		}
	}
}
