package service_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/service"
)

// eightUntilsSrc is the property (p0 U q0) || … || (p7 U q7) of
// ProcessOrders, each p_i and q_i a condition. The GPVW tableau of its
// negation takes seconds to build, far longer than the deadlines below.
func eightUntilsSrc() string {
	var sb strings.Builder
	sb.WriteString("property eight_untils of ProcessOrders {\n")
	parts := make([]string, 8)
	for i := range parts {
		fmt.Fprintf(&sb, "define p%d := status == \"P%d\"\ndefine q%d := status == \"Q%d\"\n", i, i, i, i)
		parts[i] = fmt.Sprintf("(p%d U q%d)", i, i)
	}
	fmt.Fprintf(&sb, "formula %s\n}", strings.Join(parts, " || "))
	return sb.String()
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResolveHeapFlat: resolving a request keeps nothing alive once the
// request is done, so 10,000 resolves of one workflow request leave the
// live heap where it was.
func TestResolveHeapFlat(t *testing.T) {
	req := &service.SubmitRequest{
		Workflow: "OrderFulfillment",
		PropertySrc: `property ship_stocked of ProcessOrders {
			define stocked := instock == "Yes"
			formula G (open(ShipItem) -> stocked)
		}`,
	}
	resolve := func() {
		if _, err := service.RequestKey(req, service.KeyDefaults{}); err != nil {
			t.Fatal(err)
		}
	}
	resolve()
	before := liveHeap()
	for i := 0; i < 10_000; i++ {
		resolve()
	}
	if after := liveHeap(); after > before+1<<20 {
		t.Fatalf("live heap grew %d KiB over 10,000 resolves, want < 1 MiB", (after-before)>>10)
	}
}

// TestCancelFreesWorker: DELETE on a job whose property is still being
// translated ends the run, so the only worker is free for the next job.
func TestCancelFreesWorker(t *testing.T) {
	_, cl := newTestServer(t, service.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := cl.Submit(ctx, &service.SubmitRequest{Workflow: "OrderFulfillment", PropertySrc: eightUntilsSrc()})
	if err != nil {
		t.Fatal(err)
	}
	for st.State != service.StateRunning {
		time.Sleep(5 * time.Millisecond)
		if st, err = cl.Status(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	followCtx, followCancel := context.WithTimeout(ctx, 3*time.Second)
	defer followCancel()
	res, err := cl.Verify(followCtx, &service.SubmitRequest{
		Workflow: "OrderFulfillment",
		PropertySrc: `property ship_stocked of ProcessOrders {
			define stocked := instock == "Yes"
			formula G (open(ShipItem) -> stocked)
		}`,
	})
	if err != nil {
		t.Fatalf("follow-up job not finished within 3s of the cancel: %v", err)
	}
	if res.State != service.StateDone || res.Verdict != core.VerdictHolds.String() {
		t.Fatalf("follow-up job = %s/%s, want done/holds", res.State, res.Verdict)
	}
}

// TestTranslationTimeoutJob: the job's timeout_ms bounds the property
// translation too, so the job ends timed-out instead of occupying its
// worker until the translation finishes.
func TestTranslationTimeoutJob(t *testing.T) {
	_, cl := newTestServer(t, service.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	res, err := cl.Verify(ctx, &service.SubmitRequest{
		Workflow:    "OrderFulfillment",
		PropertySrc: eightUntilsSrc(),
		Options:     &service.RequestOptions{TimeoutMS: 1000},
	})
	if err != nil {
		t.Fatalf("job with timeout_ms=1000 not finished within 3s: %v", err)
	}
	if res.State != service.StateDone || res.Verdict != core.VerdictTimedOut.String() {
		t.Fatalf("job = %s/%s, want done/%s", res.State, res.Verdict, core.VerdictTimedOut)
	}
}
