package spinlike

import (
	"context"
	"errors"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/ltl"
	"verifas/internal/workflows"
)

func TestVerifyPreCancelled(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	prop := &core.Property{Task: "ProcessOrders", Formula: ltl.MustParse(`F close(TakeOrder)`)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Verify(ctx, sys, prop, Options{FreshPerSort: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestVerifyCtxDeadlineReportsTimeout(t *testing.T) {
	sys := workflows.OrderFulfillment(false)
	prop := &core.Property{Task: "ProcessOrders", Formula: ltl.MustParse(`F close(TakeOrder)`)}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := Verify(ctx, sys, prop, Options{FreshPerSort: 2})
	if err != nil {
		t.Fatalf("an expired deadline is a timeout, not an error: %v", err)
	}
	if !res.TimedOut() {
		t.Error("expired context deadline must report TimedOut")
	}
}
