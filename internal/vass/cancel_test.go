package vass

import (
	"context"
	"errors"
	"testing"
	"time"
)

// unboundedLoop is an infinite search, its acceleration hidden: the
// single increment transition keeps producing strictly larger
// configurations, so Explore can only return via its budget or context.
func unboundedLoop() System {
	return noAccel{&Vec{
		Dim:   1,
		Init:  VConfig{Loc: 0, C: []Count{0}},
		Trans: []VTrans{{From: 0, To: 0, Delta: []Count{1}}},
	}}
}

func TestExploreCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := Explore(unboundedLoop(), Options{Ctx: ctx})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Explore did not return promptly after cancellation")
	}
}

func TestExplorePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tree, err := Explore(unboundedLoop(), Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if tree == nil {
		t.Fatal("the partial tree must still be returned on cancellation")
	}
}

func TestExploreDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Explore(unboundedLoop(), Options{Ctx: ctx})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("got %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Explore did not return promptly after the deadline")
	}
}
