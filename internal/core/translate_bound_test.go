package core_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/engines"
	"verifas/internal/fol"
	"verifas/internal/ltl"
	"verifas/internal/workflows"
)

// eightUntils is (p0 U q0) || … || (p7 U q7) over ProcessOrders, each
// p_i and q_i a condition. The GPVW tableau of its negation takes
// seconds to build, far longer than the deadlines below.
func eightUntils() *core.Property {
	conds := map[string]fol.Formula{}
	parts := make([]string, 8)
	for i := range parts {
		conds[fmt.Sprintf("p%d", i)] = fol.MustParse(fmt.Sprintf(`status == "P%d"`, i))
		conds[fmt.Sprintf("q%d", i)] = fol.MustParse(fmt.Sprintf(`status == "Q%d"`, i))
		parts[i] = fmt.Sprintf("(p%d U q%d)", i, i)
	}
	return &core.Property{Name: "eight-untils", Task: "ProcessOrders", Conds: conds, Formula: ltl.MustParse(strings.Join(parts, " || "))}
}

// streamRecorder logs a run's events in stream order.
type streamRecorder struct{ events []string }

func (r *streamRecorder) PhaseStart(p core.Phase) { r.events = append(r.events, "start "+string(p)) }
func (r *streamRecorder) PhaseEnd(p core.Phase, _ core.PhaseStats) {
	r.events = append(r.events, "end "+string(p))
}
func (r *streamRecorder) Progress(e core.ProgressEvent) {
	r.events = append(r.events, "progress "+string(e.Phase))
}
func (r *streamRecorder) Verdict(e core.VerdictEvent) {
	r.events = append(r.events, "verdict "+e.Verdict.String())
}

// verifyWithin runs the named engine on eightUntils and fails the test,
// instead of hanging, if the run has not returned within 2 s.
func verifyWithin(t *testing.T, ctx context.Context, name string, b core.Budget) (*core.Result, error) {
	t.Helper()
	eng, err := engines.Build([]string{name}, b)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res *core.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := eng.Verify(ctx, workflows.OrderFulfillment(false), eightUntils())
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(2 * time.Second):
		t.Fatalf("%s still running after 2s", name)
		return nil, nil
	}
}

// TestTranslationBounded: both engines translate the property under the
// run's context, so the run's Timeout ends a long translation with a
// timed-out verdict and a cancel ends it with context.Canceled.
func TestTranslationBounded(t *testing.T) {
	for _, name := range []string{"verifas", "spinlike"} {
		t.Run(name+"/timeout", func(t *testing.T) {
			rec := &streamRecorder{}
			res, err := verifyWithin(t, context.Background(), name, core.Budget{Timeout: 300 * time.Millisecond, Observer: rec})
			if err != nil {
				t.Fatal(err)
			}
			if !res.TimedOut() || !res.Stats.TimedOut {
				t.Fatalf("verdict %v, want timed-out", res.Verdict)
			}
			want := []string{"start compile", "end compile", "verdict timed-out"}
			if !slices.Equal(rec.events, want) {
				t.Fatalf("event stream %q, want %q", rec.events, want)
			}
		})
		t.Run(name+"/cancel", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(100*time.Millisecond, cancel)
			rec := &streamRecorder{}
			if _, err := verifyWithin(t, ctx, name, core.Budget{Observer: rec}); !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}
			// Cancelled mid-translation: no search, and no verdict.
			if want := []string{"start compile", "end compile"}; !slices.Equal(rec.events, want) {
				t.Fatalf("event stream %q, want %q", rec.events, want)
			}
		})
	}
}
