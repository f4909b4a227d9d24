package benchmark

import (
	"context"
	"sync/atomic"
	"testing"

	"verifas/internal/core"
)

// cutContext is a context whose deadline passes at a chosen poll: from
// its at-th Err call onward it reports context.DeadlineExceeded (at 0
// never cuts). The search code polls Err and never selects on Done, so
// counting polls places a cut at an exact, repeatable point of a run.
type cutContext struct {
	context.Context
	at    int64
	polls atomic.Int64
}

func (c *cutContext) Err() error {
	if n := c.polls.Add(1); c.at > 0 && n >= c.at {
		return context.DeadlineExceeded
	}
	return c.Context.Err()
}

// TestCutSearchNeverHolds verifies real-suite items with no timeout,
// counts the context polls P of each uncut run, and re-runs every item
// with its deadline cut at polls spread over 1…P. A cut run may end
// "timed out", or "violated" on a path it found before the cut, but
// every decisive verdict must equal the uncut one: a search cut short
// never proves that a property holds.
func TestCutSearchNeverHolds(t *testing.T) {
	const cuts = 12
	cfg := DefaultConfig()
	cfg.Timeout = 0
	eng, err := cfg.Engine(VVerifas, nil)
	if err != nil {
		t.Fatal(err)
	}
	runs, wrong := 0, 0
	for si, s := range RealSuite() {
		if testing.Short() && si%3 != 0 {
			continue
		}
		for _, p := range Properties(s.Sys, cfg.Seed+int64(si)) {
			uncut := &cutContext{Context: context.Background()}
			want, err := eng.Verify(uncut, s.Sys, p)
			if err != nil {
				t.Fatalf("%s|%s: %v", s.Name, p.Name, err)
			}
			polls := uncut.polls.Load()
			for i := int64(1); i <= cuts; i++ {
				at := (polls*i + cuts - 1) / cuts
				res, err := eng.Verify(&cutContext{Context: context.Background(), at: at}, s.Sys, p)
				runs++
				if err != nil {
					t.Fatalf("%s|%s cut at poll %d of %d: %v", s.Name, p.Name, at, polls, err)
				}
				if res.Verdict != want.Verdict && res.Verdict != core.VerdictTimedOut {
					wrong++
					t.Errorf("%s|%s cut at poll %d of %d: %s, uncut %s", s.Name, p.Name, at, polls, res.Verdict, want.Verdict)
				}
			}
		}
	}
	t.Logf("%d cut runs, %d wrong decisive verdicts", runs, wrong)
}
