package benchmark

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/engines"
)

// tallyRun builds a synthetic portfolio Run from per-engine outcomes.
func tallyRun(name string, err error, outcomes ...core.EngineOutcome) Run {
	r := Run{
		Spec:     &Spec{Name: name},
		Template: "t",
		Verifier: VPortfolio,
		Time:     10 * time.Millisecond,
		Err:      err,
	}
	if err == nil {
		r.Portfolio = &core.PortfolioStats{Decisive: true, Engines: outcomes}
		for _, o := range outcomes {
			if o.Winner {
				r.Portfolio.Winner = o.Engine
			}
		}
	}
	return r
}

func TestTallyPortfolio(t *testing.T) {
	runs := []Run{
		tallyRun("s1", nil,
			core.EngineOutcome{Engine: "verifas", Verdict: core.VerdictHolds, Decisive: true, Winner: true},
			core.EngineOutcome{Engine: "spinlike", Canceled: true},
		),
		tallyRun("s2", nil,
			core.EngineOutcome{Engine: "verifas", Verdict: core.VerdictTimedOut},
			core.EngineOutcome{Engine: "spinlike", Verdict: core.VerdictViolated, Decisive: true, Winner: true},
		),
		tallyRun("s3", nil,
			core.EngineOutcome{Engine: "verifas", Verdict: core.VerdictHolds, Decisive: true, Winner: true},
			core.EngineOutcome{Engine: "spinlike", Error: "boom"},
		),
		// Hard-errored runs contribute no outcomes.
		tallyRun("s4", errors.New("hard failure")),
	}
	tallies := TallyPortfolio(runs)
	if len(tallies) != 2 {
		t.Fatalf("tally count = %d, want 2", len(tallies))
	}
	// Sorted by wins descending: verifas (2) before spinlike (1).
	v, s := tallies[0], tallies[1]
	if v.Engine != "verifas" || s.Engine != "spinlike" {
		t.Fatalf("tally order = %q, %q; want verifas, spinlike", v.Engine, s.Engine)
	}
	if v.Starts != 3 || v.Wins != 2 || v.Holds != 2 || v.TimedOut != 1 {
		t.Errorf("verifas tally = %+v, want starts=3 wins=2 holds=2 timed_out=1", v)
	}
	if s.Starts != 3 || s.Wins != 1 || s.Violated != 1 || s.Canceled != 1 || s.Errors != 1 {
		t.Errorf("spinlike tally = %+v, want starts=3 wins=1 violated=1 canceled=1 errors=1", s)
	}
}

func TestDisagreementsAndSummary(t *testing.T) {
	dis := tallyRun("bad", &core.DisagreementError{Engines: []core.EngineOutcome{
		{Engine: "a", Verdict: core.VerdictHolds, Decisive: true},
		{Engine: "b", Verdict: core.VerdictViolated, Decisive: true},
	}})
	ok := tallyRun("good", nil,
		core.EngineOutcome{Engine: "a", Verdict: core.VerdictHolds, Decisive: true, Winner: true},
		core.EngineOutcome{Engine: "b", Canceled: true},
	)
	runs := []Run{ok, dis, tallyRun("other-error", errors.New("compile failure"))}

	if got := Disagreements(runs); len(got) != 1 || got[0].Spec.Name != "bad" {
		t.Errorf("Disagreements = %d runs, want exactly the disagreement run", len(got))
	}
	b := NewPortfolioBench([]string{"a", "b"}, runs)
	if b.Runs != 3 || b.Decisive != 1 || b.Disagreements != 1 || b.Errored != 2 {
		t.Errorf("summary = %+v, want runs=3 decisive=1 disagreements=1 errored=2", b)
	}
	if b.AvgTimeMS <= 0 {
		t.Errorf("avg time = %v, want > 0 over the non-errored run", b.AvgTimeMS)
	}
	report := PortfolioReport(runs)
	if !strings.Contains(report, "ENGINE DISAGREEMENTS: 1") {
		t.Errorf("report does not flag the disagreement:\n%s", report)
	}
}

// TestWritePortfolioBenchJSON emits BENCH_portfolio.json when the
// BENCH_PORTFOLIO_JSON environment variable names an output path (make
// bench-quick sets it): a small-tier portfolio sweep with the default
// contender pair, per-engine win tallies, and the disagreement count.
// The test fails on any engine disagreement — the sweep doubles as a
// differential-testing gate.
func TestWritePortfolioBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_PORTFOLIO_JSON")
	if path == "" {
		t.Skip("BENCH_PORTFOLIO_JSON not set")
	}
	cfg := Config{
		Timeout:       10 * time.Second,
		MaxStates:     200_000,
		SpinMaxStates: 100_000,
		Seed:          1,
		Workers:       2,
	}
	real := RealSuite()
	if len(real) > 4 {
		real = real[:4]
	}
	suite := append(real, SyntheticSuite(2, cfg.Seed)...)
	runs := RunSuite(context.Background(), suite, VPortfolio, cfg)
	summary := NewPortfolioBench(append([]string(nil), engines.DefaultPortfolio...), runs)

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(summary); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %d runs, %d decisive, %d disagreements", path, summary.Runs, summary.Decisive, summary.Disagreements)
	if summary.Disagreements > 0 {
		t.Errorf("%d engine disagreement(s) in the portfolio sweep", summary.Disagreements)
	}
	if summary.Runs == 0 {
		t.Error("portfolio sweep produced no runs")
	}
}
