package core_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/has"
	"verifas/internal/ltl"
	"verifas/internal/workflows"
)

// stubEngine returns an Engine that waits delay (cancellably), then
// reports verdict v. A zero delay completes immediately.
func stubEngine(name string, caps core.Capabilities, delay time.Duration, v core.Verdict) core.Engine {
	return core.NewEngine(name, caps, func(ctx context.Context, sys *has.System, prop *core.Property) (*core.Result, error) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &core.Result{Verdict: v}, nil
	})
}

// blockingEngine returns an Engine that only ever ends by cancellation.
func blockingEngine(name string) core.Engine {
	return core.NewEngine(name, core.Capabilities{}, func(ctx context.Context, sys *has.System, prop *core.Property) (*core.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
}

// portfolioFixture is a valid (system, property) pair for stub races.
// OrderFulfillment declares artifact relations, which matters for the
// abstraction-mismatch test; stubs with identical IgnoresSets settings
// never trigger the mismatch condition.
func portfolioFixture(t *testing.T) (*has.System, *core.Property) {
	t.Helper()
	sys := workflows.OrderFulfillment(false)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return sys, &core.Property{Name: "stub", Task: "ProcessOrders", Formula: ltl.MustParse(`false`)}
}

func TestCapabilitiesDecisive(t *testing.T) {
	exact := core.Capabilities{}
	bounded := core.Capabilities{BoundedHolds: true}
	lossy := core.Capabilities{Lossy: true}
	coarse := core.Capabilities{IgnoresSets: true}
	cases := []struct {
		name     string
		caps     core.Capabilities
		v        core.Verdict
		mismatch bool
		want     bool
	}{
		{"exact holds", exact, core.VerdictHolds, false, true},
		{"exact violated", exact, core.VerdictViolated, false, true},
		{"bounded holds is advisory", bounded, core.VerdictHolds, false, false},
		{"bounded violated carries a witness", bounded, core.VerdictViolated, false, true},
		{"lossy holds is advisory", lossy, core.VerdictHolds, false, false},
		{"lossy violated carries a witness", lossy, core.VerdictViolated, false, true},
		{"timeout never decisive", exact, core.VerdictTimedOut, false, false},
		{"budget never decisive", exact, core.VerdictBudget, false, false},
		{"unknown never decisive", exact, core.VerdictUnknown, false, false},
		{"mismatch demotes coarse holds", coarse, core.VerdictHolds, true, false},
		{"mismatch demotes coarse violated", coarse, core.VerdictViolated, true, false},
		{"mismatch leaves exact engines decisive", exact, core.VerdictViolated, true, true},
		{"no mismatch: coarse holds decisive", coarse, core.VerdictHolds, false, true},
	}
	for _, c := range cases {
		if got := c.caps.Decisive(c.v, c.mismatch); got != c.want {
			t.Errorf("%s: Decisive(%v, mismatch=%v) = %v, want %v", c.name, c.v, c.mismatch, got, c.want)
		}
	}
}

// TestPortfolioFirstDecisiveWins: the fast decisive engine settles the
// race, the blocked loser is canceled, and the merged result attributes
// the win correctly.
func TestPortfolioFirstDecisiveWins(t *testing.T) {
	sys, prop := portfolioFixture(t)
	res, err := core.VerifyPortfolio(context.Background(), sys, prop, core.PortfolioOptions{
		Engines: []core.Engine{
			blockingEngine("loser"),
			stubEngine("fast", core.Capabilities{}, 0, core.VerdictViolated),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.VerdictViolated {
		t.Errorf("verdict = %v, want violated", res.Verdict)
	}
	p := res.Portfolio
	if p == nil {
		t.Fatal("merged result carries no portfolio stats")
	}
	if p.Winner != "fast" || !p.Decisive {
		t.Errorf("winner = %q decisive = %v, want fast/true", p.Winner, p.Decisive)
	}
	if len(p.Engines) != 2 {
		t.Fatalf("outcome count = %d, want 2", len(p.Engines))
	}
	// Outcomes are in launch (tie-break) order regardless of finish order.
	if p.Engines[0].Engine != "loser" || p.Engines[1].Engine != "fast" {
		t.Errorf("outcome order = %q, %q; want loser, fast", p.Engines[0].Engine, p.Engines[1].Engine)
	}
	if !p.Engines[0].Canceled {
		t.Error("loser not marked canceled")
	}
	if !p.Engines[1].Winner || !p.Engines[1].Decisive {
		t.Error("fast engine not marked as the decisive winner")
	}
}

// TestPortfolioLoserCancellationNoLeak: after many races in which one
// engine always loses and must be canceled, no goroutines accumulate.
// (Run under -race in CI; VerifyPortfolio reaps every contender before
// returning.)
func TestPortfolioLoserCancellationNoLeak(t *testing.T) {
	sys, prop := portfolioFixture(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		res, err := core.VerifyPortfolio(context.Background(), sys, prop, core.PortfolioOptions{
			Engines: []core.Engine{
				stubEngine("fast", core.Capabilities{}, 0, core.VerdictViolated),
				blockingEngine("loser"),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Portfolio.Winner != "fast" {
			t.Fatalf("run %d: winner = %q", i, res.Portfolio.Winner)
		}
	}
	// Allow the runtime to settle before comparing.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+3 {
		t.Errorf("goroutines grew from %d to %d after 100 portfolio runs (loser leak)", before, after)
	}
}

// TestPortfolioDisagreement: a deliberately miscompiled engine stub
// contradicts a correct one on a decisive verdict; the portfolio must
// fail hard instead of silently picking either.
func TestPortfolioDisagreement(t *testing.T) {
	sys, prop := portfolioFixture(t)
	_, err := core.VerifyPortfolio(context.Background(), sys, prop, core.PortfolioOptions{
		Engines: []core.Engine{
			stubEngine("good", core.Capabilities{}, 0, core.VerdictHolds),
			// The "miscompiled" engine: same exact capabilities, opposite
			// decisive verdict.
			stubEngine("miscompiled", core.Capabilities{}, 0, core.VerdictViolated),
		},
	})
	if !errors.Is(err, core.ErrEngineDisagreement) {
		t.Fatalf("error = %v, want ErrEngineDisagreement", err)
	}
	var de *core.DisagreementError
	if !errors.As(err, &de) {
		t.Fatalf("error %T does not unwrap to *DisagreementError", err)
	}
	decisive := 0
	for _, o := range de.Engines {
		if o.Decisive {
			decisive++
		}
	}
	if decisive != 2 {
		t.Errorf("disagreement evidence lists %d decisive outcomes, want 2", decisive)
	}
}

// TestPortfolioBoundedHoldsDoesNotWin: a bounded engine's instant
// "holds" must not settle the race; the slower exact engine's verdict
// does — and the two do not count as a disagreement, because the
// bounded "holds" was never decisive.
func TestPortfolioBoundedHoldsDoesNotWin(t *testing.T) {
	sys, prop := portfolioFixture(t)
	res, err := core.VerifyPortfolio(context.Background(), sys, prop, core.PortfolioOptions{
		Engines: []core.Engine{
			stubEngine("bounded", core.Capabilities{BoundedHolds: true}, 0, core.VerdictHolds),
			stubEngine("exact", core.Capabilities{}, 50*time.Millisecond, core.VerdictViolated),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.VerdictViolated || res.Portfolio.Winner != "exact" {
		t.Errorf("verdict = %v winner = %q, want violated/exact", res.Verdict, res.Portfolio.Winner)
	}
	if res.Portfolio.Engines[0].Decisive {
		t.Error("bounded holds marked decisive")
	}
}

// TestPortfolioAdvisoryFallback: with no decisive verdict the merged
// result is the best advisory outcome (budget exhaustion outranks a
// timeout) and the stats say so.
func TestPortfolioAdvisoryFallback(t *testing.T) {
	sys, prop := portfolioFixture(t)
	res, err := core.VerifyPortfolio(context.Background(), sys, prop, core.PortfolioOptions{
		Engines: []core.Engine{
			stubEngine("quick-timeout", core.Capabilities{}, 0, core.VerdictTimedOut),
			stubEngine("slow-budget", core.Capabilities{}, 30*time.Millisecond, core.VerdictBudget),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != core.VerdictBudget {
		t.Errorf("advisory pick = %v, want budget-exhausted over timed-out", res.Verdict)
	}
	if res.Portfolio.Decisive || res.Portfolio.Winner != "" {
		t.Errorf("advisory result claims decisive=%v winner=%q", res.Portfolio.Decisive, res.Portfolio.Winner)
	}
}

// TestPortfolioParentCancel: canceling the caller's context follows the
// Verify contract — nil result, ctx.Err(), all contenders reaped.
func TestPortfolioParentCancel(t *testing.T) {
	sys, prop := portfolioFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	res, err := core.VerifyPortfolio(ctx, sys, prop, core.PortfolioOptions{
		Engines: []core.Engine{blockingEngine("a"), blockingEngine("b")},
	})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("parent cancel: res = %v err = %v, want nil/context.Canceled", res, err)
	}
}

// TestPortfolioAbstractionMismatch: on a system with artifact relations,
// a set-ignoring engine's instant "holds" is demoted to advisory and the
// set-modelling engine's verdict wins.
func TestPortfolioAbstractionMismatch(t *testing.T) {
	sys, prop := portfolioFixture(t)
	res, err := core.VerifyPortfolio(context.Background(), sys, prop, core.PortfolioOptions{
		Engines: []core.Engine{
			stubEngine("coarse", core.Capabilities{IgnoresSets: true}, 0, core.VerdictHolds),
			stubEngine("exact", core.Capabilities{}, 50*time.Millisecond, core.VerdictViolated),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Portfolio.Mismatch {
		t.Error("abstraction mismatch not flagged")
	}
	if res.Verdict != core.VerdictViolated || res.Portfolio.Winner != "exact" {
		t.Errorf("verdict = %v winner = %q, want violated/exact (coarse holds demoted)", res.Verdict, res.Portfolio.Winner)
	}
}

func TestPortfolioInputValidation(t *testing.T) {
	sys, prop := portfolioFixture(t)
	if _, err := core.VerifyPortfolio(context.Background(), sys, prop, core.PortfolioOptions{}); !errors.Is(err, core.ErrNoEngines) {
		t.Errorf("empty portfolio error = %v, want ErrNoEngines", err)
	}
	_, err := core.VerifyPortfolio(context.Background(), sys, prop, core.PortfolioOptions{
		Engines: []core.Engine{
			stubEngine("dup", core.Capabilities{}, 0, core.VerdictHolds),
			stubEngine("dup", core.Capabilities{}, 0, core.VerdictHolds),
		},
	})
	if err == nil {
		t.Error("duplicate engine names accepted")
	}
}

// TestPortfolioEngineCaps: the bundled engine's capabilities are the
// conjunction of the contenders' caveats, and its name lists them.
func TestPortfolioEngineCaps(t *testing.T) {
	bounded := stubEngine("a", core.Capabilities{BoundedHolds: true, IgnoresSets: true}, 0, core.VerdictHolds)
	exact := stubEngine("b", core.Capabilities{}, 0, core.VerdictHolds)
	pe := core.PortfolioEngine([]core.Engine{bounded, exact}, nil)
	if pe.Name() != "portfolio(a+b)" {
		t.Errorf("name = %q, want portfolio(a+b)", pe.Name())
	}
	if pe.Caps() != (core.Capabilities{}) {
		t.Errorf("caps = %+v, want exact (least caveated member wins)", pe.Caps())
	}
	allCoarse := core.PortfolioEngine([]core.Engine{
		stubEngine("c", core.Capabilities{IgnoresSets: true}, 0, core.VerdictHolds),
		stubEngine("d", core.Capabilities{IgnoresSets: true, BoundedHolds: true}, 0, core.VerdictHolds),
	}, nil)
	if caps := allCoarse.Caps(); !caps.IgnoresSets || caps.BoundedHolds {
		t.Errorf("caps = %+v, want IgnoresSets only (shared caveat survives)", caps)
	}
}

// portfolioRecorder records the portfolio-level observer stream.
type portfolioRecorder struct {
	mu       sync.Mutex
	starts   []string
	dones    []core.EngineOutcome
	verdicts []core.VerdictEvent
}

func (r *portfolioRecorder) PhaseStart(core.Phase)                {}
func (r *portfolioRecorder) PhaseEnd(core.Phase, core.PhaseStats) {}
func (r *portfolioRecorder) Progress(core.ProgressEvent)          {}
func (r *portfolioRecorder) Verdict(e core.VerdictEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.verdicts = append(r.verdicts, e)
}
func (r *portfolioRecorder) EngineStart(engine string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts = append(r.starts, engine)
}
func (r *portfolioRecorder) EngineDone(o core.EngineOutcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dones = append(r.dones, o)
}

// TestPortfolioObserverEvents: the observer sees one EngineStart and one
// EngineDone per contender plus the terminal Verdict, with the Winner
// flag already settled on the Done records.
func TestPortfolioObserverEvents(t *testing.T) {
	sys, prop := portfolioFixture(t)
	rec := &portfolioRecorder{}
	res, err := core.VerifyPortfolio(context.Background(), sys, prop, core.PortfolioOptions{
		Engines: []core.Engine{
			stubEngine("fast", core.Capabilities{}, 0, core.VerdictViolated),
			blockingEngine("loser"),
		},
		Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.starts) != 2 {
		t.Errorf("EngineStart count = %d, want 2", len(rec.starts))
	}
	if len(rec.dones) != 2 {
		t.Fatalf("EngineDone count = %d, want 2", len(rec.dones))
	}
	winners := 0
	for _, o := range rec.dones {
		if o.Winner {
			winners++
			if o.Engine != "fast" {
				t.Errorf("winner flag on %q, want fast", o.Engine)
			}
		}
	}
	if winners != 1 {
		t.Errorf("winner flags = %d, want exactly 1", winners)
	}
	if len(rec.verdicts) != 1 || rec.verdicts[0].Verdict != res.Verdict {
		t.Errorf("terminal verdict events = %+v, want one matching %v", rec.verdicts, res.Verdict)
	}
}

// TestMultiObserverForwardsPortfolioEvents: MultiObserver forwards
// EngineStart/EngineDone to members that implement PortfolioObserver.
func TestMultiObserverForwardsPortfolioEvents(t *testing.T) {
	rec := &portfolioRecorder{}
	// Two live members force the fan-out path (a single member is
	// returned unwrapped); the plain recorder must not block forwarding
	// to the portfolio-aware one.
	plain := &portfolioRecorder{}
	m := core.MultiObserver(rec, plain)
	po, ok := m.(core.PortfolioObserver)
	if !ok {
		t.Fatal("MultiObserver result does not implement PortfolioObserver")
	}
	po.EngineStart("x")
	po.EngineDone(core.EngineOutcome{Engine: "x", Winner: true})
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.starts) != 1 || len(rec.dones) != 1 {
		t.Errorf("forwarded starts=%d dones=%d, want 1/1", len(rec.starts), len(rec.dones))
	}
}
