package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"verifas/internal/has"
)

// Portfolio errors.
var (
	// ErrNoEngines: VerifyPortfolio was called with an empty contender
	// list.
	ErrNoEngines = errors.New("portfolio has no engines")
	// ErrEngineDisagreement: two engines returned decisive verdicts that
	// contradict each other on the same (system, property). This is a
	// verifier bug by construction — decisive verdicts are exactly the
	// ones an engine stakes its soundness on — so it surfaces as a hard
	// error, never a silently merged result. The concrete error is a
	// *DisagreementError wrapping this sentinel.
	ErrEngineDisagreement = errors.New("engine disagreement on decisive verdict")
)

// DisagreementError reports contradictory decisive verdicts with the
// full per-engine evidence. errors.Is(err, ErrEngineDisagreement) holds.
type DisagreementError struct {
	// Engines holds every contender's outcome at detection time.
	Engines []EngineOutcome
}

func (e *DisagreementError) Error() string {
	var parts []string
	for _, o := range e.Engines {
		if o.Decisive {
			parts = append(parts, fmt.Sprintf("%s=%s", o.Engine, o.Verdict))
		}
	}
	return fmt.Sprintf("core: %v: %s", ErrEngineDisagreement, strings.Join(parts, " vs "))
}

func (e *DisagreementError) Unwrap() error { return ErrEngineDisagreement }

// EngineOutcome is one contender's result inside a portfolio run. It is
// both the payload of EngineDone observer events and an entry of
// PortfolioStats.Engines.
type EngineOutcome struct {
	// Engine is the contender's Name().
	Engine string `json:"engine"`
	// Caps are the contender's declared caveats (they decide
	// decisiveness).
	Caps Capabilities `json:"caps"`
	// Verdict is the engine's own verdict; VerdictUnknown when the
	// engine was canceled or errored before finishing.
	Verdict Verdict `json:"verdict,omitempty"`
	// Decisive reports whether this verdict settled the race under the
	// decisiveness rules (Capabilities.Decisive).
	Decisive bool `json:"decisive,omitempty"`
	// Winner marks the engine whose result the portfolio returned.
	Winner bool `json:"winner,omitempty"`
	// Canceled marks losers stopped early after a decisive verdict.
	Canceled bool `json:"canceled,omitempty"`
	// Error is the engine's hard error, if any ("" otherwise).
	Error string `json:"error,omitempty"`
	// Elapsed is the engine's own wall-clock time until completion or
	// cancellation.
	Elapsed time.Duration `json:"elapsed_ns"`
	// States is the engine's total states explored (0 if unavailable).
	States int `json:"states,omitempty"`
}

// PortfolioStats summarizes a portfolio run; it rides on the merged
// Result as Result.Portfolio.
type PortfolioStats struct {
	// Winner is the name of the engine whose result was returned ("" if
	// no engine produced a decisive verdict and the merged verdict is
	// advisory).
	Winner string `json:"winner,omitempty"`
	// Decisive reports whether the merged verdict is decisive under the
	// portfolio's decisiveness rules (false = best-effort advisory pick,
	// e.g. every engine timed out or only a bounded "holds" arrived).
	Decisive bool `json:"decisive"`
	// Mismatch reports the abstraction-mismatch condition: the system
	// declares artifact relations and the portfolio mixed set-modelling
	// with set-ignoring engines, so the latter's verdicts were demoted
	// to advisory.
	Mismatch bool `json:"abstraction_mismatch,omitempty"`
	// Elapsed is the whole portfolio's wall-clock time.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Engines lists every contender's outcome in tie-break (launch)
	// order.
	Engines []EngineOutcome `json:"engines"`
}

// PortfolioObserver is the optional observer extension receiving
// portfolio lifecycle events next to the usual phase/progress/verdict
// stream: EngineStart when a contender launches, EngineDone when it
// completes, errors out, or is canceled. Observers that do not implement
// it simply miss these events; MultiObserver forwards them to the
// members that do.
type PortfolioObserver interface {
	EngineStart(engine string)
	EngineDone(EngineOutcome)
}

// PortfolioOptions configure VerifyPortfolio.
type PortfolioOptions struct {
	// Engines are the contenders, each already carrying its budget.
	// Order is the deterministic tie-break priority: when several
	// decisive verdicts are available simultaneously, the lowest index
	// wins. Duplicate names are rejected.
	Engines []Engine
	// Observer receives the portfolio-level event stream: EngineStart/
	// EngineDone (if it implements PortfolioObserver) plus one terminal
	// Verdict event for the merged result. The contenders themselves run
	// unobserved — their interleaved phase streams would violate the
	// sequential single-run Observer contract.
	Observer Observer
}

// VerifyPortfolio races the contenders on the same (system, property)
// and returns the first decisive verdict, canceling the losers via
// per-engine contexts (paper-style portfolio solving: VERIFAS and the
// Spin-like baseline have complementary performance profiles, so the
// portfolio's latency is the per-property minimum instead of a fixed
// engine's).
//
// Decisiveness: "violated" always settles the race (it carries a
// concrete witness); "holds" settles it only from an engine that is
// neither bounded nor lossy; timeouts and budget exhaustion never do.
// If the system declares artifact relations and the portfolio mixes
// set-ignoring with set-modelling engines, the set-ignoring engines'
// verdicts are demoted to advisory (they answer a question about a
// coarser system). Ties — several decisive verdicts observed in the
// same scheduling instant — break deterministically toward the lowest
// engine index.
//
// If two decisive verdicts contradict each other (possible only via a
// verifier bug), VerifyPortfolio returns a *DisagreementError wrapping
// ErrEngineDisagreement instead of a result. If no engine is decisive,
// the merged result is the best advisory outcome (a concrete verdict
// over budget exhaustion over timeout, lowest index first) with
// PortfolioStats.Decisive == false.
//
// The cancellation contract matches Verify: a canceled ctx yields a nil
// Result with ctx.Err() and all contender goroutines are reaped before
// return.
func VerifyPortfolio(ctx context.Context, sys *has.System, prop *Property, popts PortfolioOptions) (*Result, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	engines := popts.Engines
	if len(engines) == 0 {
		return nil, fmt.Errorf("core: %w", ErrNoEngines)
	}
	seen := make(map[string]bool, len(engines))
	for _, e := range engines {
		if seen[e.Name()] {
			return nil, fmt.Errorf("core: duplicate engine %q in portfolio", e.Name())
		}
		seen[e.Name()] = true
	}
	// Validate once up front so a bad property is one error, not N.
	if _, err := ValidateProperty(sys, prop); err != nil {
		return nil, err
	}
	mismatch := abstractionMismatch(sys, engines)

	n := len(engines)
	cancels := make([]context.CancelFunc, n)
	ctxs := make([]context.Context, n)
	for i := range engines {
		ctxs[i], cancels[i] = context.WithCancel(ctx)
	}
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	type done struct {
		idx     int
		res     *Result
		err     error
		elapsed time.Duration
	}
	ch := make(chan done, n) // buffered: no sender ever blocks, so goroutines always exit
	var wg sync.WaitGroup
	for i, eng := range engines {
		emitEngineStart(popts.Observer, eng.Name())
		wg.Add(1)
		go func(i int, eng Engine) {
			defer wg.Done()
			t0 := time.Now()
			res, err := eng.Verify(ctxs[i], sys, prop)
			ch <- done{idx: i, res: res, err: err, elapsed: time.Since(t0)}
		}(i, eng)
	}

	outcomes := make([]EngineOutcome, n)
	results := make([]*Result, n)
	completed := make([]bool, n)
	emitted := make([]bool, n)
	canceledByUs := make([]bool, n)
	var errs []error
	winner := -1

	record := func(d done) {
		o := &outcomes[d.idx]
		o.Engine = engines[d.idx].Name()
		o.Caps = engines[d.idx].Caps()
		o.Elapsed = d.elapsed
		switch {
		case d.err != nil:
			if canceledByUs[d.idx] && errors.Is(d.err, context.Canceled) {
				o.Canceled = true
			} else {
				o.Error = d.err.Error()
				errs = append(errs, fmt.Errorf("%s: %w", o.Engine, d.err))
			}
		case d.res != nil:
			results[d.idx] = d.res
			o.Verdict = d.res.Verdict
			o.Decisive = o.Caps.Decisive(d.res.Verdict, mismatch)
			o.States = d.res.Stats.StatesExplored()
		}
		completed[d.idx] = true
	}

	for received := 0; received < n; {
		d := <-ch
		record(d)
		received++
		// Drain completions already queued so that ties — engines
		// finishing within the same scheduling instant — break by engine
		// index, not by channel arrival order.
		for drained := true; drained && received < n; {
			select {
			case d2 := <-ch:
				record(d2)
				received++
			default:
				drained = false
			}
		}
		if winner == -1 {
			for i := 0; i < n; i++ {
				if completed[i] && outcomes[i].Decisive {
					winner = i
					break
				}
			}
			if winner >= 0 {
				outcomes[winner].Winner = true
				for i := range engines {
					if !completed[i] {
						canceledByUs[i] = true
						cancels[i]()
					}
				}
			}
		}
		// Emit the batch's EngineDone events after the winner decision so
		// the Winner flag is correct at emit time.
		for i := 0; i < n; i++ {
			if completed[i] && !emitted[i] {
				emitted[i] = true
				emitEngineDone(popts.Observer, outcomes[i])
			}
		}
	}
	wg.Wait()

	// Parent cancellation follows the Verify contract: nil result.
	if err := ctx.Err(); err == context.Canceled {
		return nil, err
	}

	// Differential cross-check: contradictory decisive verdicts are a
	// hard error, never a silent merge.
	var sawHolds, sawViolated bool
	for _, o := range outcomes {
		if !o.Decisive {
			continue
		}
		switch o.Verdict {
		case VerdictHolds:
			sawHolds = true
		case VerdictViolated:
			sawViolated = true
		}
	}
	if sawHolds && sawViolated {
		return nil, &DisagreementError{Engines: outcomes}
	}

	pick := winner
	if pick == -1 {
		// No decisive verdict: best advisory outcome, lowest index first.
		best := -1
		bestRank := 0
		for i, o := range outcomes {
			if results[i] == nil {
				continue
			}
			r := advisoryRank(o.Verdict)
			if best == -1 || r < bestRank {
				best, bestRank = i, r
			}
		}
		pick = best
	}
	if pick == -1 {
		// Every engine failed hard.
		return nil, fmt.Errorf("core: all portfolio engines failed: %w", errors.Join(errs...))
	}

	merged := results[pick]
	merged.Portfolio = &PortfolioStats{
		Winner:   winnerName(outcomes, winner),
		Decisive: winner >= 0,
		Mismatch: mismatch,
		Elapsed:  time.Since(start),
		Engines:  outcomes,
	}
	if popts.Observer != nil {
		ev := VerdictEvent{Verdict: merged.Verdict, Stats: merged.Stats}
		if merged.Violation != nil {
			ev.ViolationKind = merged.Violation.Kind
		}
		popts.Observer.Verdict(ev)
	}
	return merged, nil
}

// advisoryRank orders non-decisive outcomes for the fallback pick: a
// concrete (if caveated) verdict beats budget exhaustion beats a
// timeout.
func advisoryRank(v Verdict) int {
	switch v {
	case VerdictHolds, VerdictViolated:
		return 0
	case VerdictBudget:
		return 1
	case VerdictTimedOut:
		return 2
	default:
		return 3
	}
}

func winnerName(outcomes []EngineOutcome, winner int) string {
	if winner < 0 {
		return ""
	}
	return outcomes[winner].Engine
}

// abstractionMismatch reports whether the portfolio mixes set-ignoring
// and set-modelling engines on a system that declares artifact
// relations (the condition under which set-ignoring engines answer a
// question about a different system).
func abstractionMismatch(sys *has.System, engines []Engine) bool {
	if !usesArtifactRelations(sys) {
		return false
	}
	var ignores, models bool
	for _, e := range engines {
		if e.Caps().IgnoresSets {
			ignores = true
		} else {
			models = true
		}
	}
	return ignores && models
}

// usesArtifactRelations reports whether any task declares an artifact
// relation (set variable).
func usesArtifactRelations(sys *has.System) bool {
	for _, t := range sys.Tasks() {
		if len(t.Relations) > 0 {
			return true
		}
	}
	return false
}

// PortfolioEngine bundles contenders into a single Engine racing them on
// every Verify call, so engine-generic dispatch (the benchmark suite,
// the service worker pool) treats a portfolio exactly like a single
// engine. The observer receives the portfolio-level stream for each run.
// The capabilities are the conjunction of the contenders' caveats: the
// portfolio's decisive verdicts are only as caveated as its least
// caveated member.
func PortfolioEngine(contenders []Engine, observer Observer) Engine {
	names := make([]string, len(contenders))
	caps := Capabilities{BoundedHolds: true, Lossy: true, IgnoresSets: true}
	for i, e := range contenders {
		names[i] = e.Name()
		c := e.Caps()
		caps.BoundedHolds = caps.BoundedHolds && c.BoundedHolds
		caps.Lossy = caps.Lossy && c.Lossy
		caps.IgnoresSets = caps.IgnoresSets && c.IgnoresSets
	}
	name := "portfolio(" + strings.Join(names, "+") + ")"
	return NewEngine(name, caps, func(ctx context.Context, sys *has.System, prop *Property) (*Result, error) {
		return VerifyPortfolio(ctx, sys, prop, PortfolioOptions{
			Engines:  contenders,
			Observer: observer,
		})
	})
}

// emitEngineStart forwards an EngineStart event to observers that
// implement PortfolioObserver.
func emitEngineStart(o Observer, engine string) {
	if po, ok := o.(PortfolioObserver); ok {
		po.EngineStart(engine)
	}
}

// emitEngineDone forwards an EngineDone event to observers that
// implement PortfolioObserver.
func emitEngineDone(o Observer, out EngineOutcome) {
	if po, ok := o.(PortfolioObserver); ok {
		po.EngineDone(out)
	}
}
