package core

import (
	"context"
	"strings"

	"verifas/internal/has"
)

// Verifier is the bare function signature shared by all engines: verify
// one property of a validated system. It survives as the payload type of
// VerifierFunc; engine-generic code (the benchmark suite, the service,
// the portfolio racer) dispatches through the Engine interface instead.
type Verifier func(ctx context.Context, sys *has.System, prop *Property) (*Result, error)

// Capabilities describe an engine's decisiveness caveats. They exist so
// portfolio mode (VerifyPortfolio) can decide which verdicts settle a
// race: a bounded or lossy "holds" must never beat an exact engine, and
// an engine verifying a coarser abstraction must not overrule one
// verifying the real system. The zero value means "exact": both verdicts
// are trustworthy as stated.
type Capabilities struct {
	// BoundedHolds marks engines whose "holds" verdict only covers the
	// state space up to an exploration bound (the spin-like baseline's
	// bounded fresh-value domain, or VERIFAS-noRR, which skips the
	// infinite-run module). Their "violated" verdicts remain witnesses;
	// their "holds" verdicts are advisory.
	BoundedHolds bool `json:"bounded_holds,omitempty"`
	// Lossy marks engines that may silently merge distinct states
	// (spinlike's bitstate hashing): "holds" may be wrong even within
	// the bound.
	Lossy bool `json:"lossy,omitempty"`
	// IgnoresSets marks engines that verify the set-free abstraction
	// (artifact relations dropped). On systems that declare artifact
	// relations, such an engine answers a question about a different
	// (coarser) system, so neither of its verdicts may overrule an
	// engine that models sets.
	IgnoresSets bool `json:"ignores_sets,omitempty"`
}

// Decisive reports whether a verdict from an engine with these
// capabilities settles a portfolio race. mismatch flags the
// abstraction-mismatch case: the system declares artifact relations and
// the portfolio mixes set-modelling and set-ignoring engines, so a
// set-ignoring engine's verdicts describe a different system and are
// advisory only. Otherwise "violated" is always decisive (it carries a
// witness), and "holds" is decisive unless the engine is bounded or
// lossy. Timeouts and budget exhaustion are never decisive.
func (c Capabilities) Decisive(v Verdict, mismatch bool) bool {
	if mismatch && c.IgnoresSets {
		return false
	}
	switch v {
	case VerdictViolated:
		// Even a bounded or lossy engine's "violated" carries a concrete
		// witness trace: collisions and bounds can only hide violations,
		// not invent them.
		return true
	case VerdictHolds:
		return !c.BoundedHolds && !c.Lossy
	default:
		return false
	}
}

// Engine is a named verifier with declared capabilities. It replaces the
// bare Verifier func type as the unit the registry, the benchmark
// dispatch, the service and portfolio mode operate on.
type Engine interface {
	// Name identifies the engine configuration (e.g. "verifas",
	// "spinlike", "verifas-noset").
	Name() string
	// Caps declares the engine's decisiveness caveats.
	Caps() Capabilities
	// Verify checks one property of a validated system under the
	// engine's baked-in options, honouring the Verify cancellation
	// contract (Canceled → nil Result + ctx.Err(); deadline/state
	// budget → VerdictTimedOut; memory budget → VerdictBudget).
	Verify(ctx context.Context, sys *has.System, prop *Property) (*Result, error)
}

// VerifierFunc adapts a bare verification function to the Engine
// interface with an anonymous name and exact (zero) capabilities. It
// keeps closure-based engines — test stubs, wrappers around
// BuiltinEngine — working without a struct definition. Wrap with
// NewEngine to attach a real name and caveats.
type VerifierFunc func(ctx context.Context, sys *has.System, prop *Property) (*Result, error)

// Name implements Engine.
func (f VerifierFunc) Name() string { return "func" }

// Caps implements Engine; a bare func declares no caveats.
func (f VerifierFunc) Caps() Capabilities { return Capabilities{} }

// Verify implements Engine.
func (f VerifierFunc) Verify(ctx context.Context, sys *has.System, prop *Property) (*Result, error) {
	return f(ctx, sys, prop)
}

// namedEngine attaches a name and capabilities to a verification func.
type namedEngine struct {
	name string
	caps Capabilities
	run  Verifier
}

func (e *namedEngine) Name() string       { return e.name }
func (e *namedEngine) Caps() Capabilities { return e.caps }
func (e *namedEngine) Verify(ctx context.Context, sys *has.System, prop *Property) (*Result, error) {
	return e.run(ctx, sys, prop)
}

// NewEngine builds an Engine from a name, capabilities and a
// verification function.
func NewEngine(name string, caps Capabilities, run Verifier) Engine {
	return &namedEngine{name: name, caps: caps, run: run}
}

// Verifas binds a fixed Options configuration into an Engine running
// Verify. The engine is named after the configuration (EngineName) and
// declares IgnoresSets for the NoSet variant and BoundedHolds for noRR,
// whose "holds" is not exhaustive: it skips the infinite-run module.
func Verifas(opts Options) Engine {
	return NewEngine(EngineName(opts), opts.caps(), func(ctx context.Context, sys *has.System, prop *Property) (*Result, error) {
		return Verify(ctx, sys, prop, opts)
	})
}

// caps derives the capability caveats of an Options configuration.
func (o Options) caps() Capabilities {
	return Capabilities{
		IgnoresSets:  o.IgnoreSets,
		BoundedHolds: o.SkipRepeatedReachability,
	}
}

// EngineName is the registry/service spelling of a configuration: the
// lower-cased Variant() ("verifas", "verifas-noset", "verifas-nosp",
// ...). Like Variant, budget fields and observers do not contribute.
func EngineName(opts Options) string {
	return strings.ToLower(opts.Variant())
}

// Variant returns the canonical name of the configuration, used as the
// table label in the evaluation harness: "VERIFAS" for the full
// configuration, with "-NoSet", "-noSP", "-noSA", "-noDSS", "-noRR"
// suffixes for each disabled optimization.
// Budget fields (MaxStates, Timeout) and observers do not contribute.
func (o Options) Variant() string {
	var sb strings.Builder
	sb.WriteString("VERIFAS")
	if o.IgnoreSets {
		sb.WriteString("-NoSet")
	}
	if o.NoStatePruning {
		sb.WriteString("-noSP")
	}
	if o.NoStaticAnalysis {
		sb.WriteString("-noSA")
	}
	if o.NoIndexes {
		sb.WriteString("-noDSS")
	}
	if o.SkipRepeatedReachability {
		sb.WriteString("-noRR")
	}
	return sb.String()
}
