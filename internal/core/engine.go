package core

import (
	"context"
	"strings"

	"verifas/internal/has"
)

// Engine is a named verifier: the unit the engine table, the benchmark
// dispatch and the service operate on.
type Engine interface {
	// Name identifies the engine configuration (e.g. "verifas",
	// "spinlike", "verifas-noset").
	Name() string
	// Verify checks one property of a validated system under the
	// engine's baked-in options, honouring the Verify cancellation
	// contract (Canceled → nil Result + ctx.Err(); deadline/state
	// budget → VerdictTimedOut; memory budget → VerdictBudget).
	Verify(ctx context.Context, sys *has.System, prop *Property) (*Result, error)
}

// VerifierFunc adapts a bare verification function to the Engine
// interface with an anonymous name. It keeps closure-based engines —
// test stubs, wrappers around BuiltinEngine — working without a struct
// definition. Wrap with NewEngine to attach a real name.
type VerifierFunc func(ctx context.Context, sys *has.System, prop *Property) (*Result, error)

// Name implements Engine.
func (f VerifierFunc) Name() string { return "func" }

// Verify implements Engine.
func (f VerifierFunc) Verify(ctx context.Context, sys *has.System, prop *Property) (*Result, error) {
	return f(ctx, sys, prop)
}

// namedEngine attaches a name to a verification func.
type namedEngine struct {
	name string
	run  VerifierFunc
}

func (e *namedEngine) Name() string { return e.name }
func (e *namedEngine) Verify(ctx context.Context, sys *has.System, prop *Property) (*Result, error) {
	return e.run(ctx, sys, prop)
}

// NewEngine builds an Engine from a name and a verification function.
func NewEngine(name string, run VerifierFunc) Engine {
	return &namedEngine{name: name, run: run}
}

// Verifas binds a fixed Options configuration into an Engine running
// Verify, named after the configuration (EngineName).
func Verifas(opts Options) Engine {
	return NewEngine(EngineName(opts), func(ctx context.Context, sys *has.System, prop *Property) (*Result, error) {
		return Verify(ctx, sys, prop, opts)
	})
}

// EngineName is the engine name of a configuration: "verifas"
// for the full configuration, with "-noset", "-nosp", "-nosa", "-nodss",
// "-norr" suffixes for each disabled optimization. Budget fields and
// observers do not contribute.
func EngineName(opts Options) string {
	var sb strings.Builder
	sb.WriteString("verifas")
	if opts.IgnoreSets {
		sb.WriteString("-noset")
	}
	if opts.NoStatePruning {
		sb.WriteString("-nosp")
	}
	if opts.NoStaticAnalysis {
		sb.WriteString("-nosa")
	}
	if opts.NoIndexes {
		sb.WriteString("-nodss")
	}
	if opts.SkipRepeatedReachability {
		sb.WriteString("-norr")
	}
	return sb.String()
}
