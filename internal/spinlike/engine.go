package spinlike

import (
	"context"

	"verifas/internal/core"
	"verifas/internal/has"
)

// Engine names of the baseline's configurations.
const (
	// EngineName is the exact bounded baseline.
	EngineName = "spinlike"
	// BitstateEngineName is the bitstate-hashing variant (lossy).
	BitstateEngineName = "spinlike-bitstate"
)

// name is the engine name of a configuration.
func (o Options) name() string {
	if o.Bitstate {
		return BitstateEngineName
	}
	return EngineName
}

// Engine adapts the bounded baseline to the shared core.Engine
// interface, so the benchmark suite, the service and the cross-check
// tests dispatch both engines uniformly.
func Engine(opts Options) core.Engine {
	return core.NewEngine(opts.name(), func(ctx context.Context, sys *has.System, prop *core.Property) (*core.Result, error) {
		return Verify(ctx, sys, prop, opts)
	})
}
