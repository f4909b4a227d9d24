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

// Caps returns the decisiveness caveats of a configuration: the bounded
// domain makes every "holds" advisory, artifact relations are always
// ignored, and bitstate hashing adds lossiness.
func (o Options) Caps() core.Capabilities {
	return core.Capabilities{
		BoundedHolds: true,
		IgnoresSets:  true,
		Lossy:        o.Bitstate,
	}
}

// name is the engine name of a configuration.
func (o Options) name() string {
	if o.Bitstate {
		return BitstateEngineName
	}
	return EngineName
}

// Engine adapts the bounded baseline to the shared core.Engine
// interface, so the benchmark suite, the portfolio racer and the
// cross-check tests dispatch both engines uniformly.
func Engine(opts Options) core.Engine {
	return core.NewEngine(opts.name(), opts.Caps(), func(ctx context.Context, sys *has.System, prop *core.Property) (*core.Result, error) {
		return Verify(ctx, sys, prop, opts)
	})
}
