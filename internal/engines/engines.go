// Package engines wires the built-in verification engines into a
// core.Registry. It exists above core and spinlike so that neither
// imports the other: core defines the registry and its own variants,
// spinlike registers the baseline, and every front end (the service,
// the benchmark harness, the CLIs) turns engine names into engines
// through Build, over the one registry assembled here.
package engines

import (
	"fmt"

	"verifas/internal/core"
	"verifas/internal/spinlike"
)

// DefaultPortfolio is the engine selection used when a caller asks for
// portfolio mode without naming contenders: the full VERIFAS
// configuration raced against the bounded Spin-like baseline — the
// paper's own comparison pair, with complementary performance profiles.
// Order is the deterministic tie-break priority (the exact engine
// first).
var DefaultPortfolio = []string{"verifas", "spinlike"}

// Default returns a fresh registry holding every built-in engine
// configuration: the VERIFAS core and its ablation variants
// ("verifas", "verifas-noset", "verifas-nosp", "verifas-nosa",
// "verifas-nodss", "verifas-norr") plus the bounded
// baseline ("spinlike", "spinlike-bitstate"). The registry is mutable;
// callers may add their own registrations on top.
func Default() *core.Registry {
	r := core.NewRegistry()
	core.RegisterVerifas(r)
	spinlike.Register(r)
	return r
}

// builtin is the catalogue Build and Names read; nothing registers into
// it after package initialization.
var builtin = Default()

// Names lists the built-in engine names in registration order.
func Names() []string { return builtin.Names() }

// Build turns engine names into one engine under budget b. One name
// gives that engine with b. Several names give a portfolio: the
// contenders are built with b minus its observer and raced by
// core.PortfolioEngine, first decisive verdict wins, list order is the
// tie-break priority, and b.Observer receives the portfolio-level
// stream. An unknown name wraps core.ErrUnknownVariant and lists the
// known ones; an empty list or a repeated name is an error too.
func Build(names []string, b core.Budget) (core.Engine, error) {
	switch len(names) {
	case 0:
		return nil, fmt.Errorf("engines: %w: no engine named (known: %v)", core.ErrUnknownVariant, Names())
	case 1:
		return builtin.Build(names[0], b)
	}
	observer := b.Observer
	b.Observer = nil
	contenders, err := builtin.BuildAll(names, b)
	if err != nil {
		return nil, err
	}
	return core.PortfolioEngine(contenders, false, observer), nil
}
