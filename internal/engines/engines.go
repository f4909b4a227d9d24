// Package engines wires the built-in verification engines into a
// core.Registry. It exists above core and spinlike so that neither
// imports the other: core defines the registry and its own variants,
// spinlike registers the baseline, and every front end (the service,
// the benchmark harness, the CLIs) resolves engine labels through the
// default registry assembled here.
package engines

import (
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
