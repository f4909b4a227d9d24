// Package engines is the fixed table of built-in verification engines:
// the VERIFAS core and its ablation variants, and the bounded Spin-like
// baseline. It sits above core and spinlike so that neither imports the
// other, and every front end (the service, the benchmark harness, the
// CLIs) turns engine names into engines through Build.
package engines

import (
	"fmt"

	"verifas/internal/core"
	"verifas/internal/spinlike"
)

// table lists every built-in engine in the order Names reports. Each
// entry binds a fixed configuration to the per-job budget; budgets (and
// the observers riding in them) are chosen per job, not per process.
var table = []struct {
	name  string
	build func(core.Budget) core.Engine
}{
	{"verifas", verifas(core.Options{})},
	{"verifas-noset", verifas(core.Options{IgnoreSets: true})},
	{"verifas-nosp", verifas(core.Options{NoStatePruning: true})},
	{"verifas-nosa", verifas(core.Options{NoStaticAnalysis: true})},
	{"verifas-nodss", verifas(core.Options{NoIndexes: true})},
	{"verifas-norr", verifas(core.Options{SkipRepeatedReachability: true})},
	{"spinlike", spin(spinlike.Options{})},
	{"spinlike-bitstate", spin(spinlike.Options{Bitstate: true})},
}

func verifas(opts core.Options) func(core.Budget) core.Engine {
	return func(b core.Budget) core.Engine {
		o := opts
		o.Budget = b
		return core.Verifas(o)
	}
}

func spin(opts spinlike.Options) func(core.Budget) core.Engine {
	return func(b core.Budget) core.Engine {
		o := opts
		o.Budget = b
		return spinlike.Engine(o)
	}
}

// Names lists the built-in engine names in table order.
func Names() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.name
	}
	return out
}

// Build constructs the named engine with budget b. An unknown name
// wraps core.ErrUnknownVariant and lists the known ones.
func Build(name string, b core.Budget) (core.Engine, error) {
	for _, e := range table {
		if e.name == name {
			return e.build(b), nil
		}
	}
	return nil, fmt.Errorf("engines: %w %q (known: %v)", core.ErrUnknownVariant, name, Names())
}
