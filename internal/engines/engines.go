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

// DefaultPortfolio is the engine selection used when a caller asks for
// portfolio mode without naming contenders: the full VERIFAS
// configuration raced against the bounded Spin-like baseline — the
// paper's own comparison pair, with complementary performance profiles.
// Order is the deterministic tie-break priority (the exact engine
// first).
var DefaultPortfolio = []string{"verifas", "spinlike"}

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

// build constructs one named engine with budget b.
func build(name string, b core.Budget) (core.Engine, error) {
	for _, e := range table {
		if e.name == name {
			return e.build(b), nil
		}
	}
	return nil, fmt.Errorf("engines: %w %q (known: %v)", core.ErrUnknownVariant, name, Names())
}

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
		return build(names[0], b)
	}
	observer := b.Observer
	b.Observer = nil
	contenders := make([]core.Engine, len(names))
	for i, name := range names {
		for _, prev := range names[:i] {
			if prev == name {
				return nil, fmt.Errorf("engines: duplicate engine %q in portfolio", name)
			}
		}
		eng, err := build(name, b)
		if err != nil {
			return nil, err
		}
		contenders[i] = eng
	}
	return core.PortfolioEngine(contenders, observer), nil
}
