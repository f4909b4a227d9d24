package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"verifas/internal/benchmark"
	"verifas/internal/core"
	"verifas/internal/has"
	"verifas/internal/service"
	"verifas/internal/spec"
)

// item is one verification a workload performs.
type item struct {
	// id names the item in the golden file: "<spec>|<template>" for the
	// suites, "<workflow>|<template>|p<property seed>" for the service.
	id   string
	spec *benchmark.Spec
	prop *core.Property
	// req is the service submission of the item (service workload only).
	req *service.SubmitRequest
}

// workload is one set of inputs the benchmark runs. The inputs are fixed;
// the run's seed orders them (suites) or schedules them (service), so every
// seed's run is checked against the same golden verdicts and measures the
// same work.
type workload struct {
	name  string
	items func() ([]item, error)
	// service workloads run through the daemons; suites call the engine
	// in-process, one property at a time.
	service bool
	// cfg holds the budgets of in-process verification: the suites' runs,
	// and the golden verdicts and traced-run results of the service. No
	// wall-clock timeout is set: only the state budget may stop a run, so
	// verdicts do not depend on the host's speed.
	cfg benchmark.Config
	// tail is the percentile reported as verdict_tail_ms: the highest one
	// with at least minBeyond samples above it after minPasses passes.
	tail float64
}

// minPasses is the least number of passes a run makes.
const minPasses = 3

var workloads = map[string]*workload{
	"real-suite": {
		name:  "real-suite",
		items: func() ([]item, error) { return suiteItems(benchmark.RealSuite()), nil },
		cfg:   suiteConfig(benchmark.DefaultConfig().MaxStates),
		tail:  0.98, // of 3 x 216 verifications
	},
	"synth-wide": {
		name:  "synth-wide",
		items: synthWideItems,
		cfg:   suiteConfig(1000),
		tail:  0.90, // of 3 x 48 verifications
	},
	"service-mixed": {
		name:    "service-mixed",
		items:   serviceItems,
		service: true,
		// The daemons' default state budget.
		cfg:  suiteConfig(core.DefaultMaxStates),
		tail: 0.99, // of 3 x 10,420 requests
	},
}

func suiteConfig(maxStates int) benchmark.Config {
	cfg := benchmark.DefaultConfig()
	cfg.Timeout = 0
	cfg.MaxStates = maxStates
	return cfg
}

// suiteItems pairs every spec with its 12 template properties, seeded per
// spec as benchmark.RunSuite seeds them at the default Config.Seed of 1.
func suiteItems(specs []*benchmark.Spec) []item {
	var out []item
	for si, s := range specs {
		for _, p := range benchmark.Properties(s.Sys, 1+int64(si)) {
			out = append(out, item{id: s.Name + "|" + p.Name, spec: s, prop: p})
		}
	}
	return out
}

// synthWideSpecs are the tier-3 and tier-4 generator outputs of
// benchmark.SyntheticSuite at suite seed 1, two of each tier: the widest
// pisotypes the generator makes whose searches stay within seconds.
var synthWideSpecs = []string{"synth-03", "synth-04", "synth-09", "synth-10"}

func synthWideItems() ([]item, error) {
	byName := map[string]*benchmark.Spec{}
	for _, s := range benchmark.SyntheticSuite(11, 1) {
		byName[s.Name] = s
	}
	var specs []*benchmark.Spec
	for _, n := range synthWideSpecs {
		s, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("synthetic suite has no %s", n)
		}
		specs = append(specs, s)
	}
	return suiteItems(specs), nil
}

var (
	// serviceTemplates index benchmark.Templates: False, G(p -> F q), F p.
	serviceTemplates = []int{0, 6, 7}
	// servicePropSeeds instantiate each template ten times. Seed 10 is
	// left out: it gives a SupportTicketing liveness property whose search
	// takes seconds, where every other key takes milliseconds.
	servicePropSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 11}
)

// serviceItems is the service workload's key universe: the real workflows
// x serviceTemplates x servicePropSeeds, deduplicated by the cache key a
// default-configured daemon assigns.
func serviceItems() ([]item, error) {
	seen := map[string]bool{}
	var out []item
	for _, s := range benchmark.RealSuite() {
		for _, ps := range servicePropSeeds {
			props := benchmark.Properties(s.Sys, ps)
			for _, ti := range serviceTemplates {
				p := props[ti]
				req := &service.SubmitRequest{Workflow: s.Name, PropertySrc: propertySource(s.Sys, p)}
				key, err := service.RequestKey(req, service.KeyDefaults{})
				if err != nil {
					return nil, fmt.Errorf("%s %q: %w", s.Name, p.Name, err)
				}
				if seen[key] {
					continue
				}
				seen[key] = true
				out = append(out, item{id: fmt.Sprintf("%s|%s|p%d", s.Name, p.Name, ps), spec: s, prop: p, req: req})
			}
		}
	}
	return out, nil
}

// propertySource renders a property in the spec syntax, as the property
// block spec.Print writes after the system.
func propertySource(sys *has.System, p *core.Property) string {
	src := spec.Print(&spec.File{System: sys, Properties: []*core.Property{p}})
	return src[strings.LastIndex(src, "\nproperty ")+1:]
}

//go:embed testdata/golden-*.json
var goldenFS embed.FS

// golden maps item ids to the verdict recorded for them.
type golden struct {
	Workload string            `json:"workload"`
	Verdicts map[string]string `json:"verdicts"`
}

func goldenPath(workload string) string { return "golden-" + workload + ".json" }

func loadGolden(w *workload, items []item) (*golden, error) {
	b, err := goldenFS.ReadFile("testdata/" + goldenPath(w.name))
	if err != nil {
		return nil, fmt.Errorf("golden verdicts: %w", err)
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden verdicts: %w", err)
	}
	for _, it := range items {
		if _, ok := g.Verdicts[it.id]; !ok {
			return nil, fmt.Errorf("golden verdicts of %s lack %q", w.name, it.id)
		}
	}
	return &g, nil
}

// writeGolden records the verdicts of one pass as the workload's golden file.
func writeGolden(dir string, w *workload, items []item, ops []op) error {
	g := golden{Workload: w.name, Verdicts: map[string]string{}}
	for _, o := range ops {
		if o.err != nil {
			return fmt.Errorf("%s: %w", items[o.item].id, o.err)
		}
		g.Verdicts[items[o.item].id] = o.verdict
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenPath(w.name)), append(b, '\n'), 0o644)
}

func decisive(verdict string) bool {
	return verdict == core.VerdictHolds.String() || verdict == core.VerdictViolated.String()
}

// check compares each operation's verdict with the golden one. A decisive
// verdict that differs is wrong; an operation that errs, or ends undecided
// where the golden verdict is decisive, failed. A golden-undecided item may
// end with any verdict.
func (g *golden) check(items []item, ops []op) (failed int, wrong []string) {
	for _, o := range ops {
		want := g.Verdicts[items[o.item].id]
		switch {
		case o.err != nil:
			failed++
		case decisive(o.verdict) && decisive(want) && o.verdict != want:
			wrong = append(wrong, fmt.Sprintf("%s: %s, golden %s", items[o.item].id, o.verdict, want))
		case decisive(want) && !decisive(o.verdict):
			failed++
		}
	}
	return failed, wrong
}
