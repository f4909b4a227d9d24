package main

import (
	"context"
	"math/rand"
	"time"

	"verifas/internal/benchmark"
	"verifas/internal/core"
)

// op is the outcome of one verification (suites) or one request (service).
type op struct {
	item    int // index into the workload's items
	latency time.Duration
	verdict string
	err     error
	stats   core.Stats
	// result is the engine's full result (suites), kept for the store
	// replay of a traced run.
	result *core.Result
	// cached and node describe a service answer: served from the result
	// store, and by which replica.
	cached bool
	node   string
}

// passOrder is the seeded order in which a pass visits the items.
func passOrder(n int, seed int64, pass int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(pass))).Perm(n)
}

// runSuitePass verifies every item once, one at a time, in the given order,
// timing each call to Engine.Verify; the outcome of item i is ops[i]. With
// a tracer, each verification is a span whose children are the verifier's
// phases.
func runSuitePass(ctx context.Context, cfg benchmark.Config, items []item, order []int, tr *tracer) ([]op, error) {
	traceID := tr.id()
	passStart := time.Now()
	ops := make([]op, len(items))
	for _, i := range order {
		it := items[i]
		var obs core.Observer
		spanID := tr.id()
		if tr != nil {
			obs = &phaseSpans{t: tr, traceID: traceID, parent: spanID}
		}
		eng, err := cfg.Engine(benchmark.VVerifas, obs)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := eng.Verify(ctx, it.spec.Sys, it.prop)
		o := op{item: i, latency: time.Since(start), err: err, result: res}
		tr.add(traceID, spanID, traceID, "verify", start, start.Add(o.latency))
		if err == nil {
			o.verdict = res.Verdict.String()
			o.stats = res.Stats
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		ops[i] = o
	}
	tr.add(traceID, traceID, 0, "pass", passStart, time.Now())
	return ops, nil
}
