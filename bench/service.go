package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"verifas/internal/fleet/loadgen"
	"verifas/internal/service"
	"verifas/internal/service/client"
)

const (
	// requestsPerKey is the fleet load generator's default ratio of requests
	// to keys (loadgen.Config: 1000 jobs over 50 specs), so about one
	// request in 20 is the first of its key: 5% misses.
	requestsPerKey = 20
	// loadConns is the number of closed-loop clients, one connection each:
	// one per CPU of the 2-CPU host the benchmark is sized for.
	loadConns = 2
)

// schedule is a service request sequence over a key universe: position i
// requests key s[i]. The first request of each key is a miss.
type schedule []int

// newSchedule draws requestsPerKey requests per key as loadgen.Schedule
// draws them: each request names a key chosen uniformly at random from the
// whole universe.
func newSchedule(nKeys int, seed int64) schedule {
	ops := loadgen.Schedule(loadgen.Config{Seed: seed, Jobs: nKeys * requestsPerKey, Specs: nKeys})
	s := make(schedule, len(ops))
	for i, o := range ops {
		s[i] = o.Spec
	}
	return s
}

// runSchedule sends the schedule to base from loadConns closed-loop
// clients: each takes the next position once its previous request has a
// verdict. A request is a submit followed by a wait for the result, as
// client.Verify does it, timed around both.
func runSchedule(ctx context.Context, base string, items []item, s schedule, tr *tracer) ([]op, time.Duration) {
	traceID := tr.id()
	ops := make([]op, len(s))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < loadConns; w++ {
		tp := &http.Transport{MaxIdleConnsPerHost: 1}
		c := client.New(base)
		c.HTTP = &http.Client{Transport: tp}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tp.CloseIdleConnections()
			for {
				pos := int(next.Add(1) - 1)
				if pos >= len(s) || ctx.Err() != nil {
					return
				}
				ops[pos] = request(ctx, c, items, s[pos], tr, traceID)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	tr.add(traceID, traceID, 0, "pass", start, start.Add(elapsed))
	return ops, elapsed
}

func request(ctx context.Context, c *client.Client, items []item, k int, tr *tracer, traceID uint64) op {
	spanID := tr.id()
	start := time.Now()
	o := op{item: k}
	st, err := c.Submit(ctx, items[k].req)
	submitted := time.Now()
	tr.record(traceID, spanID, "submit", start, submitted)
	var res *service.JobResult
	if err == nil {
		res, err = c.Result(ctx, st.ID, true)
		tr.record(traceID, spanID, "result", submitted, time.Now())
	}
	o.latency = time.Since(start)
	tr.add(traceID, spanID, traceID, "request", start, start.Add(o.latency))
	switch {
	case err != nil:
		o.err = err
	case res.Error != "":
		o.err = errors.New(res.Error)
	default:
		o.verdict = res.Verdict
		o.cached = res.Cached
		o.node = service.NodeOfJobID(res.ID)
		if res.Stats != nil {
			o.stats = *res.Stats
		}
	}
	return o
}

// serviceTrace is the outcome of one traced pass through a fleet.
type serviceTrace struct {
	ops     []op
	elapsed time.Duration
	// stats are the replicas' /v1/stats after the pass.
	stats []service.StatsResponse
	// before and after are the replicas' summed /debug/vars around the pass.
	before, after replicaVars
	// prof is the replicas' merged CPU profile of the pass.
	prof *cpuProfile
	// routerHit and directHit are hit latencies (ms) of the same keys asked
	// through the router and straight at the owning replica.
	routerHit, directHit []float64
}

// hopProbeRounds is how many times the router-hop probe asks each sampled
// key through each path; hopProbeKeys is how many keys it samples.
const (
	hopProbeRounds = 4
	hopProbeKeys   = 24
)

// traceService serves the schedule through a fresh fleet with debug
// endpoints, reading the replicas' counters around the pass and profiling
// the replicas for profileSeconds meanwhile. It then measures the router
// hop: hits of the same keys through the router and direct.
func traceService(ctx context.Context, binDir, dir string, items []item, s schedule, profileSeconds int, tr *tracer) (*serviceTrace, error) {
	f, err := startFleet(ctx, binDir, dir, true)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	out := &serviceTrace{}
	if out.before, err = f.vars(ctx); err != nil {
		return nil, err
	}
	var profErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out.prof, profErr = f.profile(ctx, profileSeconds)
	}()
	out.ops, out.elapsed = runSchedule(ctx, f.router, items, s, tr)
	if out.after, err = f.vars(ctx); err != nil {
		return nil, err
	}
	wg.Wait()
	if profErr != nil {
		return nil, profErr
	}
	for _, r := range f.replicas {
		var st service.StatsResponse
		if _, err := getJSON(ctx, r+"/v1/stats", &st); err != nil {
			return nil, fmt.Errorf("reading %s/v1/stats: %w", r, err)
		}
		out.stats = append(out.stats, st)
	}
	if err := hopProbe(ctx, f, items, out, tr); err != nil {
		return nil, err
	}
	return out, nil
}

// hopProbe asks keys the pass answered, alternately through the router and
// at the replica that owns them, after one warming request per key.
func hopProbe(ctx context.Context, f *fleet, items []item, t *serviceTrace, tr *tracer) error {
	owner := map[int]string{}
	var keys []int
	for i := len(t.ops) - 1; i >= 0 && len(keys) < hopProbeKeys; i-- {
		o := t.ops[i]
		if o.err != nil || owner[o.item] != "" {
			continue
		}
		if owner[o.item] = f.byNode[o.node]; owner[o.item] == "" {
			return fmt.Errorf("hop probe: unknown node %q", o.node)
		}
		keys = append(keys, o.item)
	}
	router := client.New(f.router)
	traceID := tr.id()
	start := time.Now()
	ask := func(c *client.Client, k int) (float64, error) {
		t0 := time.Now()
		res, err := c.Verify(ctx, items[k].req)
		if err != nil {
			return 0, fmt.Errorf("hop probe: %w", err)
		}
		if !res.Cached {
			return 0, fmt.Errorf("hop probe: %s missed the store", items[k].id)
		}
		return millis(time.Since(t0)), nil
	}
	for round := 0; round <= hopProbeRounds; round++ {
		for _, k := range keys {
			direct := client.New(owner[k])
			d, err := ask(direct, k)
			if err != nil {
				return err
			}
			r, err := ask(router, k)
			if err != nil {
				return err
			}
			if round > 0 {
				t.directHit, t.routerHit = append(t.directHit, d), append(t.routerHit, r)
			}
		}
	}
	tr.add(traceID, traceID, 0, "hop-probe", start, time.Now())
	return nil
}
