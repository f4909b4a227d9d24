// Command verifasd is the VERIFAS verification daemon: a resident HTTP
// server that accepts verification jobs (HAS* spec + LTL-FO property +
// options), runs them on a bounded worker pool, caches verdicts by
// content hash, coalesces identical in-flight jobs, and streams each
// job's verification events live. See internal/service for the API and
// README.md "Running as a service" for curl examples.
//
// Usage:
//
//	verifasd [-addr :8080] [-workers N] [-queue N]
//	         [-cache N] [-store-dir DIR] [-store-max SIZE]
//	         [-default-timeout D] [-max-timeout D]
//	         [-node ID]
//	         [-debug-addr ADDR] [-version]
//
// With -store-dir the in-memory result cache is layered over a
// persistent content-addressed store in DIR: verdicts survive restarts
// (and can be shared by replicas on one filesystem), bounded on disk by
// -store-max with LRU-by-mtime eviction.
//
// With -node (and a -store-dir shared with its siblings) the daemon runs
// as one replica of a fleet: job ids carry the node prefix so a
// verifas-router can route id-addressed requests back, /readyz reports
// routable readiness, and a verdict any replica stored answers the key
// on every replica. See README.md "Running a fleet".
//
// SIGINT/SIGTERM trigger a graceful shutdown: new submissions are
// rejected with 503, running verifications are canceled via their
// contexts, event streams terminate, and the process exits once the
// drain completes (bounded by -drain-timeout).
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"verifas/internal/core"
	"verifas/internal/memsize"
	"verifas/internal/obs"
	"verifas/internal/service"
	"verifas/internal/store"
	"verifas/internal/version"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", "localhost:8080", "serve the verification API on this address")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "verification worker-pool size")
		queueDepth   = flag.Int("queue", 64, "bound on queued runs beyond the workers (overflow gets 429)")
		cacheSize    = flag.Int("cache", 256, "memory-tier result-store entries (negative disables caching)")
		storeDir     = flag.String("store-dir", "", "persist results in this directory (content-addressed, survives restarts; empty = memory only)")
		storeMax     = flag.String("store-max", "1G", "on-disk result-store size cap (binary units, e.g. 512M, 2G; 0 = uncapped)")
		defTimeout   = flag.Duration("default-timeout", 60*time.Second, "per-job timeout when the request sets none")
		maxTimeout   = flag.Duration("max-timeout", 0, "cap on requested per-job timeouts (0 = uncapped)")
		maxStates    = flag.Int("max-states", core.DefaultMaxStates, "default state budget per search phase")
		jobMemBudget = flag.String("job-mem-budget", "", "default per-job memory budget when a job sets no mem_budget option (e.g. 64M, 2G; empty = unlimited)")
		node         = flag.String("node", "", "fleet node id: prefixes job ids for router affinity and names this replica in /readyz and /v1/stats (empty = standalone)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "bound on the graceful-shutdown drain")
		debugAddr    = flag.String("debug-addr", "", "serve pprof and expvar on this address (e.g. localhost:6060)")
		showVer      = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Printf("verifasd %s %s\n", version.String(), runtime.Version())
		return 0
	}
	memBytes, err := memsize.Parse(*jobMemBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "-job-mem-budget:", err)
		return 2
	}

	// Result store: memory-only by default; with -store-dir, the memory
	// LRU tiers over a persistent content-addressed disk store so
	// restarts serve previously computed verdicts without re-running an
	// engine. The server owns the store and closes it after its drain.
	var resultStore store.Store
	if *storeDir != "" {
		maxBytes, err := memsize.Parse(*storeMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, "-store-max:", err)
			return 2
		}
		disk, err := store.OpenDisk(*storeDir, maxBytes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "-store-dir:", err)
			return 2
		}
		resultStore = store.NewTiered(store.NewMemory(*cacheSize), disk)
	}

	reg := obs.NewRegistry()
	svc := service.NewServer(service.Config{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		CacheEntries:     *cacheSize,
		Store:            resultStore,
		DefaultTimeout:   *defTimeout,
		MaxTimeout:       *maxTimeout,
		DefaultMaxStates: *maxStates,
		DefaultMemBudget: memBytes,
		Registry:         reg,
		Version:          version.String(),
		NodeID:           *node,
	})
	// All three aggregates surface on /debug/vars next to the runtime's
	// expvars: the verifier-event totals, the service counters, and the
	// result store's per-tier counters.
	reg.Publish("verifasd")
	expvar.Publish("verifasd_service", svc.Metrics())
	obs.PublishJSON("verifasd_store", func() any { return svc.Store().Stats() })

	var dbg *http.Server
	if *debugAddr != "" {
		var err error
		dbg, err = obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "debug server:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/ (metrics on /debug/vars)\n", dbg.Addr)
	}

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: svc.Handler(),
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	persist := "memory-only"
	if *storeDir != "" {
		persist = fmt.Sprintf("disk=%s max=%s", *storeDir, *storeMax)
	}
	fmt.Fprintf(os.Stderr, "verifasd %s serving on http://%s (workers=%d queue=%d cache=%d store=%s)\n",
		version.String(), *addr, *workers, *queueDepth, *cacheSize, persist)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	exit := 0
	select {
	case err := <-errCh:
		// Listener failure before any signal.
		fmt.Fprintln(os.Stderr, "serve:", err)
		exit = 2
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "shutting down: draining jobs...")
	}

	// Drain ordering (see DESIGN.md): cancel the verification work first
	// so streaming handlers reach their terminal records and unblock,
	// then close the HTTP listener waiting for in-flight handlers, then
	// the debug server.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
		exit = 2
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "http shutdown:", err)
		exit = 2
	}
	if dbg != nil {
		_ = dbg.Close()
	}
	return exit
}
