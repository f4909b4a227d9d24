// Command verifas-router is the fleet front door: a stateless HTTP
// proxy that routes verification jobs across a set of verifasd replicas
// by consistent hashing on each job's content-addressed cache key, so
// identical submissions always land on the same shard (where they
// coalesce locally) and distinct keys spread evenly. Id-addressed
// requests (status, result, events, cancel) route to the replica that
// issued the id. When a replica stops answering /readyz — drain, crash,
// saturation — its keys fail over to the ring successor, which answers
// every already-verified key from the shared result store. Only a key
// in flight at the failover may run twice.
//
// Usage:
//
//	verifas-router -replicas host:9001,host:9002,host:9003
//	               [-addr :8080] [-vnodes 160] [-health-interval 250ms]
//	               [-retry-attempts 4]
//	               [-default-timeout D] [-max-timeout D] [-max-states N]
//	               [-job-mem-budget SIZE]
//	               [-debug-addr ADDR] [-version]
//
// The -default-timeout/-max-timeout/-max-states/-job-mem-budget flags
// must mirror the replicas' settings: they participate in the cache key,
// and a mismatch would route identical jobs to different shards (correct
// results, worse coalescing). See README.md "Running a fleet".
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
	"strings"
	"syscall"
	"time"

	"verifas/internal/core"
	"verifas/internal/fleet"
	"verifas/internal/memsize"
	"verifas/internal/obs"
	"verifas/internal/service"
	"verifas/internal/service/client"
	"verifas/internal/version"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr           = flag.String("addr", "localhost:8080", "serve the routed verification API on this address")
		replicas       = flag.String("replicas", "", "comma-separated verifasd replica addresses (required)")
		vnodes         = flag.Int("vnodes", fleet.DefaultVNodes, "virtual nodes per replica on the hash ring")
		healthInterval = flag.Duration("health-interval", fleet.DefaultHealthInterval, "readiness-poll period per replica")
		retryAttempts  = flag.Int("retry-attempts", 4, "attempts for a fleet-wide 429 before relaying it (1 disables retry)")
		defTimeout     = flag.Duration("default-timeout", 60*time.Second, "replicas' per-job timeout default (must match theirs)")
		maxTimeout     = flag.Duration("max-timeout", 0, "replicas' cap on requested timeouts (must match theirs)")
		maxStates      = flag.Int("max-states", core.DefaultMaxStates, "replicas' default state budget (must match theirs)")
		jobMemBudget   = flag.String("job-mem-budget", "", "replicas' default per-job memory budget (must match theirs)")
		debugAddr      = flag.String("debug-addr", "", "serve pprof and expvar on this address (e.g. localhost:6060)")
		showVer        = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Printf("verifas-router %s %s\n", version.String(), runtime.Version())
		return 0
	}
	if *replicas == "" {
		fmt.Fprintln(os.Stderr, "-replicas is required (comma-separated verifasd addresses)")
		return 2
	}
	memBytes, err := memsize.Parse(*jobMemBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "-job-mem-budget:", err)
		return 2
	}
	var retry *client.RetryPolicy
	if *retryAttempts > 1 {
		retry = &client.RetryPolicy{MaxAttempts: *retryAttempts}
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Replicas:       strings.Split(*replicas, ","),
		VNodes:         *vnodes,
		HealthInterval: *healthInterval,
		Retry:          retry,
		Version:        version.String(),
		KeyDefaults: service.KeyDefaults{
			Timeout:    *defTimeout,
			MaxTimeout: *maxTimeout,
			MaxStates:  *maxStates,
			MemBudget:  memBytes,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	expvar.Publish("verifas_router", rt.Metrics())

	var dbg *http.Server
	if *debugAddr != "" {
		dbg, err = obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "debug server:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/ (metrics on /debug/vars)\n", dbg.Addr)
	}

	// First sweep before serving, so the initial requests already know
	// which replicas are ready; the background checker keeps it fresh.
	rt.CheckNow(context.Background())
	rt.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "verifas-router %s serving on http://%s (replicas=%d vnodes=%d health=%s)\n",
		version.String(), *addr, len(strings.Split(*replicas, ",")), *vnodes, *healthInterval)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	exit := 0
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "serve:", err)
		exit = 2
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "shutting down")
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		fmt.Fprintln(os.Stderr, "http shutdown:", err)
		exit = 2
	}
	rt.Close()
	if dbg != nil {
		_ = dbg.Close()
	}
	return exit
}
