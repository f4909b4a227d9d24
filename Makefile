GO ?= go

.PHONY: build test check race bench bench-quick bench-suite fleet-soak profile serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static hygiene: vet must be clean and every file gofmt-formatted.
check:
	$(GO) vet ./...
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then \
		echo "gofmt needed:"; echo "$$fmt"; exit 1; fi

# Race-detector pass over the concurrent packages: the suite and job
# pools, engine construction from concurrent jobs, the pooled successor
# scratch and the successor-type memo, the service, the store, the
# fleet and the CLI's -j worker pool.
race:
	$(GO) test -race -short ./internal/core/... ./internal/engines/... ./internal/benchmark/... ./internal/symbolic/... ./internal/vass/... ./internal/spinlike/... ./internal/service/... ./internal/store/... ./internal/fleet/... ./cmd/verifas/

# Fleet soak under the race detector: 3 replicas behind the router,
# 1000 jobs over 50 keys with a mid-run replica kill+restart, asserting
# zero lost jobs and zero post-warm-up engine runs (seeded: ~10s).
fleet-soak:
	$(GO) test -race -run 'TestFleetSoak' -v -count=1 ./internal/fleet/

# Run the verification daemon locally with the debug endpoint attached.
SERVE_ADDR ?= localhost:8080
SERVE_DEBUG_ADDR ?= localhost:6060

serve:
	$(GO) run ./cmd/verifasd -addr $(SERVE_ADDR) -debug-addr $(SERVE_DEBUG_ADDR)

bench:
	$(GO) test -bench=. -benchmem

# Fast subset of the hot-path micro-benchmarks: the Karp-Miller
# exploration on the vector domain, the symbolic successor function and
# the heaviest real-suite verifications, plus the machine-readable memory
# record.
bench-quick:
	$(GO) test -run xxx -bench 'Explore' -benchmem -benchtime 2x ./internal/vass/
	$(GO) test -run xxx -bench 'VerifyRealSuite' -benchmem -benchtime 1x ./internal/benchmark/
	$(GO) test -run xxx -bench 'TaskSystemSuccessors|SynthWideSuccessors|PSIEdgeSet' -benchmem -benchtime 0.5s ./internal/symbolic/
	BENCH_MEMORY_JSON=$(CURDIR)/BENCH_memory.json $(GO) test -run TestWriteMemoryBenchJSON -v ./internal/core/
	@echo "wrote BENCH_memory.json"

# One 30-second run of the verifier benchmark (the bench/ module, see
# bench/README.md): builds the daemons and the benchmark into
# .bench_build/ and prints the end-to-end metrics as JSON on the last line.
#   make bench-suite WORKLOAD=synth-wide SEED=3
WORKLOAD ?= real-suite
SEED ?= 1

bench-suite:
	bash bench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 30 --trace 0

# CPU-profile a live suite through the -debug-addr pprof endpoint:
# start benchrun in the background, sample its CPU for PROFILE_SECONDS,
# write cpu.pprof, then let the suite finish.
PROFILE_ADDR ?= localhost:6363
PROFILE_SECONDS ?= 10

profile:
	$(GO) build -o benchrun.profiled ./cmd/benchrun
	@./benchrun.profiled -all -synth 6 -timeout 3s -quiet \
		-debug-addr $(PROFILE_ADDR) >/dev/null 2>&1 & pid=$$!; \
	sleep 1; \
	$(GO) tool pprof -proto -seconds $(PROFILE_SECONDS) \
		-output cpu.pprof http://$(PROFILE_ADDR)/debug/pprof/profile; \
	wait $$pid || true; \
	rm -f benchrun.profiled; \
	echo "wrote cpu.pprof — inspect with: $(GO) tool pprof -top cpu.pprof"
