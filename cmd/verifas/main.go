// Command verifas verifies LTL-FO properties of HAS* specifications.
//
// Usage:
//
//	verifas [flags] SPEC.has
//
// The specification file uses the textual format of internal/spec and may
// contain any number of property blocks; by default every property is
// verified. -engine names the engine (any built-in engine name: "verifas",
// its ablations such as "verifas-nosp", "spinlike", ...). With -j N, up
// to N properties are verified concurrently (cooperatively cancellable
// with Ctrl-C); reports are still printed in specification order. -events FILE records the verification
// event stream (phase boundaries, progress snapshots, verdicts) as JSON
// lines; -debug-addr ADDR serves net/http/pprof and expvar for live
// inspection. Exit status: 0 when all verified properties hold, 1 when a
// violation was found, 2 on errors or timeouts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"time"

	"verifas/internal/concrete"
	"verifas/internal/core"
	"verifas/internal/cyclo"
	"verifas/internal/engines"
	"verifas/internal/has"
	"verifas/internal/memsize"
	"verifas/internal/obs"
	"verifas/internal/service"
	"verifas/internal/service/client"
	"verifas/internal/spec"
	"verifas/internal/spinlike"
	"verifas/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes reports to stdout and
// diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verifas", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		propName  = fs.String("prop", "", "verify only the named property")
		engine    = fs.String("engine", "verifas", "verification engine, any of: "+strings.Join(engines.Names(), ", "))
		timeout   = fs.Duration("timeout", 60*time.Second, "per-property timeout")
		maxStates = fs.Int("max-states", core.DefaultMaxStates, "state budget per search phase")
		memBudget = fs.String("mem-budget", "", "per-property memory budget (e.g. 64M, 2G; empty = unlimited); exhausting it yields a BUDGET verdict with partial stats")
		showTrace = fs.Bool("trace", true, "print counterexample traces")
		showStats = fs.Bool("stats", false, "print search statistics")
		witness   = fs.Bool("witness", false, "try to realize root-task counterexample prefixes concretely on random databases")
		workers   = fs.Int("j", 1, "verify up to N properties concurrently (output order is preserved)")
		events    = fs.String("events", "", "write the verification event stream to FILE as JSON lines")
		debugAddr = fs.String("debug-addr", "", "serve pprof and expvar on this address (e.g. localhost:6060)")
		server    = fs.String("server", "", "verify remotely on a verifasd daemon at this base URL or host:port")
		showVer   = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *showVer {
		fmt.Fprintf(stdout, "verifas %s %s\n", version.String(), runtime.Version())
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: verifas [flags] SPEC.has")
		fs.PrintDefaults()
		return 2
	}
	memBytes, err := memsize.Parse(*memBudget)
	if err != nil {
		fmt.Fprintln(stderr, "error: -mem-budget:", err)
		return 2
	}
	budget := core.Budget{Timeout: *timeout, MaxStates: *maxStates, MaxMemBytes: memBytes}
	if *server == "" {
		// Reject an unknown name before any work; the daemon checks it
		// itself under -server.
		if _, err := engines.Build(*engine, budget); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 2
		}
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 2
	}
	file, err := spec.Parse(string(src))
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 2
	}
	m, mTask, mVar := cyclo.Complexity(file.System)
	st := file.System.Stats()
	fmt.Fprintf(stdout, "system %s: %d relations, %d tasks, %d variables, %d services, M(A)=%d (task %s, var %s)\n",
		file.System.Name, st.Relations, st.Tasks, st.Variables, st.Services, m, mTask, mVar)

	props := file.Properties
	if *propName != "" {
		props = nil
		for _, p := range file.Properties {
			if p.Name == *propName {
				props = append(props, p)
			}
		}
		if len(props) == 0 {
			fmt.Fprintf(stderr, "error: no property named %q in %s\n", *propName, fs.Arg(0))
			return 2
		}
	}
	if len(props) == 0 {
		fmt.Fprintln(stdout, "no properties to verify")
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(stderr, "debug server:", err)
			return 2
		}
		defer dbg.Close()
		fmt.Fprintf(stderr, "debug server on http://%s/debug/pprof/ (metrics on /debug/vars)\n", dbg.Addr)
	}
	var tw *obs.TraceWriter
	var eventsF *os.File
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintln(stderr, "events:", err)
			return 2
		}
		defer f.Close()
		eventsF = f
		if *server == "" {
			tw = obs.NewTraceWriter(f)
		}
	}

	rf := reportFlags{showTrace: *showTrace, showStats: *showStats, witness: *witness}
	// verify renders one property's full report; with -j > 1 the reports
	// are produced concurrently and printed in property order.
	verify := func(prop *core.Property) (string, int) {
		b := budget
		if tw != nil {
			b.Observer = tw.Run(prop.Name)
		}
		eng, err := engines.Build(*engine, b)
		if err != nil {
			return fmt.Sprintf("%s: error: %v\n", prop.Name, err), 2
		}
		res, err := eng.Verify(ctx, file.System, prop)
		if err != nil {
			return fmt.Sprintf("%s: error: %v\n", prop.Name, err), 2
		}
		return rf.local(file.System, prop, eng.Name(), res)
	}
	// With -server, the same report loop runs against a remote verifasd
	// daemon through the service client instead of the in-process engines.
	if *server != "" {
		verify = remoteVerifier(ctx, stderr, *server, string(src), file, remoteFlags{
			reportFlags: rf,
			engine:      *engine,
			timeout:     *timeout,
			maxStates:   *maxStates,
			memBudget:   memBytes,
			eventsF:     eventsF,
		})
	}

	reports := make([]string, len(props))
	codes := make([]int, len(props))
	n := *workers
	if n <= 1 || len(props) == 1 {
		for i, prop := range props {
			reports[i], codes[i] = verify(prop)
		}
	} else {
		if n > len(props) {
			n = len(props)
		}
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					reports[i], codes[i] = verify(props[i])
				}
			}()
		}
		for i := range props {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	exit := 0
	for i := range props {
		fmt.Fprint(stdout, reports[i])
		exit = max(exit, codes[i])
	}
	if tw != nil {
		if err := tw.Err(); err != nil {
			fmt.Fprintln(stderr, "events:", err)
			exit = max(exit, 2)
		}
	}
	return exit
}

// reportFlags are the flags that shape a property's report.
type reportFlags struct {
	showTrace, showStats, witness bool
}

// verdictLine writes a report's status line and returns the property's
// exit status. note is appended inside the parentheses.
func verdictLine(w io.Writer, prop string, v core.Verdict, elapsed string, states int, note string) int {
	switch v {
	case core.VerdictBudget:
		fmt.Fprintf(w, "%-30s BUDGET   (%s, %d states, memory budget exhausted%s)\n", prop, elapsed, states, note)
		return 2
	case core.VerdictTimedOut:
		fmt.Fprintf(w, "%-30s TIMEOUT  (%s, %d states%s)\n", prop, elapsed, states, note)
		return 2
	case core.VerdictHolds:
		fmt.Fprintf(w, "%-30s HOLDS    (%s, %d states%s)\n", prop, elapsed, states, note)
		return 0
	default:
		fmt.Fprintf(w, "%-30s VIOLATED (%s, %d states%s)\n", prop, elapsed, states, note)
		return 1
	}
}

// local renders the result of an in-process run of the named engine: the
// status line, then the counterexample trace, the concrete witness and
// the statistics as the flags ask. The spinlike engines' verdicts are
// marked "bounded domain".
func (rf reportFlags) local(sys *has.System, prop *core.Property, engine string, res *core.Result) (string, int) {
	var sb strings.Builder
	var note string
	if v := res.Violation; v != nil && res.Verdict == core.VerdictViolated {
		note += ", " + v.Kind + " counterexample"
	}
	if strings.HasPrefix(engine, spinlike.EngineName) {
		note += ", bounded domain"
	}
	code := verdictLine(&sb, prop.Name, res.Verdict, res.Stats.Elapsed.Round(time.Millisecond).String(), res.Stats.StatesExplored(), note)
	if v := res.Violation; v != nil && code == 1 {
		if rf.showTrace {
			printTrace(&sb, v)
		}
		if rf.witness && prop.Task == sys.Root.Name {
			replayWitness(&sb, sys, prefixAtoms(v))
		}
	}
	if !rf.showStats {
		return sb.String(), code
	}
	fmt.Fprintf(&sb, "  büchi=%d explored=%d pruned=%d skipped=%d accel=%d\n",
		res.Stats.BuchiStates, res.Stats.StatesExplored(), res.Stats.Pruned(),
		res.Stats.Skipped(), res.Stats.Accelerations())
	printPhase := func(name string, ps core.PhaseStats) {
		if ps.States == 0 && ps.Elapsed == 0 {
			return
		}
		fmt.Fprintf(&sb, "  %-8s states=%-8d pruned=%-8d skipped=%-8d accel=%-6d expansions=%-8d memoized=%-8d %s\n",
			name, ps.States, ps.Pruned, ps.Skipped, ps.Accelerations, ps.Expansions, ps.ExpansionsMemoized,
			ps.Elapsed.Round(time.Microsecond))
	}
	printPhase("reach", res.Stats.Reachability)
	printPhase("rr", res.Stats.RR)
	return sb.String(), code
}

// remoteFlags carries the CLI flags the remote mode maps onto request
// options and report formatting.
type remoteFlags struct {
	reportFlags
	engine    string
	timeout   time.Duration
	maxStates int
	memBudget int64
	eventsF   *os.File
}

// remoteVerifier builds the per-property report function of -server mode:
// submit to the daemon, optionally stream the run's events into the
// -events file, then fetch the verdict. Cache hits are marked "cached" in
// the report.
func remoteVerifier(ctx context.Context, stderr io.Writer, addr, src string, file *spec.File, rf remoteFlags) func(*core.Property) (string, int) {
	cl := client.New(addr)
	ropts := &service.RequestOptions{
		Engine:    rf.engine,
		TimeoutMS: rf.timeout.Milliseconds(),
		MaxStates: rf.maxStates,
		MemBudget: rf.memBudget,
	}
	var encMu sync.Mutex
	var enc *json.Encoder
	if rf.eventsF != nil {
		enc = json.NewEncoder(rf.eventsF)
	}
	return func(prop *core.Property) (string, int) {
		var sb strings.Builder
		st, err := cl.Submit(ctx, &service.SubmitRequest{Spec: src, Property: prop.Name, Options: ropts})
		if err != nil {
			fmt.Fprintf(&sb, "%s: error: %v\n", prop.Name, err)
			return sb.String(), 2
		}
		if enc != nil {
			if err := cl.Stream(ctx, st.ID, func(ev service.StreamEvent) error {
				encMu.Lock()
				defer encMu.Unlock()
				return enc.Encode(ev)
			}); err != nil {
				fmt.Fprintln(stderr, "events:", err)
			}
		}
		res, err := cl.Result(ctx, st.ID, true)
		if err != nil {
			fmt.Fprintf(&sb, "%s: error: %v\n", prop.Name, err)
			return sb.String(), 2
		}
		if res.State == service.StateFailed || res.State == service.StateCanceled {
			fmt.Fprintf(&sb, "%s: error: %s\n", prop.Name, res.Error)
			return sb.String(), 2
		}
		cached := ""
		if res.Cached {
			cached = ", cached"
			// Name the store tier that answered when the daemon reports
			// it ("disk" = the verdict survived a daemon restart).
			if res.CacheTier != "" {
				cached = ", cached (" + res.CacheTier + ")"
			}
		}
		elapsed := "-"
		states := 0
		if res.Stats != nil {
			elapsed = res.Stats.Elapsed.Round(time.Millisecond).String()
			states = res.Stats.StatesExplored()
		}
		var verdict core.Verdict
		_ = verdict.UnmarshalText([]byte(res.Verdict)) // an unrecognized verdict renders as VIOLATED
		note := cached
		if res.Violation != nil && verdict == core.VerdictViolated {
			note = ", " + res.Violation.Kind + " counterexample" + cached
		}
		code := verdictLine(&sb, prop.Name, verdict, elapsed, states, note)
		if res.Violation != nil && code == 1 {
			if rf.showTrace {
				for i, step := range res.Violation.Prefix {
					fmt.Fprintf(&sb, "    %2d. %-28s %s\n", i, step.Service, step.State)
				}
				if len(res.Violation.Cycle) > 0 {
					fmt.Fprintln(&sb, "    -- repeat forever:")
					for _, step := range res.Violation.Cycle {
						fmt.Fprintf(&sb, "        %s\n", step.Service)
					}
				}
			}
			if rf.witness && prop.Task == file.System.Root.Name {
				var atoms []string
				for i, step := range res.Violation.Prefix {
					if i > 0 {
						atoms = append(atoms, step.Service)
					}
				}
				replayWitness(&sb, file.System, atoms)
			}
		}
		if rf.showStats && res.Stats != nil {
			fmt.Fprintf(&sb, "  büchi=%d explored=%d pruned=%d skipped=%d accel=%d\n",
				res.Stats.BuchiStates, res.Stats.StatesExplored(), res.Stats.Pruned(),
				res.Stats.Skipped(), res.Stats.Accelerations())
		}
		return sb.String(), code
	}
}

// replayWitness tries to realize a counterexample prefix — given as the
// service-atom names of its steps, excluding the implicit root opening —
// as a concrete run over random databases, printing the realized trace
// when found. The sampler is incomplete: failure to realize does not
// refute the symbolic counterexample.
func replayWitness(w io.Writer, sys *has.System, atoms []string) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := concrete.RandomDB(sys.Schema, rng, 2+int(seed%3), sys.Constants())
		run, err := concrete.NewRunner(sys, db, rng)
		if err != nil {
			continue
		}
		ok, err := run.GuidedReplay(sys.Root, atoms)
		if err != nil {
			continue
		}
		kind := "prefix"
		if !ok {
			// The per-task abstraction may make the exact local run
			// unrealizable; fall back to subsequence matching.
			rng2 := rand.New(rand.NewSource(seed ^ 0x5bd1))
			run, err = concrete.NewRunner(sys, db, rng2)
			if err != nil {
				continue
			}
			ok, err = run.GuidedReplaySubsequence(sys.Root, atoms)
			if err != nil || !ok {
				continue
			}
			kind = "observable subsequence"
		}
		fmt.Fprintf(w, "    concrete realization of the counterexample %s (random database):\n", kind)
		for i, st := range run.Trace {
			fmt.Fprintf(w, "      %2d. %s\n", i, st.Event.AtomName())
		}
		return
	}
	fmt.Fprintln(w, "    (no concrete realization sampled within the budget)")
}

// prefixAtoms lists the service atoms of a local counterexample prefix,
// skipping the root opening (implicit in the concrete runner).
func prefixAtoms(v *core.Violation) []string {
	var atoms []string
	for i, step := range v.Prefix {
		if i == 0 {
			continue
		}
		atoms = append(atoms, step.Service.AtomName())
	}
	return atoms
}

func printTrace(w io.Writer, v *core.Violation) {
	for i, step := range v.Prefix {
		fmt.Fprintf(w, "    %2d. %-28s %s\n", i, step.Service.AtomName(), step.State)
	}
	if len(v.Cycle) > 0 {
		fmt.Fprintln(w, "    -- repeat forever:")
		for _, step := range v.Cycle {
			fmt.Fprintf(w, "        %s\n", step.Service.AtomName())
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
