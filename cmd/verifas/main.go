// Command verifas verifies LTL-FO properties of HAS* specifications.
//
// Usage:
//
//	verifas [flags] SPEC.has
//
// The specification file uses the textual format of internal/spec and may
// contain any number of property blocks; by default every property is
// verified. With -j N, up to N properties are verified concurrently
// (cooperatively cancellable with Ctrl-C); reports are still printed in
// specification order. -events FILE records the verification event
// stream (phase boundaries, progress snapshots, verdicts) as JSON lines;
// -debug-addr ADDR serves net/http/pprof and expvar for live inspection.
// Exit status: 0 when all verified properties hold, 1 when a violation
// was found, 2 on errors or timeouts.
package main

import (
	"context"
	"encoding/json"
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
	os.Exit(run())
}

func run() int {
	var (
		propName  = flag.String("prop", "", "verify only the named property")
		engine    = flag.String("engine", "verifas", "verification engine: verifas or spinlike")
		engineCSV = flag.String("engines", "", "comma-separated engine portfolio to race per property (e.g. verifas,spinlike); the first decisive verdict wins and the losers are canceled")
		portfolio = flag.Bool("portfolio", false, "race the default engine portfolio ("+strings.Join(engines.DefaultPortfolio, ",")+"); -engines overrides the set")
		noSet     = flag.Bool("noset", false, "ignore artifact relations (VERIFAS-NoSet)")
		noSP      = flag.Bool("nosp", false, "disable ⪯ state pruning")
		noSA      = flag.Bool("nosa", false, "disable static analysis")
		noDSS     = flag.Bool("nodss", false, "disable index data structures")
		noRR      = flag.Bool("norr", false, "disable the repeated-reachability module")
		timeout   = flag.Duration("timeout", 60*time.Second, "per-property timeout")
		maxStates = flag.Int("max-states", core.DefaultMaxStates, "state budget per search phase")
		memBudget = flag.String("mem-budget", "", "per-property memory budget (e.g. 64M, 2G; empty = unlimited); exhausting it yields a BUDGET verdict with partial stats")
		showTrace = flag.Bool("trace", true, "print counterexample traces")
		showStats = flag.Bool("stats", false, "print search statistics")
		witness   = flag.Bool("witness", false, "try to realize root-task counterexample prefixes concretely on random databases")
		workers   = flag.Int("j", 1, "verify up to N properties concurrently (output order is preserved)")
		events    = flag.String("events", "", "write the verification event stream to FILE as JSON lines")
		debugAddr = flag.String("debug-addr", "", "serve pprof and expvar on this address (e.g. localhost:6060)")
		server    = flag.String("server", "", "verify remotely on a verifasd daemon at this base URL or host:port")
		showVer   = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Printf("verifas %s %s\n", version.String(), runtime.Version())
		return 0
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: verifas [flags] SPEC.has")
		flag.PrintDefaults()
		return 2
	}
	memBytes, err := memsize.Parse(*memBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error: -mem-budget:", err)
		return 2
	}
	engineList := portfolioNames(*engineCSV, *portfolio)
	ablation := core.Options{
		IgnoreSets:               *noSet,
		NoStatePruning:           *noSP,
		NoStaticAnalysis:         *noSA,
		NoIndexes:                *noDSS,
		SkipRepeatedReachability: *noRR,
	}
	budget := core.Budget{Timeout: *timeout, MaxStates: *maxStates, MaxMemBytes: memBytes}
	var contenders []core.Engine
	if len(engineList) > 0 && *server == "" {
		// Contenders carry the shared budget but run unobserved; the
		// portfolio-level observer gets the engine-start/engine-done stream.
		contenders, err = engines.Default().BuildAll(engineList, budget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error: -engines:", err)
			return 2
		}
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 2
	}
	file, err := spec.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 2
	}
	m, mTask, mVar := cyclo.Complexity(file.System)
	st := file.System.Stats()
	fmt.Printf("system %s: %d relations, %d tasks, %d variables, %d services, M(A)=%d (task %s, var %s)\n",
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
			fmt.Fprintf(os.Stderr, "error: no property named %q in %s\n", *propName, flag.Arg(0))
			return 2
		}
	}
	if len(props) == 0 {
		fmt.Println("no properties to verify")
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "debug server:", err)
			return 2
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/ (metrics on /debug/vars)\n", dbg.Addr)
	}
	var tw *obs.TraceWriter
	var eventsF *os.File
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fmt.Fprintln(os.Stderr, "events:", err)
			return 2
		}
		defer f.Close()
		eventsF = f
		if *server == "" {
			tw = obs.NewTraceWriter(f)
		}
	}
	// observerFor attaches the event sinks to one property's run.
	observerFor := func(prop *core.Property) core.Observer {
		if tw == nil {
			return nil
		}
		return tw.Run(prop.Name)
	}

	// verifyProp renders one property's full report; with -j > 1 the
	// reports are produced concurrently and printed in property order.
	verifyProp := func(prop *core.Property) (string, int) {
		var sb strings.Builder
		if contenders != nil {
			return portfolioReport(ctx, file, prop, contenders, observerFor(prop), *showTrace, *showStats, *witness)
		}
		switch *engine {
		case "spinlike":
			b := budget
			b.Observer = observerFor(prop)
			res, err := spinlike.Verify(ctx, file.System, &spinlike.Property{
				Task: prop.Task, Globals: prop.Globals, Conds: prop.Conds, Formula: prop.Formula,
			}, spinlike.Options{Budget: b})
			if err != nil {
				fmt.Fprintf(&sb, "%s: error: %v\n", prop.Name, err)
				return sb.String(), 2
			}
			switch {
			case res.BudgetExhausted():
				fmt.Fprintf(&sb, "%-30s BUDGET   (%s, %d states, memory budget exhausted)\n", prop.Name, res.Stats.Elapsed.Round(time.Millisecond), res.Stats.States)
				return sb.String(), 2
			case res.TimedOut():
				fmt.Fprintf(&sb, "%-30s TIMEOUT  (%s, %d states)\n", prop.Name, res.Stats.Elapsed.Round(time.Millisecond), res.Stats.States)
				return sb.String(), 2
			case res.Holds():
				fmt.Fprintf(&sb, "%-30s HOLDS    (%s, %d states, bounded domain)\n", prop.Name, res.Stats.Elapsed.Round(time.Millisecond), res.Stats.States)
				return sb.String(), 0
			default:
				fmt.Fprintf(&sb, "%-30s VIOLATED (%s, %d states, bounded domain)\n", prop.Name, res.Stats.Elapsed.Round(time.Millisecond), res.Stats.States)
				return sb.String(), 1
			}
		default:
			opts := ablation
			opts.Budget = budget
			opts.Budget.Observer = observerFor(prop)
			res, err := core.Verify(ctx, file.System, prop, opts)
			if err != nil {
				fmt.Fprintf(&sb, "%s: error: %v\n", prop.Name, err)
				return sb.String(), 2
			}
			code := 0
			switch {
			case res.BudgetExhausted():
				fmt.Fprintf(&sb, "%-30s BUDGET   (%s, %d states, memory budget exhausted)\n", prop.Name, res.Stats.Elapsed.Round(time.Millisecond), res.Stats.StatesExplored())
				code = 2
			case res.TimedOut():
				fmt.Fprintf(&sb, "%-30s TIMEOUT  (%s, %d states)\n", prop.Name, res.Stats.Elapsed.Round(time.Millisecond), res.Stats.StatesExplored())
				code = 2
			case res.Holds():
				fmt.Fprintf(&sb, "%-30s HOLDS    (%s, %d states)\n", prop.Name, res.Stats.Elapsed.Round(time.Millisecond), res.Stats.StatesExplored())
			default:
				fmt.Fprintf(&sb, "%-30s VIOLATED (%s, %d states, %s counterexample)\n",
					prop.Name, res.Stats.Elapsed.Round(time.Millisecond), res.Stats.StatesExplored(), res.Violation.Kind)
				if *showTrace {
					printTrace(&sb, res.Violation)
				}
				if *witness && prop.Task == file.System.Root.Name {
					replayWitness(&sb, file.System, prefixAtoms(res.Violation))
				}
				code = 1
			}
			if *showStats {
				fmt.Fprintf(&sb, "  büchi=%d explored=%d pruned=%d skipped=%d accel=%d\n",
					res.Stats.BuchiStates, res.Stats.StatesExplored(), res.Stats.Pruned(),
					res.Stats.Skipped(), res.Stats.Accelerations())
				printPhase := func(name string, ps core.PhaseStats) {
					if ps.States == 0 && ps.Elapsed == 0 {
						return
					}
					fmt.Fprintf(&sb, "  %-8s states=%-8d pruned=%-8d skipped=%-8d accel=%-6d %s\n",
						name, ps.States, ps.Pruned, ps.Skipped, ps.Accelerations, ps.Elapsed.Round(time.Microsecond))
				}
				printPhase("reach", res.Stats.Reachability)
				printPhase("rr", res.Stats.RR)
			}
			return sb.String(), code
		}
	}

	// With -server, the same report loop runs against a remote verifasd
	// daemon through the service client instead of the in-process engines.
	// The daemon selects an ablation by engine name ("verifas-nosp"); a
	// flag combination it has not registered gets its unknown-engine 400.
	verify := verifyProp
	if *server != "" {
		remoteEngine := *engine
		if remoteEngine == "verifas" {
			remoteEngine = core.EngineName(ablation)
		}
		verify = remoteVerifier(ctx, *server, string(src), file, remoteFlags{
			engine:    remoteEngine,
			engines:   engineList,
			timeout:   *timeout,
			maxStates: *maxStates,
			memBudget: memBytes,
			showTrace: *showTrace,
			showStats: *showStats,
			witness:   *witness,
			eventsF:   eventsF,
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
		fmt.Print(reports[i])
		exit = max(exit, codes[i])
	}
	if tw != nil {
		if err := tw.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "events:", err)
			exit = max(exit, 2)
		}
	}
	return exit
}

// remoteFlags carries the CLI flags the remote mode maps onto request
// options and report formatting.
type remoteFlags struct {
	engine                        string
	engines                       []string
	timeout                       time.Duration
	maxStates                     int
	memBudget                     int64
	showTrace, showStats, witness bool
	eventsF                       *os.File
}

// remoteVerifier builds the per-property report function of -server mode:
// submit to the daemon, optionally stream the run's events into the
// -events file, then fetch the verdict. Cache hits are marked "cached" in
// the report.
func remoteVerifier(ctx context.Context, addr, src string, file *spec.File, rf remoteFlags) func(*core.Property) (string, int) {
	cl := client.New(addr)
	ropts := &service.RequestOptions{
		Engine:    rf.engine,
		TimeoutMS: rf.timeout.Milliseconds(),
		MaxStates: rf.maxStates,
		MemBudget: rf.memBudget,
	}
	if len(rf.engines) > 0 {
		// Portfolio mode: the daemon rejects engine+engines together.
		ropts.Engine = ""
		ropts.Engines = rf.engines
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
				fmt.Fprintln(os.Stderr, "events:", err)
			}
		}
		res, err := cl.Result(ctx, st.ID, true)
		if err != nil {
			fmt.Fprintf(&sb, "%s: error: %v\n", prop.Name, err)
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
		code := 0
		switch {
		case res.State == service.StateFailed || res.State == service.StateCanceled:
			fmt.Fprintf(&sb, "%s: error: %s\n", prop.Name, res.Error)
			return sb.String(), 2
		case res.Verdict == core.VerdictBudget.String():
			fmt.Fprintf(&sb, "%-30s BUDGET   (%s, %d states, memory budget exhausted%s)\n", prop.Name, elapsed, states, cached)
			code = 2
		case res.Verdict == core.VerdictTimedOut.String():
			fmt.Fprintf(&sb, "%-30s TIMEOUT  (%s, %d states%s)\n", prop.Name, elapsed, states, cached)
			code = 2
		case res.Verdict == core.VerdictHolds.String():
			fmt.Fprintf(&sb, "%-30s HOLDS    (%s, %d states%s)\n", prop.Name, elapsed, states, cached)
		default:
			kind := ""
			if res.Violation != nil {
				kind = res.Violation.Kind + " "
			}
			fmt.Fprintf(&sb, "%-30s VIOLATED (%s, %d states, %scounterexample%s)\n",
				prop.Name, elapsed, states, kind, cached)
			if res.Violation != nil {
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
			code = 1
		}
		if rf.showStats && res.Stats != nil {
			fmt.Fprintf(&sb, "  büchi=%d explored=%d pruned=%d skipped=%d accel=%d\n",
				res.Stats.BuchiStates, res.Stats.StatesExplored(), res.Stats.Pruned(),
				res.Stats.Skipped(), res.Stats.Accelerations())
		}
		return sb.String(), code
	}
}

// portfolioNames resolves the -engines/-portfolio flags into the ordered
// contender list (nil when portfolio mode is off). The order is the
// deterministic tie-break priority.
func portfolioNames(csv string, useDefault bool) []string {
	if csv != "" {
		var names []string
		for _, n := range strings.Split(csv, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		return names
	}
	if useDefault {
		return append([]string(nil), engines.DefaultPortfolio...)
	}
	return nil
}

// portfolioReport races the contenders on one property and renders the
// merged report. Engine disagreement on a decisive verdict surfaces as a
// hard error (exit 2), never as a silently merged verdict.
func portfolioReport(ctx context.Context, file *spec.File, prop *core.Property, contenders []core.Engine, observer core.Observer, showTrace, showStats, witness bool) (string, int) {
	var sb strings.Builder
	res, err := core.VerifyPortfolio(ctx, file.System, prop, core.PortfolioOptions{
		Engines:  contenders,
		Observer: observer,
	})
	if err != nil {
		fmt.Fprintf(&sb, "%s: error: %v\n", prop.Name, err)
		return sb.String(), 2
	}
	note := ""
	if p := res.Portfolio; p != nil && p.Winner != "" {
		note = ", won by " + p.Winner
	}
	elapsed := res.Stats.Elapsed.Round(time.Millisecond)
	states := res.Stats.StatesExplored()
	code := 0
	switch {
	case res.BudgetExhausted():
		fmt.Fprintf(&sb, "%-30s BUDGET   (%s, %d states, memory budget exhausted%s)\n", prop.Name, elapsed, states, note)
		code = 2
	case res.TimedOut():
		fmt.Fprintf(&sb, "%-30s TIMEOUT  (%s, %d states%s)\n", prop.Name, elapsed, states, note)
		code = 2
	case res.Holds():
		fmt.Fprintf(&sb, "%-30s HOLDS    (%s, %d states%s)\n", prop.Name, elapsed, states, note)
	default:
		kind := ""
		if res.Violation != nil {
			kind = res.Violation.Kind + " "
		}
		fmt.Fprintf(&sb, "%-30s VIOLATED (%s, %d states, %scounterexample%s)\n", prop.Name, elapsed, states, kind, note)
		if res.Violation != nil {
			if showTrace {
				printTrace(&sb, res.Violation)
			}
			if witness && prop.Task == file.System.Root.Name {
				replayWitness(&sb, file.System, prefixAtoms(res.Violation))
			}
		}
		code = 1
	}
	if showStats && res.Portfolio != nil {
		for _, o := range res.Portfolio.Engines {
			status := o.Verdict.String()
			switch {
			case o.Canceled:
				status = "canceled"
			case o.Error != "":
				status = "error: " + o.Error
			}
			mark := " "
			if o.Winner {
				mark = "*"
			}
			fmt.Fprintf(&sb, "  %s %-22s %-16s %10s  states=%d\n",
				mark, o.Engine, status, o.Elapsed.Round(time.Millisecond), o.States)
		}
	}
	return sb.String(), code
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
