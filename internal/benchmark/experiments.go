package benchmark

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// This file regenerates the paper's evaluation artifacts. Each function
// returns a formatted report matching the corresponding table/figure.

// Table1 reports the statistics of the two workflow sets (paper Table 1).
func Table1(real, synthetic []*Spec) string {
	row := func(name string, specs []*Spec) string {
		var rels, tasks, vars, svcs float64
		for _, s := range specs {
			st := s.Sys.Stats()
			rels += float64(st.Relations)
			tasks += float64(st.Tasks)
			vars += float64(st.Variables)
			svcs += float64(st.Services)
		}
		n := float64(len(specs))
		if n == 0 {
			n = 1
		}
		return fmt.Sprintf("%-10s %5d %10.3f %8.3f %10.2f %9.2f",
			name, len(specs), rels/n, tasks/n, vars/n, svcs/n)
	}
	var sb strings.Builder
	sb.WriteString("Table 1: Statistics of the Two Sets of Workflows\n")
	sb.WriteString("Dataset     Size #Relations   #Tasks #Variables #Services\n")
	sb.WriteString(row("Real", real) + "\n")
	sb.WriteString(row("Synthetic", synthetic) + "\n")
	return sb.String()
}

// avgTime implements the failure-accounting policy of the tables: runs
// that completed or timed out participate at their measured elapsed time
// (a timed-out run's elapsed time is the timeout budget, the paper's
// convention of charging failures the full budget), while hard-errored
// runs are excluded entirely — their zero elapsed time would otherwise
// drag the Tables 2-4 averages down.
func avgTime(runs []Run) time.Duration {
	var total time.Duration
	n := 0
	for _, r := range runs {
		if r.Err != nil {
			continue
		}
		total += r.Time
		n++
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// failures counts every run that did not produce a verdict — budget
// exhaustion plus hard errors (the paper's "#Fail"). Use timeouts and
// errored for the split.
func failures(runs []Run) int {
	return timeouts(runs) + errored(runs)
}

// timeouts counts runs that exhausted their wall-clock or state budget.
func timeouts(runs []Run) int {
	n := 0
	for _, r := range runs {
		if r.Fail && r.Err == nil {
			n++
		}
	}
	return n
}

// errored counts runs aborted by a hard verifier error.
func errored(runs []Run) int {
	n := 0
	for _, r := range runs {
		if r.Err != nil {
			n++
		}
	}
	return n
}

// Table2 compares the spin-like baseline, VERIFAS-NoSet and VERIFAS on
// both suites (paper Table 2: average elapsed time and number of failed
// runs).
func Table2(ctx context.Context, real, synthetic []*Spec, cfg Config) string {
	var sb strings.Builder
	sb.WriteString("Table 2: Average Elapsed Time and Number of Failed Runs\n")
	sb.WriteString(fmt.Sprintf("%-16s %12s %9s %12s %9s\n",
		"Verifier", "Real Avg", "R-#Fail", "Synth Avg", "S-#Fail"))
	for _, v := range []string{VSpinlike, VVerifasNoSet, VVerifas} {
		rr := RunSuite(ctx, real, v, cfg)
		sr := RunSuite(ctx, synthetic, v, cfg)
		sb.WriteString(fmt.Sprintf("%-16s %12s %9d %12s %9d\n",
			v, avgTime(rr).Round(time.Microsecond), failures(rr),
			avgTime(sr).Round(time.Microsecond), failures(sr)))
	}
	return sb.String()
}

// speedups computes per-run time ratios baseline/optimized, skipping runs
// that timed out or errored under either configuration.
func speedups(on, off []Run) []float64 {
	var out []float64
	for i := range on {
		if i >= len(off) || on[i].Fail || off[i].Fail || on[i].Err != nil || off[i].Err != nil {
			continue
		}
		a := on[i].Time.Seconds()
		b := off[i].Time.Seconds()
		if a <= 0 {
			a = 1e-9
		}
		out = append(out, b/a)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// trimmedMean drops the top and bottom 5% before averaging (the paper's
// Table 3 guards against extreme speedups the same way).
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	k := len(sorted) / 20
	sorted = sorted[k : len(sorted)-k]
	return mean(sorted)
}

// Table3 measures the speedup of each optimization (paper Table 3):
// SP = ⪯ state pruning, SA = static analysis, DSS = index structures.
func Table3(ctx context.Context, real, synthetic []*Spec, cfg Config) string {
	var sb strings.Builder
	sb.WriteString("Table 3: Mean and Trimmed Mean (5%) of Optimization Speedups\n")
	sb.WriteString(fmt.Sprintf("%-10s %-12s %10s %10s\n", "Dataset", "Opt", "Mean", "Trimmed"))
	for _, set := range []struct {
		name  string
		specs []*Spec
	}{{"Real", real}, {"Synthetic", synthetic}} {
		on := RunSuite(ctx, set.specs, VVerifas, cfg)
		for _, opt := range []struct{ name, verifier string }{
			{"SP", VNoSP}, {"SA", VNoSA}, {"DSS", VNoDSS},
		} {
			off := RunSuite(ctx, set.specs, opt.verifier, cfg)
			sp := speedups(on, off)
			sb.WriteString(fmt.Sprintf("%-10s %-12s %9.2fx %9.2fx\n",
				set.name, opt.name, mean(sp), trimmedMean(sp)))
		}
	}
	return sb.String()
}

// Table4 reports the average running time per LTL template class (paper
// Table 4).
func Table4(ctx context.Context, real, synthetic []*Spec, cfg Config) string {
	tmpls := Templates()
	rr := RunSuite(ctx, real, VVerifas, cfg)
	sr := RunSuite(ctx, synthetic, VVerifas, cfg)
	byTemplate := func(runs []Run, name string) []Run {
		var out []Run
		for _, r := range runs {
			if r.Template == name {
				out = append(out, r)
			}
		}
		return out
	}
	var sb strings.Builder
	sb.WriteString("Table 4: Average Running Time per LTL Template\n")
	sb.WriteString(fmt.Sprintf("%-34s %-9s %12s %12s\n", "Template", "Class", "Real", "Synthetic"))
	for _, t := range tmpls {
		sb.WriteString(fmt.Sprintf("%-34s %-9s %12s %12s\n",
			t.Name, t.Class,
			avgTime(byTemplate(rr, t.Name)).Round(time.Microsecond),
			avgTime(byTemplate(sr, t.Name)).Round(time.Microsecond)))
	}
	return sb.String()
}

// Figure9Point is one specification's data point: average verification
// time over its 12 properties against its cyclomatic complexity.
// Timeouts counts budget exhaustion only; hard errors are reported
// separately in Errors (they used to be conflated under "Timeouts").
type Figure9Point struct {
	Spec     string
	Set      string
	M        int
	AvgTime  time.Duration
	Timeouts int
	Errors   int
}

// Figure9 produces the running-time-vs-cyclomatic-complexity series of
// the paper's Figure 9.
func Figure9(ctx context.Context, real, synthetic []*Spec, cfg Config) ([]Figure9Point, string) {
	var points []Figure9Point
	for _, specs := range [][]*Spec{real, synthetic} {
		for _, spec := range specs {
			runs := RunSuite(ctx, []*Spec{spec}, VVerifas, cfg)
			points = append(points, Figure9Point{
				Spec:     spec.Name,
				Set:      spec.Set,
				M:        spec.M,
				AvgTime:  avgTime(runs),
				Timeouts: timeouts(runs),
				Errors:   errored(runs),
			})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].M < points[j].M })
	var sb strings.Builder
	sb.WriteString("Figure 9: Average Running Time vs Cyclomatic Complexity\n")
	sb.WriteString(fmt.Sprintf("%-10s %-26s %4s %12s %9s %7s\n", "Set", "Spec", "M", "AvgTime", "Timeouts", "Errors"))
	for _, p := range points {
		sb.WriteString(fmt.Sprintf("%-10s %-26s %4d %12s %9d %7d\n",
			p.Set, p.Spec, p.M, p.AvgTime.Round(time.Microsecond), p.Timeouts, p.Errors))
	}
	return points, sb.String()
}

// RROverhead measures the overhead of the repeated-reachability module
// (paper Section 4.2: 19.03% real / 13.55% synthetic).
func RROverhead(ctx context.Context, real, synthetic []*Spec, cfg Config) string {
	var sb strings.Builder
	sb.WriteString("Repeated-Reachability Overhead (full vs reachability-only)\n")
	for _, set := range []struct {
		name  string
		specs []*Spec
	}{{"Real", real}, {"Synthetic", synthetic}} {
		full := RunSuite(ctx, set.specs, VVerifas, cfg)
		noRR := RunSuite(ctx, set.specs, VNoRR, cfg)
		var overheads []float64
		for i := range full {
			if full[i].Fail || noRR[i].Fail || full[i].Err != nil || noRR[i].Err != nil || noRR[i].Time <= 0 {
				continue
			}
			overheads = append(overheads,
				(full[i].Time.Seconds()-noRR[i].Time.Seconds())/noRR[i].Time.Seconds())
		}
		sb.WriteString(fmt.Sprintf("%-10s %6.2f%% average overhead over %d runs\n",
			set.name, 100*mean(overheads), len(overheads)))
	}
	return sb.String()
}
