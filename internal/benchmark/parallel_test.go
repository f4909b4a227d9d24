package benchmark

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestParallelMatchesSerial is the determinism stress test of the worker
// pool: a parallel suite must return the same runs, in the same order,
// with the same verdicts as a serial one — only timings may differ. The
// config bounds runs by the state budget, not the wall clock, so that
// "Fail" is load-independent (a wall-clock timeout near the boundary can
// legitimately flip when workers share the CPU, e.g. under -race).
func TestParallelMatchesSerial(t *testing.T) {
	specs := RealSuite()[:3]
	cfg := quickCfg()
	cfg.Timeout = 5 * time.Minute
	cfg.MaxStates = 20_000
	serial := RunSuite(context.Background(), specs, VVerifas, cfg)
	par := cfg
	par.Workers = 4
	parallel := RunSuite(context.Background(), specs, VVerifas, par)

	if len(serial) != len(parallel) {
		t.Fatalf("run counts differ: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Spec.Name != p.Spec.Name || s.Template != p.Template ||
			s.Class != p.Class || s.Verifier != p.Verifier {
			t.Errorf("run %d identity differs: serial %s/%s, parallel %s/%s",
				i, s.Spec.Name, s.Template, p.Spec.Name, p.Template)
		}
		if s.Verdict != p.Verdict || s.Fail != p.Fail {
			t.Errorf("run %d verdict differs: serial verdict=%v fail=%v, parallel verdict=%v fail=%v",
				i, s.Verdict, s.Fail, p.Verdict, p.Fail)
		}
		if (s.Err == nil) != (p.Err == nil) {
			t.Errorf("run %d error status differs: serial %v, parallel %v", i, s.Err, p.Err)
		}
	}
}

// TestOnRunOrder checks that OnRun fires once per run, in suite order,
// even when the pool completes the runs out of order.
func TestOnRunOrder(t *testing.T) {
	specs := RealSuite()[:2]
	cfg := quickCfg()
	cfg.Workers = 4
	var seen []Run
	cfg.OnRun = func(r Run) { seen = append(seen, r) }
	runs := RunSuite(context.Background(), specs, VVerifas, cfg)
	if len(seen) != len(runs) {
		t.Fatalf("OnRun fired %d times for %d runs", len(seen), len(runs))
	}
	for i := range runs {
		if seen[i].Spec.Name != runs[i].Spec.Name || seen[i].Template != runs[i].Template {
			t.Errorf("OnRun %d out of order: got %s/%s, want %s/%s",
				i, seen[i].Spec.Name, seen[i].Template, runs[i].Spec.Name, runs[i].Template)
		}
	}
}

func TestProgressLine(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg()
	cfg.Workers = 2
	cfg.Progress = &buf
	RunSuite(context.Background(), RealSuite()[:1], VVerifas, cfg)
	out := buf.String()
	if !strings.Contains(out, "12/12 done") {
		t.Errorf("progress line missing completion count: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("finish() must terminate the progress line")
	}
}

// TestSuiteCancellation checks that a cancelled context stops the suite
// promptly and marks unfinished runs with the context error.
func TestSuiteCancellation(t *testing.T) {
	cfg := quickCfg()
	cfg.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	runs := RunSuite(ctx, RealSuite()[:2], VVerifas, cfg)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled suite took %s", elapsed)
	}
	for i, r := range runs {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("run %d: got err %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	cfg := quickCfg()
	specs := RealSuite()[:1]
	runs := RunSuite(context.Background(), specs, VVerifas, cfg)
	var buf bytes.Buffer
	for _, r := range runs {
		if err := WriteRecord(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(runs) {
		t.Fatalf("%d JSON lines for %d runs", len(lines), len(runs))
	}
	for i, line := range lines {
		if !strings.Contains(line, `"spec":"`+specs[0].Name+`"`) {
			t.Errorf("line %d missing spec name: %s", i, line)
		}
		if !strings.Contains(line, `"verifier":"verifas"`) {
			t.Errorf("line %d missing verifier: %s", i, line)
		}
		if runs[i].Err == nil && strings.Contains(line, `"err"`) {
			t.Errorf("line %d has err field for a clean run: %s", i, line)
		}
	}
}
