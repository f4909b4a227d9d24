package benchmark

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"verifas/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

const suiteDigestPath = "testdata/suite-digest.golden"

// digestSuites are the benchmark module's two in-process suites with
// their state budgets: every real workflow, and the four wide synthetic
// specifications of synth-wide at MaxStates 1000. No wall-clock timeout
// is set, so every outcome is a pure function of the code.
func digestSuites(t *testing.T) []struct {
	specs     []*Spec
	maxStates int
} {
	t.Helper()
	wide, err := SynthWide()
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		specs     []*Spec
		maxStates int
	}{
		{RealSuite(), DefaultConfig().MaxStates},
		{wide, 1000},
	}
}

// runDigest hashes everything a run's outcome consists of: the verdict,
// each search phase's counters (states, pruned, skipped, accelerations,
// estimated retained bytes) and the witness.
func runDigest(res *core.Result) string {
	witness, err := json.Marshal(res.Violation)
	if err != nil {
		panic(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", res.Verdict)
	for _, ph := range []core.PhaseStats{res.Stats.Reachability, res.Stats.RR} {
		fmt.Fprintf(h, "%d %d %d %d %d\n", ph.States, ph.Pruned, ph.Skipped, ph.Accelerations, ph.MemBytes)
	}
	h.Write(witness)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestSuiteDigestGolden verifies the 264 items of the real-suite and
// synth-wide benchmark workloads (each spec with its 12 template
// properties, seeded as RunSuite seeds them) and compares each item's
// outcome digest with a committed golden file. A change that claims to
// leave the search untouched — a faster representation, a new cache —
// must keep every line. Run with -update only when outcomes are meant to
// change.
func TestSuiteDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("verifies 264 suite items")
	}
	var b strings.Builder
	for _, suite := range digestSuites(t) {
		cfg := DefaultConfig()
		cfg.Timeout = 0
		cfg.MaxStates = suite.maxStates
		eng, err := cfg.Engine(VVerifas, nil)
		if err != nil {
			t.Fatal(err)
		}
		for si, s := range suite.specs {
			for _, p := range Properties(s.Sys, cfg.Seed+int64(si)) {
				res, err := eng.Verify(context.Background(), s.Sys, p)
				if err != nil {
					t.Fatalf("%s|%s: %v", s.Name, p.Name, err)
				}
				fmt.Fprintf(&b, "%s|%s\t%s\t%s\n", s.Name, p.Name, res.Verdict, runDigest(res))
			}
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(suiteDigestPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(suiteDigestPath)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d items, %s has %d", len(gl)-1, suiteDigestPath, len(wl)-1)
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("item %d differs from %s:\ngot:  %s\nwant: %s", i+1, suiteDigestPath, gl[i], wl[i])
		}
	}
}
