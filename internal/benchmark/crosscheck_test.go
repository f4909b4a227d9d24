package benchmark

import (
	"context"
	"testing"

	"verifas/internal/core"
)

// TestCrossCheckRealSuite runs the bounded explicit-state baseline and
// VERIFAS-NoSet on every real-suite item. Both verify the same
// abstraction (artifact relations ignored), and every violation the
// bounded search finds is a run over finitely many values, hence a real
// run: spinlike "violated" with verifas-noset "holds" means VERIFAS is
// unsound (DESIGN.md §6). The converse may differ, since a violation can
// need more values than the bound. spinlike runs at 1,000 states, which
// already finds most of the suite's violations.
func TestCrossCheckRealSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("verifies 216 suite items with two engines")
	}
	cfg := DefaultConfig()
	cfg.SpinMaxStates = 1000
	cfg.Workers = 2
	specs := RealSuite()
	bounded := RunSuite(context.Background(), specs, VSpinlike, cfg)
	noset := RunSuite(context.Background(), specs, VVerifasNoSet, cfg)
	checked := 0
	for i, s := range bounded {
		v := noset[i]
		if s.Err != nil || v.Err != nil {
			t.Fatalf("%s|%s: spinlike err %v, verifas-noset err %v", s.Spec.Name, s.Template, s.Err, v.Err)
		}
		if s.Verdict != core.VerdictViolated {
			continue
		}
		checked++
		if v.Verdict == core.VerdictHolds {
			t.Errorf("%s|%s: spinlike finds a violation, verifas-noset says holds (UNSOUND)", s.Spec.Name, s.Template)
		}
	}
	t.Logf("%d spinlike violations cross-checked over %d items", checked, len(bounded))
	if checked == 0 {
		t.Fatal("spinlike found no violation to cross-check")
	}
}
