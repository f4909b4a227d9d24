package benchmark

import (
	"context"
	"strings"
	"testing"
	"time"

	"verifas/internal/fol"
	"verifas/internal/has"
	"verifas/internal/ltl"
)

func quickCfg() Config {
	return Config{
		Timeout:       3 * time.Second,
		MaxStates:     150_000,
		SpinMaxStates: 30_000,
		Seed:          1,
	}
}

func TestTemplatesCount(t *testing.T) {
	ts := Templates()
	if len(ts) != 12 {
		t.Fatalf("got %d templates, want 12 (Table 4)", len(ts))
	}
	classes := map[string]int{}
	for _, tm := range ts {
		classes[tm.Class]++
		f := tm.Build("p", "q")
		if f == nil {
			t.Errorf("template %s builds nil", tm.Name)
		}
	}
	// Paper: 1 baseline, 5 safety, 2 liveness, 4 fairness.
	if classes["Baseline"] != 1 || classes["Safety"] != 5 || classes["Liveness"] != 2 || classes["Fairness"] != 4 {
		t.Errorf("class distribution wrong: %v", classes)
	}
}

func TestPropertiesAreValid(t *testing.T) {
	for _, spec := range RealSuite()[:4] {
		props := Properties(spec.Sys, 7)
		if len(props) != 12 {
			t.Fatalf("%s: %d properties", spec.Name, len(props))
		}
		for _, p := range props {
			// The conditions must type-check against the root scope.
			scope := has.TaskScope(spec.Sys.Root)
			for name, f := range p.Conds {
				if err := spec.Sys.CheckCondition(f, scope, name); err != nil {
					t.Errorf("%s/%s: invalid condition: %v", spec.Name, p.Name, err)
				}
			}
			if len(ltl.Atoms(p.Formula)) > 2 {
				t.Errorf("%s/%s: too many atoms", spec.Name, p.Name)
			}
		}
	}
}

func TestPropertiesDeterministic(t *testing.T) {
	spec := RealSuite()[0]
	a := Properties(spec.Sys, 3)
	b := Properties(spec.Sys, 3)
	for i := range a {
		for k := range a[i].Conds {
			if fol.String(a[i].Conds[k]) != fol.String(b[i].Conds[k]) {
				t.Fatal("property generation not deterministic")
			}
		}
	}
}

func TestSyntheticSuiteGeneration(t *testing.T) {
	specs := SyntheticSuite(6, 99)
	if len(specs) != 6 {
		t.Fatalf("generated %d specs", len(specs))
	}
	for _, s := range specs {
		if err := s.Sys.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if s.M < 1 {
			t.Errorf("%s: complexity %d", s.Name, s.M)
		}
	}
}

func TestTable1Format(t *testing.T) {
	real := RealSuite()
	synthetic := SyntheticSuite(4, 5)
	out := Table1(real, synthetic)
	if !strings.Contains(out, "Real") || !strings.Contains(out, "Synthetic") {
		t.Errorf("Table 1 malformed:\n%s", out)
	}
	t.Log("\n" + out)
}

func TestRunSuiteSmall(t *testing.T) {
	real := RealSuite()[:2]
	cfg := quickCfg()
	runs := RunSuite(context.Background(), real, VVerifas, cfg)
	if len(runs) != 24 {
		t.Fatalf("got %d runs, want 24 (2 specs × 12 templates)", len(runs))
	}
	fails := failures(runs)
	if fails > 4 {
		t.Errorf("%d/24 runs failed under the quick budget", fails)
	}
	for _, r := range runs {
		if r.Class == "" {
			t.Error("run missing template class")
		}
	}
}

func TestFigure9Small(t *testing.T) {
	real := RealSuite()[:3]
	points, out := Figure9(context.Background(), real, nil, quickCfg())
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	if !strings.Contains(out, "Cyclomatic") {
		t.Error("figure header missing")
	}
	t.Log("\n" + out)
}

func TestVerifierVariantsAgree(t *testing.T) {
	// Every VERIFAS variant must produce the same verdicts (NoSet and
	// spinlike may differ: different models/bounds).
	spec := RealSuite()[0]
	props := Properties(spec.Sys, 2)[:6]
	cfg := quickCfg()
	for _, prop := range props {
		var verdicts []bool
		var fails []bool
		for _, v := range []string{VVerifas, VNoSP, VNoSA, VNoDSS} {
			r := RunOne(context.Background(), spec, prop, v, cfg)
			verdicts = append(verdicts, r.Holds())
			fails = append(fails, r.Fail)
		}
		for i := 1; i < len(verdicts); i++ {
			if !fails[0] && !fails[i] && verdicts[i] != verdicts[0] {
				t.Errorf("prop %s: verdict disagreement across optimization variants: %v (fails %v)",
					prop.Name, verdicts, fails)
			}
		}
	}
}
