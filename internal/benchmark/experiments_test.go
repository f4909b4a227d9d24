package benchmark

import (
	"context"
	"strings"
	"testing"
	"time"
)

func tinyCfg() Config {
	return Config{
		Timeout:       2 * time.Second,
		MaxStates:     100_000,
		SpinMaxStates: 20_000,
		Seed:          3,
	}
}

func TestTable2Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("slow driver test")
	}
	real := RealSuite()[:2]
	synth := SyntheticSuite(1, 21)
	out := Table2(context.Background(), real, synth, tinyCfg())
	// Row labels are engine names; the trailing space keeps "verifas"
	// from matching inside "verifas-noset".
	for _, want := range []string{"spinlike ", "verifas-noset ", "verifas ", "#Fail"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, out)
		}
	}
	t.Log("\n" + out)
}

func TestTable3Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("slow driver test")
	}
	real := RealSuite()[:2]
	out := Table3(context.Background(), real, nil, tinyCfg())
	for _, want := range []string{"SP", "SA", "DSS", "Trimmed"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 missing %q:\n%s", want, out)
		}
	}
	t.Log("\n" + out)
}

func TestTable4Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("slow driver test")
	}
	real := RealSuite()[:2]
	out := Table4(context.Background(), real, nil, tinyCfg())
	for _, want := range []string{"False", "Safety", "Liveness", "Fairness"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 missing %q:\n%s", want, out)
		}
	}
	t.Log("\n" + out)
}

func TestRROverheadDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("slow driver test")
	}
	real := RealSuite()[:2]
	out := RROverhead(context.Background(), real, nil, tinyCfg())
	if !strings.Contains(out, "overhead") {
		t.Errorf("RR overhead malformed:\n%s", out)
	}
	t.Log("\n" + out)
}

func TestStatisticsHelpers(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	if m := mean(xs); m != 22 {
		t.Errorf("mean = %v", m)
	}
	// Trimmed mean with 5 elements drops nothing (5/20 = 0).
	if tm := trimmedMean(xs); tm != 22 {
		t.Errorf("trimmedMean = %v", tm)
	}
	big := make([]float64, 40)
	for i := range big {
		big[i] = 1
	}
	big[0] = 10000 // extreme value trimmed away
	if tm := trimmedMean(big); tm != 1 {
		t.Errorf("trimmedMean with outlier = %v", tm)
	}
	if mean(nil) != 0 || trimmedMean(nil) != 0 {
		t.Error("empty-input helpers should return 0")
	}
}

func TestSpeedupsSkipFailures(t *testing.T) {
	on := []Run{{Time: time.Second}, {Time: time.Second, Fail: true}, {Time: 2 * time.Second}}
	off := []Run{{Time: 2 * time.Second}, {Time: time.Second}, {Time: 8 * time.Second}}
	sp := speedups(on, off)
	if len(sp) != 2 || sp[0] != 2 || sp[1] != 4 {
		t.Errorf("speedups = %v", sp)
	}
}
