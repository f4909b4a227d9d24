package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"verifas/internal/spec"
)

func TestScheduleIsDeterministic(t *testing.T) {
	const keys = 100
	a, b := newSchedule(keys, 7), newSchedule(keys, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if reflect.DeepEqual(a, newSchedule(keys, 8)) {
		t.Fatal("two seeds gave one schedule")
	}
	if len(a) != keys*requestsPerKey {
		t.Fatalf("length %d, want %d", len(a), keys*requestsPerKey)
	}
	// Twenty uniform draws per key leave a key undrawn with odds e^-20, so
	// every key is drawn: 100 of the 2000 requests, 5%, are misses.
	seen := map[int]bool{}
	for _, k := range a {
		seen[k] = true
	}
	if len(seen) != keys {
		t.Fatalf("%d keys drawn, want %d", len(seen), keys)
	}
}

func TestPercentileRankRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.01, 1}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g = %v, %v; want %v", c.p*100, got, err, c.want)
		}
	}
	// p91 of 100 leaves 9 samples beyond it.
	if _, err := percentile(xs, 0.91); err == nil {
		t.Error("p91 of 100 samples accepted with 9 beyond")
	}
	// p50 of 21 is the 11th sample, with 10 beyond; of 20, only 10 are left
	// beyond the 10th; of 19, the 10th leaves 9.
	if got, err := percentile(xs[:21], 0.5); err != nil || got != 90 {
		t.Errorf("p50 of 21 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(xs[:20], 0.5); err != nil {
		t.Errorf("p50 of 20: %v", err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples accepted with 9 beyond")
	}
	// 0.9*10 is 9.000000000000002 in floating point; the rank is still 9.
	if got := quantile(xs[90:], 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{SpanID: 1, Start: 0, End: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"leaf", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 50, End: 70}}, 70},
		{"overlapping", []span{{Start: 10, End: 30}, {Start: 20, End: 40}}, 70},
		{"nested", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"clipped", []span{{Start: -10, End: 10}, {Start: 90, End: 120}}, 80},
		{"outside", []span{{Start: 100, End: 150}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
	tr := newTracer()
	t0 := tr.t0
	root := tr.id()
	tr.record(root, root, "child", t0.Add(10), t0.Add(40))
	tr.add(root, root, 0, "root", t0, t0.Add(100))
	if s := tr.summary()["root"]; s.Count != 1 || s.SelfMS != 70e-6 {
		t.Errorf("root summary %+v, want one span with 70ns self time", s)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metrics the program reports equal
// to the ones BENCHMARK.json declares, in name and unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) []metricSpec {
		var out []metricSpec
		for _, m := range ms {
			out = append(out, metricSpec{m.Name, m.Unit})
		}
		return out
	}
	if got := declared(b.EndToEnd); !reflect.DeepEqual(got, endToEndMetrics) {
		t.Errorf("end_to_end %v, program reports %v", got, endToEndMetrics)
	}
	if got := declared(b.PerLayer); !reflect.DeepEqual(got, perLayerMetrics) {
		t.Errorf("per_layer %v, program reports %v", got, perLayerMetrics)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not in the program", w.Name)
		}
	}
}

func TestGoldenCoversEveryInput(t *testing.T) {
	for name, w := range workloads {
		items, err := w.items()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g, err := loadGolden(w, items)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Verdicts) != len(items) {
			t.Errorf("%s: %d golden verdicts for %d inputs", name, len(g.Verdicts), len(items))
		}
	}
}

func TestGoldenCheck(t *testing.T) {
	items := []item{{id: "a"}, {id: "b"}, {id: "u"}}
	g := &golden{Verdicts: map[string]string{"a": "holds", "b": "violated", "u": "timed-out"}}
	failed, wrong := g.check(items, []op{
		{item: 0, verdict: "holds"},
		{item: 1, verdict: "holds"},     // wrong
		{item: 1, verdict: "timed-out"}, // failed: golden is decisive
		{item: 2, verdict: "violated"},  // fine: golden is undecided
		{item: 2, verdict: "timed-out"},
		{item: 0, err: os.ErrClosed}, // failed
	})
	if failed != 2 || len(wrong) != 1 || !strings.HasPrefix(wrong[0], "b:") {
		t.Errorf("failed %d, wrong %v; want 2 failed and b wrong", failed, wrong)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestParseProfileAttributesCPU(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Fatal("no samples")
	}
	if s := p.share(prefix("verifas/bench.spin")); s < 0.5 {
		t.Errorf("spin has %.2f of the CPU, want most of it", s)
	}
	if s := p.share(prefix("verifas/internal/setindex.")); s != 0 {
		t.Errorf("setindex has %.2f of the CPU, want none", s)
	}
}

// TestCrashReproducerLoads keeps the committed reproducer parseable and
// valid; verifying it crashes the process, so the test stops short of that.
func TestCrashReproducerLoads(t *testing.T) {
	src, err := os.ReadFile("testdata/crash-addeq.has")
	if err != nil {
		t.Fatal(err)
	}
	f, err := spec.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.System.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.Properties) != 1 {
		t.Fatalf("%d properties, want 1", len(f.Properties))
	}
}
