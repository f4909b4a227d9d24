package benchmark

import (
	"context"
	"testing"

	"verifas/internal/core"
)

// heavyRealItems are the four real-suite items (spec|template) with the
// largest searches: 14k, 10k, 8.7k and 6.5k reachability and RR states.
// They are pruning-heavy, so act maintenance (index queries, ⪯ checks and
// tree walks) takes much of their CPU.
var heavyRealItems = []string{
	"TravelBooking|G(p || G q)",
	"TravelBooking|GF p -> GF q",
	"TravelBooking|G(p || G !p)",
	"OrderFulfillment|G(p || G !p)",
}

// BenchmarkVerifyRealSuite verifies heavyRealItems with the default
// verifier under the real-suite budgets (no wall-clock timeout), one
// iteration per op, properties seeded as RunSuite seeds them.
func BenchmarkVerifyRealSuite(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Timeout = 0
	eng, err := cfg.Engine(VVerifas, nil)
	if err != nil {
		b.Fatal(err)
	}
	want := map[string]bool{}
	for _, id := range heavyRealItems {
		want[id] = true
	}
	type item struct {
		spec *Spec
		prop *core.Property
	}
	var items []item
	for si, s := range RealSuite() {
		for _, p := range Properties(s.Sys, cfg.Seed+int64(si)) {
			if want[s.Name+"|"+p.Name] {
				items = append(items, item{s, p})
			}
		}
	}
	if len(items) != len(heavyRealItems) {
		b.Fatalf("found %d of the %d items", len(items), len(heavyRealItems))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, it := range items {
			if _, err := eng.Verify(context.Background(), it.spec.Sys, it.prop); err != nil {
				b.Fatal(err)
			}
		}
	}
}
