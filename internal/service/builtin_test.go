package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"
	"testing"
	"time"

	"verifas/internal/benchmark"
	"verifas/internal/core"
	"verifas/internal/has"
	"verifas/internal/spec"
	"verifas/internal/workflows"
)

// builtinKeysDigest is the SHA-256 over the cache keys of every built-in
// workflow × the 12 Table-4 templates (property seed 1, default options),
// one key per line in workflows.All order. The keys name entries of the
// persistent store, so a change here orphans every stored verdict of a
// built-in workflow: change the key format only on purpose.
const builtinKeysDigest = "f3a89cf5a1f7a541cbb86a60f6c24032d38474bbc3aaeb1cfb89ee648544e289"

// propertySource renders p as a standalone property block.
func propertySource(sys *has.System, p *core.Property) string {
	src := spec.Print(&spec.File{System: sys, Properties: []*core.Property{p}})
	return src[strings.LastIndex(src, "\nproperty ")+1:]
}

// TestBuiltinKeysStable: the key of a built-in submission, taken from the
// table's stored text, equals the key derived from a freshly built
// system printed on the spot, for every workflow × template, and the
// keys as a whole match the recorded digest.
func TestBuiltinKeysStable(t *testing.T) {
	d := KeyDefaults{}.withDefaults()
	eopts, aerr := normalizeOptions(nil, d)
	if aerr != nil {
		t.Fatal(aerr.msg)
	}
	all := sha256.New()
	n := 0
	for _, e := range workflows.All() {
		fresh := e.Build()
		if err := fresh.Validate(); err != nil {
			t.Fatal(err)
		}
		props := benchmark.Properties(fresh, 1)
		if len(props) != len(benchmark.Templates()) {
			t.Fatalf("%s: %d properties, want one per template", e.Name, len(props))
		}
		for _, p := range props {
			src := propertySource(fresh, p)
			got, err := RequestKey(&SubmitRequest{Workflow: e.Name, PropertySrc: src}, KeyDefaults{})
			if err != nil {
				t.Fatalf("%s %s: %v", e.Name, p.Name, err)
			}
			parsed, err := spec.ParseProperty(src)
			if err != nil {
				t.Fatal(err)
			}
			if want := cacheKey(spec.Print(&spec.File{System: fresh}), parsed, eopts); got != want {
				t.Errorf("%s %s: table key %s, freshly printed key %s", e.Name, p.Name, got, want)
			}
			all.Write([]byte(got + "\n"))
			n++
		}
	}
	if n != 18*12 {
		t.Fatalf("checked %d keys, want 216", n)
	}
	if got := hex.EncodeToString(all.Sum(nil)); got != builtinKeysDigest {
		t.Errorf("built-in keys digest %s, recorded %s", got, builtinKeysDigest)
	}
}

// TestBuiltinConcurrentUse: goroutines type-check properties against,
// print and verify one shared built-in system, as concurrent resolves and
// jobs do, while resolving through the process table. Under -race it
// fails if the table publishes a system with a lazy index still to be
// filled, since the first readers would then write it concurrently. The
// system comes from a fresh table, so no earlier test has filled its
// indexes.
func TestBuiltinConcurrentUse(t *testing.T) {
	const name = "OrderFulfillmentBuggy"
	b := buildBuiltins()[name]
	props := benchmark.Properties(b.sys, 1)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < len(props); i += 3 {
				p := props[(i+g)%len(props)]
				src := propertySource(b.sys, p)
				if _, err := RequestKey(&SubmitRequest{Workflow: name, PropertySrc: src}, KeyDefaults{}); err != nil {
					errs <- err
					return
				}
				if _, err := core.ValidateProperty(b.sys, p); err != nil {
					errs <- err
					return
				}
				if canonicalSystem(b.sys) != b.text {
					t.Error("the shared system printed differently")
				}
				opts := core.Options{Budget: core.Budget{MaxStates: 2000, Timeout: 10 * time.Second}}
				if _, err := core.Verify(context.Background(), b.sys, p, opts); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// resolveAllocs is the recorded allocations per resolveRequest of a
// built-in submit (go1.24, linux/amd64). Rebuilding and re-printing the
// workflow on every call made 849.
const resolveAllocs = 68

// TestResolveAllocGuard fails when resolving a built-in workflow submit
// allocates more than 10% above resolveAllocs per call.
func TestResolveAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	req := &SubmitRequest{
		Workflow: "OrderFulfillment",
		PropertySrc: `property ship_stocked of ProcessOrders {
			define stocked := instock == "Yes"
			formula G (open(ShipItem) -> stocked)
		}`,
	}
	d := KeyDefaults{}.withDefaults()
	resolve := func() {
		if _, aerr := resolveRequest(req, d); aerr != nil {
			t.Fatal(aerr.msg)
		}
	}
	resolve()
	got := testing.AllocsPerRun(100, resolve)
	t.Logf("resolveRequest of a built-in: %.0f allocs/call (recorded %d)", got, resolveAllocs)
	if got > 1.10*resolveAllocs {
		t.Errorf("resolveRequest of a built-in allocates %.0f times per call, more than 10%% above the recorded %d", got, resolveAllocs)
	}
}
