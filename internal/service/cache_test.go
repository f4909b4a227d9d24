package service

import (
	"testing"

	"verifas/internal/core"
	"verifas/internal/engines"
	"verifas/internal/spec"
)

const cacheSpec = `
system Mini
schema {
  relation R(x)
}
task Main {
  vars a: R, s: val
  service Touch {
    pre a != null
    post s == "done"
  }
}
global-pre a == null && s == null
property p of Main {
  define done := s == "done"
  formula G (call(Touch) -> done)
}
`

func mustResolve(t *testing.T, src string) (*spec.File, *core.Property) {
	t.Helper()
	f, err := spec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f, f.Properties[0]
}

func TestCacheKeyCanonical(t *testing.T) {
	f, prop := mustResolve(t, cacheSpec)
	opts := EngineOptions{Engine: EngineVerifas, TimeoutMS: 1000, MaxStates: 100}
	base := cacheKey(canonicalSystem(f.System), prop, opts)

	// Comments and whitespace in the source are erased by the re-print.
	noisy := "# a comment\n\n" + cacheSpec + "\n# trailing\n"
	f2, prop2 := mustResolve(t, noisy)
	if got := cacheKey(canonicalSystem(f2.System), prop2, opts); got != base {
		t.Error("comments/whitespace changed the key")
	}

	// An unrelated extra property in the file does not contribute.
	extra := cacheSpec + "\nproperty q of Main {\n  formula F call(Touch)\n}\n"
	f3, _ := mustResolve(t, extra)
	if got := cacheKey(canonicalSystem(f3.System), f3.Properties[0], opts); got != base {
		t.Error("an unselected property changed the key")
	}

	// Every semantic input separates keys: the system...
	other := `
system Mini
schema {
  relation R(x)
}
task Main {
  vars a: R, s: val
  service Touch {
    pre a == null
    post s == "done"
  }
}
global-pre a == null && s == null
property p of Main {
  define done := s == "done"
  formula G (call(Touch) -> done)
}
`
	f4, prop4 := mustResolve(t, other)
	if got := cacheKey(canonicalSystem(f4.System), prop4, opts); got == base {
		t.Error("a different service precondition did not change the key")
	}
	// ...the property...
	if got := cacheKey(canonicalSystem(f3.System), f3.Properties[1], opts); got == base {
		t.Error("a different property did not change the key")
	}
	// ...and each option.
	for name, o := range map[string]EngineOptions{
		"engine":     {Engine: "spinlike", TimeoutMS: 1000, MaxStates: 100},
		"ablation":   {Engine: "verifas-nosp", TimeoutMS: 1000, MaxStates: 100},
		"timeout":    {Engine: EngineVerifas, TimeoutMS: 2000, MaxStates: 100},
		"max_states": {Engine: EngineVerifas, TimeoutMS: 1000, MaxStates: 200},
	} {
		if got := cacheKey(canonicalSystem(f.System), prop, o); got == base {
			t.Errorf("option %s did not change the key", name)
		}
	}
}

// TestCacheKeyEngines: the engine name participates in the cache key,
// so one engine's result never answers a job for another.
func TestCacheKeyEngines(t *testing.T) {
	f, prop := mustResolve(t, cacheSpec)
	keys := map[string]string{}
	for _, name := range engines.Names() {
		key := cacheKey(canonicalSystem(f.System), prop, EngineOptions{Engine: name, TimeoutMS: 1000, MaxStates: 100})
		if other, ok := keys[key]; ok {
			t.Errorf("engines %s and %s share a key", other, name)
		}
		keys[key] = name
	}
}

// The LRU behaviour itself is tested in internal/store (the cache moved
// there as store.Memory); this file keeps the cache-key canonicalization
// tests, which are service-level concerns.
