package service

import (
	"testing"

	"verifas/internal/core"
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
	base := cacheKey(f.System, prop, opts)

	// Comments and whitespace in the source are erased by the re-print.
	noisy := "# a comment\n\n" + cacheSpec + "\n# trailing\n"
	f2, prop2 := mustResolve(t, noisy)
	if got := cacheKey(f2.System, prop2, opts); got != base {
		t.Error("comments/whitespace changed the key")
	}

	// An unrelated extra property in the file does not contribute.
	extra := cacheSpec + "\nproperty q of Main {\n  formula F call(Touch)\n}\n"
	f3, _ := mustResolve(t, extra)
	if got := cacheKey(f3.System, f3.Properties[0], opts); got != base {
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
	if got := cacheKey(f4.System, prop4, opts); got == base {
		t.Error("a different service precondition did not change the key")
	}
	// ...the property...
	if got := cacheKey(f3.System, f3.Properties[1], opts); got == base {
		t.Error("a different property did not change the key")
	}
	// ...and each option.
	for name, o := range map[string]EngineOptions{
		"engine":     {Engine: EngineSpinlike, TimeoutMS: 1000, MaxStates: 100},
		"timeout":    {Engine: EngineVerifas, TimeoutMS: 2000, MaxStates: 100},
		"max_states": {Engine: EngineVerifas, TimeoutMS: 1000, MaxStates: 200},
		"no_sp":      {Engine: EngineVerifas, TimeoutMS: 1000, MaxStates: 100, NoStatePruning: true},
	} {
		if got := cacheKey(f.System, prop, o); got == base {
			t.Errorf("option %s did not change the key", name)
		}
	}
}

// TestCacheKeyEngines: the engine selection — including the ordered
// portfolio contender list — participates in the cache key, so a
// portfolio result can never answer a single-engine job or vice versa.
func TestCacheKeyEngines(t *testing.T) {
	f, prop := mustResolve(t, cacheSpec)
	opts := func(engine string, engines ...string) EngineOptions {
		return EngineOptions{Engine: engine, Engines: engines, TimeoutMS: 1000, MaxStates: 100}
	}
	base := cacheKey(f.System, prop, opts(EngineVerifas))
	p := cacheKey(f.System, prop, opts(EnginePortfolio, "verifas", "spinlike"))
	if p == base {
		t.Error("portfolio selection did not change the key")
	}
	if got := cacheKey(f.System, prop, opts(EnginePortfolio, "verifas", "spinlike-bitstate")); got == p {
		t.Error("a different contender list did not change the key")
	}
	if got := cacheKey(f.System, prop, opts(EnginePortfolio, "spinlike", "verifas")); got == p {
		t.Error("contender order did not change the key (order is the tie-break priority)")
	}
	if got := cacheKey(f.System, prop, opts(EnginePortfolio, "verifas", "spinlike")); got != p {
		t.Error("identical portfolio selections got distinct keys")
	}
}

// The LRU behaviour itself is tested in internal/store (the cache moved
// there as store.Memory); this file keeps the cache-key canonicalization
// tests, which are service-level concerns.

// TestNormalizeOptionsRejectsIgnoredKnobs: a tuning knob that the
// selected engine would ignore is a 400 bad-options instead of a silent
// drop that still splits the cache key.
func TestNormalizeOptionsRejectsIgnoredKnobs(t *testing.T) {
	cases := []struct {
		name   string
		opts   RequestOptions
		reject bool
	}{
		{"no_sa on default engine", RequestOptions{NoStaticAnalysis: true}, false},
		{"no_rr on verifas", RequestOptions{Engine: EngineVerifas, SkipRepeatedReachability: true}, false},
		{"spin_fresh on spinlike", RequestOptions{Engine: EngineSpinlike, SpinFresh: 3}, false},
		{"no_sa on verifas-nosp", RequestOptions{Engine: "verifas-nosp", NoStaticAnalysis: true}, true},
		{"no_sp on spinlike", RequestOptions{Engine: EngineSpinlike, NoStatePruning: true}, true},
		{"no_set on spinlike-bitstate", RequestOptions{Engine: "spinlike-bitstate", IgnoreSets: true}, true},
		{"no_dss on verifas-norr", RequestOptions{Engine: "verifas-norr", NoIndexes: true}, true},
		{"spin_fresh on default engine", RequestOptions{SpinFresh: 3}, true},
		{"spin_fresh on verifas", RequestOptions{Engine: EngineVerifas, SpinFresh: 3}, true},
		{"spin_fresh on spinlike-bitstate", RequestOptions{Engine: "spinlike-bitstate", SpinFresh: 3}, true},
	}
	for _, c := range cases {
		opts := c.opts
		_, aerr := normalizeOptions(&opts, KeyDefaults{})
		switch {
		case c.reject && (aerr == nil || aerr.status != 400 || aerr.code != codeBadOptions):
			t.Errorf("%s: got %+v, want 400 %s", c.name, aerr, codeBadOptions)
		case !c.reject && aerr != nil:
			t.Errorf("%s: rejected: %s", c.name, aerr.msg)
		}
	}
}
