package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"

	"verifas/internal/core"
	"verifas/internal/has"
	"verifas/internal/spec"
	"verifas/internal/workflows"
)

// builtin is a built-in workflow prepared for serving: the validated
// system and its canonical text, the system part of the cache key.
type builtin struct {
	sys  *has.System
	text string
}

// builtins is the process's table of the built-in workflows
// (workflows.All), keyed by name. The first call builds, validates and
// prints every entry; later calls share them. The table is read-only and
// so are its systems: resolves and verifications running concurrently
// all read one *has.System per workflow, which is safe because Validate
// fills the system's lazy indexes before the table is published.
var builtins = sync.OnceValue(buildBuiltins)

func buildBuiltins() map[string]builtin {
	all := workflows.All()
	m := make(map[string]builtin, len(all))
	for _, e := range all {
		sys := e.Build()
		if err := sys.Validate(); err != nil {
			panic("service: built-in workflow " + e.Name + ": " + err.Error())
		}
		m[e.Name] = builtin{sys: sys, text: canonicalSystem(sys)}
	}
	return m
}

// canonicalSystem renders sys as it enters the cache key.
func canonicalSystem(sys *has.System) string {
	return spec.Print(&spec.File{System: sys})
}

// cacheKey derives the content-addressed identity of a verification:
// a SHA-256 over the canonicalized (spec, property, options) triple,
// where sysText is the system's canonicalSystem rendering. It
// is the key of the pluggable result store (internal/store) — including
// its persistent on-disk tier, so the canonicalization below is a
// durable format: restarts and replicas answer from entries older
// processes wrote.
//
// Canonicalization makes textually different but semantically identical
// requests collide on purpose:
//   - the system is re-printed from its parsed form (spec.Print is a
//     fixed point of spec.Parse), erasing comments, blank lines and
//     whitespace;
//   - the property is rendered with core.PropertySignature, which sorts
//     the condition definitions and normalizes the formula rendering;
//   - the options are the normalized EngineOptions (defaults applied)
//     in canonical JSON, so spelling out a default equals omitting it;
//     the progress stride is left out, as it never changes a result.
//
// Properties declared in the spec source but not selected by the job do
// not contribute: the same (system, property) pair submitted from files
// with different unrelated properties still hits one entry.
func cacheKey(sysText string, prop *core.Property, eopts EngineOptions) string {
	h := sha256.New()
	h.Write([]byte(sysText))
	h.Write([]byte{0})
	h.Write([]byte(core.PropertySignature(prop)))
	h.Write([]byte{0})
	ob, err := json.Marshal(eopts)
	if err != nil {
		// EngineOptions is a flat struct of scalars; Marshal cannot fail.
		panic("service: marshaling engine options: " + err.Error())
	}
	h.Write(ob)
	return hex.EncodeToString(h.Sum(nil))
}
