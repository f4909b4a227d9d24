package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"verifas/internal/core"
	"verifas/internal/has"
	"verifas/internal/spec"
)

// cacheKey derives the content-addressed identity of a verification:
// a SHA-256 over the canonicalized (spec, property, options) triple. It
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
func cacheKey(sys *has.System, prop *core.Property, eopts EngineOptions) string {
	h := sha256.New()
	h.Write([]byte(spec.Print(&spec.File{System: sys})))
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
