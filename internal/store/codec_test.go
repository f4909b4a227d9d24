package store_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/engines"
	"verifas/internal/fol"
	"verifas/internal/ltl"
	"verifas/internal/store"
	"verifas/internal/workflows"
)

// shipStocked is the OrderFulfillment guard property: holds on the fixed
// workflow, violated (with a witness) on the buggy variant.
func shipStocked(t *testing.T) *core.Property {
	t.Helper()
	return &core.Property{
		Name:    "ship_stocked",
		Task:    "ProcessOrders",
		Conds:   map[string]fol.Formula{"stocked": fol.MustParse(`instock == "Yes"`)},
		Formula: ltl.MustParse(`G (open(ShipItem) -> stocked)`),
	}
}

// roundTrip asserts Decode(Encode(r)) is deeply equal to r and that the
// encoding is stable (a second Encode of the decoded result is
// byte-identical — what the restart-persistence acceptance check relies
// on when it compares served results against the first run).
func roundTrip(t *testing.T, label, key string, res *core.Result) {
	t.Helper()
	enc, err := store.Encode(key, res)
	if err != nil {
		t.Fatalf("%s: Encode: %v", label, err)
	}
	dec, err := store.Decode(enc, key)
	if err != nil {
		t.Fatalf("%s: Decode: %v", label, err)
	}
	if !reflect.DeepEqual(dec, res) {
		got, _ := json.MarshalIndent(dec, "", " ")
		want, _ := json.MarshalIndent(res, "", " ")
		t.Fatalf("%s: Decode(Encode(r)) != r\n got: %s\nwant: %s", label, got, want)
	}
	enc2, err := store.Encode(key, dec)
	if err != nil {
		t.Fatalf("%s: re-Encode: %v", label, err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("%s: encoding is not stable across a round trip", label)
	}
}

// TestRoundTripAllEnginesAndVerdicts is the property-style lossless-codec
// test: for every built-in engine, and for each terminal verdict class
// (holds / violated / timed-out / budget-exhausted), a real verification
// result survives Decode(Encode(r)) deeply equal — including the witness
// trace on violations and the partial stats on budget exhaustion.
func TestRoundTripAllEnginesAndVerdicts(t *testing.T) {
	prop := shipStocked(t)
	good := workflows.OrderFulfillment(false)
	buggy := workflows.OrderFulfillment(true)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := buggy.Validate(); err != nil {
		t.Fatal(err)
	}

	seen := map[core.Verdict]bool{}
	for _, name := range engines.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			budget := core.Budget{MaxStates: 400_000, Timeout: 60 * time.Second}
			eng, err := engines.Build(name, budget)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				label string
				buggy bool
			}{{"holds-spec", false}, {"violated-spec", true}} {
				sys := good
				if c.buggy {
					sys = buggy
				}
				res, err := eng.Verify(context.Background(), sys, prop)
				if err != nil {
					t.Fatalf("%s: %v", c.label, err)
				}
				seen[res.Verdict] = true
				// The verifas family attaches a witness trace to every
				// violation; the spinlike baselines report the verdict bare —
				// so this loop exercises the round trip both with and
				// without a counterexample witness.
				if strings.HasPrefix(name, "verifas") && res.Verdict == core.VerdictViolated &&
					(res.Violation == nil || len(res.Violation.Prefix) == 0) {
					t.Fatalf("%s: violated verdict without a witness", c.label)
				}
				roundTrip(t, name+"/"+c.label, fakeKey(name+c.label), res)
			}
		})
	}

	// Exhaust each resource budget on the exact engine to cover the two
	// "nothing is known" verdicts.
	starved := []struct {
		label  string
		budget core.Budget
		want   core.Verdict
	}{
		{"timed-out", core.Budget{MaxStates: 3}, core.VerdictTimedOut},
		{"budget-exhausted", core.Budget{MaxStates: 400_000, MaxMemBytes: 1}, core.VerdictBudget},
	}
	for _, c := range starved {
		eng, err := engines.Build("verifas", c.budget)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Verify(context.Background(), good, prop)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != c.want {
			t.Fatalf("%s: verdict = %v, want %v", c.label, res.Verdict, c.want)
		}
		seen[res.Verdict] = true
		roundTrip(t, c.label, fakeKey(c.label), res)
	}

	for _, want := range []core.Verdict{
		core.VerdictHolds, core.VerdictViolated, core.VerdictTimedOut, core.VerdictBudget,
	} {
		if !seen[want] {
			t.Errorf("no run produced a %v result; the round-trip property is untested for it", want)
		}
	}
}

// fakeKey derives a 64-char hex-looking key so the disk fan-out layout in
// other tests matches production keys.
func fakeKey(seed string) string {
	const hex = "0123456789abcdef"
	var sb strings.Builder
	h := 1469598103934665603
	for _, r := range seed {
		h = (h ^ int(r)) * 1099511628211
	}
	for sb.Len() < 64 {
		if h < 0 {
			h = -h
		}
		sb.WriteByte(hex[h%16])
		h = h/16 + 7
		if h == 0 {
			h = len(seed) + sb.Len()
		}
	}
	return sb.String()
}

// TestDecodeRejectsCorruption enumerates every corruption class the disk
// tier quarantines: invalid JSON, truncation, a future envelope version,
// a missing result, and a key mismatch. Each must fail with ErrCorrupt —
// never decode into a wrong verdict.
func TestDecodeRejectsCorruption(t *testing.T) {
	res := sampleResult()
	key := fakeKey("corruption")
	good, err := store.Encode(key, res)
	if err != nil {
		t.Fatal(err)
	}
	future, _ := json.Marshal(map[string]any{"v": store.EnvelopeVersion + 1, "key": key, "result": map[string]any{}})
	cases := map[string][]byte{
		"empty":           {},
		"not-json":        []byte("not json at all"),
		"truncated":       good[:len(good)/2],
		"future-version":  future,
		"missing-result":  []byte(fmt.Sprintf(`{"v":%d,"key":%q}`, store.EnvelopeVersion, key)),
		"wrong-json-type": []byte(`[1,2,3]`),
	}
	for label, b := range cases {
		if _, err := store.Decode(b, key); !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", label, err)
		}
	}
	// A key mismatch is corruption (a renamed/cross-copied entry) ...
	if _, err := store.Decode(good, fakeKey("other")); !errors.Is(err, store.ErrCorrupt) {
		t.Errorf("key mismatch: err = %v, want ErrCorrupt", err)
	}
	// ... but decoding without an expected key skips the check.
	if _, err := store.Decode(good, ""); err != nil {
		t.Errorf("keyless decode: %v", err)
	}
	// Encode rejects nil rather than writing an envelope that can only
	// ever be quarantined later.
	if _, err := store.Encode(key, nil); err == nil {
		t.Error("Encode(nil) succeeded")
	}
}
