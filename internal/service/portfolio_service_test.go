package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"verifas/internal/obs"
	"verifas/internal/service"
)

// TestPortfolioOptionValidation: every malformed engines selection is a
// structured 400 at submit time, before a queue slot is taken. The
// options go on the wire as raw JSON so that fields RequestOptions does
// not have (a removed tuning knob) reach the strict decoder.
func TestPortfolioOptionValidation(t *testing.T) {
	spec, err := json.Marshal(loadSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	_, cl := newTestServer(t, service.Config{Workers: 1})

	cases := []struct {
		name string
		opts string
		code string
	}{
		{"engine and engines together", `{"engine": "verifas", "engines": ["spinlike"]}`, "bad-options"},
		{"tuning knob with engines", `{"engines": ["verifas", "spinlike"], "no_sp": true}`, "bad-request"},
		{"empty contender name", `{"engines": ["verifas", ""]}`, "bad-options"},
		{"duplicate contender", `{"engines": ["verifas", "verifas"]}`, "bad-options"},
		{"unknown contender", `{"engines": ["verifas", "nope"]}`, "unknown-engine"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body := fmt.Sprintf(`{"spec": %s, "property": "ship_only_in_stock", "options": %s}`, spec, c.opts)
			resp, err := cl.HTTP.Post(cl.Base+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var eb service.ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("error body is not the structured envelope: %v", err)
			}
			if resp.StatusCode != 400 || eb.Error.Code != c.code {
				t.Errorf("got %d %q (%s), want 400 %q", resp.StatusCode, eb.Error.Code, eb.Error.Message, c.code)
			}
		})
	}
}

// TestPortfolioEndToEnd drives a portfolio job over HTTP: submit with an
// explicit contender list, watch the engine-start/engine-done records in
// the stream, read the per-engine outcomes off the result, and find the
// per-engine counters in /v1/stats.
func TestPortfolioEndToEnd(t *testing.T) {
	spec := loadSpec(t)
	_, cl := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	st, err := cl.Submit(ctx, &service.SubmitRequest{
		Spec:     spec,
		Property: "ship_only_in_stock",
		Options:  &service.RequestOptions{Engines: []string{"verifas", "spinlike"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine != "portfolio" {
		t.Errorf("engine label = %q, want portfolio", st.Engine)
	}
	if len(st.Engines) != 2 || st.Engines[0] != "verifas" || st.Engines[1] != "spinlike" {
		t.Errorf("status engines = %v, want [verifas spinlike] in tie-break order", st.Engines)
	}

	// ---- Stream: one engine-start and one engine-done per contender,
	// then the terminal verdict.
	starts, dones := 0, 0
	sawWinner := ""
	last := ""
	if err := cl.Stream(ctx, st.ID, func(ev service.StreamEvent) error {
		last = ev.Type
		switch ev.Type {
		case obs.EventEngineStart:
			starts++
			if ev.Engine == nil || ev.Engine.Engine == "" {
				t.Error("engine-start record without an engine name")
			}
		case obs.EventEngineDone:
			dones++
			if ev.Engine == nil {
				t.Fatal("engine-done record without a payload")
			}
			if ev.Engine.Winner {
				sawWinner = ev.Engine.Engine
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if starts != 2 || dones != 2 {
		t.Errorf("stream has %d engine-start / %d engine-done records, want 2/2", starts, dones)
	}
	if last != obs.EventVerdict {
		t.Errorf("terminal stream record = %q, want verdict", last)
	}
	if sawWinner == "" {
		t.Error("no engine-done record carries the winner flag")
	}

	// ---- Result: merged verdict plus the per-engine outcome table.
	res, err := cl.Result(ctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != "holds" {
		t.Errorf("verdict = %q, want holds", res.Verdict)
	}
	p := res.Portfolio
	if p == nil {
		t.Fatal("result carries no portfolio stats")
	}
	if !p.Decisive || p.Winner != sawWinner {
		t.Errorf("portfolio decisive=%v winner=%q, want decisive with stream winner %q", p.Decisive, p.Winner, sawWinner)
	}
	if len(p.Engines) != 2 {
		t.Errorf("portfolio outcome count = %d, want 2", len(p.Engines))
	}

	// ---- Stats: the engine catalogue and the per-engine counters.
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, n := range stats.Engines {
		listed[n] = true
	}
	for _, want := range []string{"verifas", "spinlike", "verifas-noset", "spinlike-bitstate"} {
		if !listed[want] {
			t.Errorf("/v1/stats engines missing %q (have %v)", want, stats.Engines)
		}
	}
	var verifier obs.Snapshot
	if err := json.Unmarshal(stats.Verifier, &verifier); err != nil {
		t.Fatalf("decoding verifier snapshot: %v", err)
	}
	for _, name := range []string{"verifas", "spinlike"} {
		es, ok := verifier.Engines[name]
		if !ok {
			t.Errorf("verifier snapshot has no counters for %q", name)
			continue
		}
		if es.Starts != 1 {
			t.Errorf("%s starts = %d, want 1", name, es.Starts)
		}
	}
	if es := verifier.Engines[sawWinner]; es.Wins != 1 {
		t.Errorf("winner %q wins = %d, want 1", sawWinner, es.Wins)
	}

	// ---- Cache: an identical portfolio resubmission is a hit, and a
	// one-element engines list is the same job as the plain engine form.
	st2, err := cl.Submit(ctx, &service.SubmitRequest{
		Spec:     spec,
		Property: "ship_only_in_stock",
		Options:  &service.RequestOptions{Engines: []string{"verifas", "spinlike"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Error("identical portfolio resubmission missed the cache")
	}
	if st2.Key != st.Key {
		t.Errorf("identical portfolio submissions got distinct keys %q / %q", st2.Key, st.Key)
	}

	one, err := cl.Submit(ctx, &service.SubmitRequest{
		Spec:     spec,
		Property: "ship_only_in_stock",
		Options:  &service.RequestOptions{Engines: []string{"spinlike"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if one.Engine != "spinlike" || len(one.Engines) != 0 {
		t.Errorf("one-element engines canonicalized to %q/%v, want spinlike with no list", one.Engine, one.Engines)
	}
	plain, err := cl.Submit(ctx, &service.SubmitRequest{
		Spec:     spec,
		Property: "ship_only_in_stock",
		Options:  &service.RequestOptions{Engine: "spinlike"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Key != one.Key {
		t.Errorf("engines:[spinlike] and engine:spinlike got distinct keys %q / %q", one.Key, plain.Key)
	}
}
