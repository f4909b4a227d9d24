package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"verifas/internal/engines"
	"verifas/internal/service"
	"verifas/internal/service/client"
)

// TestSubmitErrors: every way a submission can be malformed maps to a
// 4xx with a structured {"error": {"code", "message"}} body. The
// unknown-task and invalid-property cases pin down that the core typed
// sentinels (core.ErrUnknownTask, core.ErrInvalidProperty) surface
// through the HTTP API, not as opaque 500s.
func TestSubmitErrors(t *testing.T) {
	spec := loadSpec(t)
	_, cl := newTestServer(t, service.Config{Workers: 1, MaxTimeout: 10 * time.Second})
	ctx := context.Background()

	cases := []struct {
		name   string
		req    *service.SubmitRequest
		status int
		code   string
	}{
		{"no spec or workflow", &service.SubmitRequest{}, 400, "bad-request"},
		{"spec and workflow", &service.SubmitRequest{Spec: spec, Workflow: "OrderFulfillment"}, 400, "bad-request"},
		{"malformed spec", &service.SubmitRequest{Spec: "system Broken\nbogus"}, 400, "parse-error"},
		{"unknown workflow", &service.SubmitRequest{Workflow: "NoSuchWorkflow"}, 400, "unknown-workflow"},
		{"unknown property name", &service.SubmitRequest{Spec: spec, Property: "nope"}, 400, "unknown-property"},
		{"multiple properties unselected", &service.SubmitRequest{Spec: spec}, 400, "bad-request"},
		{"workflow without property", &service.SubmitRequest{Workflow: "OrderFulfillment"}, 400, "bad-request"},
		{"property and property_src", &service.SubmitRequest{
			Spec: spec, Property: "ship_only_in_stock",
			PropertySrc: "property p of ProcessOrders {\n formula true\n}",
		}, 400, "bad-request"},
		{"malformed property_src", &service.SubmitRequest{
			Workflow:    "OrderFulfillment",
			PropertySrc: "property p of ProcessOrders {\n}",
		}, 400, "parse-error"},
		// core.ErrUnknownTask: the property names a task the system
		// does not declare.
		{"unknown task", &service.SubmitRequest{
			Workflow:    "OrderFulfillment",
			PropertySrc: "property p of NoSuchTask {\n formula G close(NoSuchTask)\n}",
		}, 422, "unknown-task"},
		// core.ErrInvalidProperty: the formula references an undefined
		// condition for a task that exists.
		{"invalid property", &service.SubmitRequest{
			Workflow:    "OrderFulfillment",
			PropertySrc: "property p of ProcessOrders {\n formula G undefined_condition\n}",
		}, 422, "invalid-property"},
		{"unknown engine", &service.SubmitRequest{
			Workflow:    "OrderFulfillment",
			PropertySrc: "property p of ProcessOrders {\n define t := instock == \"Yes\"\n formula G t\n}",
			Options:     &service.RequestOptions{Engine: "smt"},
		}, 400, "unknown-engine"},
		{"negative option", &service.SubmitRequest{
			Spec: spec, Property: "ship_only_in_stock",
			Options: &service.RequestOptions{MaxStates: -1},
		}, 400, "bad-options"},
		{"timeout beyond cap", &service.SubmitRequest{
			Spec: spec, Property: "ship_only_in_stock",
			Options: &service.RequestOptions{TimeoutMS: 60_000},
		}, 400, "bad-options"},
	}
	for _, c := range cases {
		_, err := cl.Submit(ctx, c.req)
		ae, ok := err.(*client.APIError)
		if !ok {
			t.Errorf("%s: err = %v, want *client.APIError", c.name, err)
			continue
		}
		if ae.Status != c.status || ae.Code != c.code {
			t.Errorf("%s: got %d %q, want %d %q (%s)", c.name, ae.Status, ae.Code, c.status, c.code, ae.Message)
		}
		if ae.Message == "" {
			t.Errorf("%s: structured error without a message", c.name)
		}
	}
}

// TestBadRequestBodies: non-JSON and unknown-field bodies are 400s, and
// unknown job ids are structured 404s on every job endpoint.
func TestBadRequestBodies(t *testing.T) {
	svc := service.NewServer(service.Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = svc.Shutdown(context.Background())
	})

	post := func(body string) *http.Response {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	decode := func(resp *http.Response) service.ErrorBody {
		defer resp.Body.Close()
		var eb service.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("error body is not the structured envelope: %v", err)
		}
		return eb
	}

	if resp := post("{not json"); resp.StatusCode != 400 || decode(resp).Error.Code != "bad-request" {
		t.Errorf("non-JSON body: %d", resp.StatusCode)
	}
	if resp := post(`{"specc": "typo"}`); resp.StatusCode != 400 || decode(resp).Error.Code != "bad-request" {
		t.Errorf("unknown field: %d", resp.StatusCode)
	}

	cl := client.New(ts.URL)
	cl.HTTP = ts.Client()
	ctx := context.Background()
	for _, probe := range []func() error{
		func() error { _, err := cl.Status(ctx, "j-999999"); return err },
		func() error { _, err := cl.Result(ctx, "j-999999", false); return err },
		func() error { _, err := cl.Cancel(ctx, "j-999999"); return err },
		func() error { return cl.Stream(ctx, "j-999999", nil) },
	} {
		err := probe()
		ae, ok := err.(*client.APIError)
		if !ok || ae.Status != 404 || ae.Code != "not-found" {
			t.Errorf("unknown job: %v, want 404 not-found", err)
		}
	}
}

// TestRemovedOptionsRejected: there are no "workers", "relaxed" or
// "agg_rr" job options, no per-job tuning knobs (the ablations are
// engine names such as "verifas-nosp") and no "engines" list (a job runs
// one engine), so the strict decoder answers a body naming any of them
// with a 400 bad-request that names the field.
func TestRemovedOptionsRejected(t *testing.T) {
	svc := service.NewServer(service.Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = svc.Shutdown(context.Background())
	})
	for _, opt := range []string{
		`"workers": 2`, `"relaxed": true`, `"agg_rr": true`,
		`"no_sp": true`, `"no_sa": true`, `"no_dss": true`, `"no_set": true`, `"no_rr": true`,
		`"spin_fresh": 3`, `"engines": ["verifas", "spinlike"]`,
	} {
		body := `{"workflow": "OrderFulfillment", "property_src": "", "options": {` + opt + `}}`
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb service.ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: error body is not the structured envelope: %v", opt, err)
		}
		field := opt[:strings.Index(opt, ":")]
		if resp.StatusCode != 400 || eb.Error.Code != "bad-request" || !strings.Contains(eb.Error.Message, field) {
			t.Errorf("%s: got %d %q (%s), want 400 bad-request naming %s",
				opt, resp.StatusCode, eb.Error.Code, eb.Error.Message, field)
		}
	}
}

// TestPortfolioOptionValidation: every request shape that asked for a
// portfolio race of several engines, alone or next to "engine", is a
// structured 400 bad-request naming the removed "engines" field, given
// at submit time before a queue slot is taken.
func TestPortfolioOptionValidation(t *testing.T) {
	spec, err := json.Marshal(loadSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	_, cl := newTestServer(t, service.Config{Workers: 1})

	cases := []struct{ name, opts string }{
		{"engine and engines together", `{"engine": "verifas", "engines": ["spinlike"]}`},
		{"tuning knob with engines", `{"engines": ["verifas", "spinlike"], "no_sp": true}`},
		{"empty contender name", `{"engines": ["verifas", ""]}`},
		{"duplicate contender", `{"engines": ["verifas", "verifas"]}`},
		{"unknown contender", `{"engines": ["verifas", "nope"]}`},
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
			if resp.StatusCode != 400 || eb.Error.Code != "bad-request" || !strings.Contains(eb.Error.Message, `"engines"`) {
				t.Errorf("got %d %q (%s), want 400 bad-request naming \"engines\"", resp.StatusCode, eb.Error.Code, eb.Error.Message)
			}
		})
	}
}

// TestStatsAndHealth: the aggregate endpoints expose the service
// counters, the verifier registry, the engine catalogue and the build
// version. A run's
// completion is counted before its verdict is published, so a client
// that has the verdict reads it in the counters at once.
func TestStatsAndHealth(t *testing.T) {
	spec := loadSpec(t)
	_, cl := newTestServer(t, service.Config{Workers: 1, Version: "test-build"})
	ctx := context.Background()

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Version != "test-build" || h.Draining {
		t.Fatalf("health = %+v", h)
	}

	// Distinct max_states values give distinct keys, so every
	// verification runs the engine.
	const runs = 20
	var st *service.StatsResponse
	for i := 1; i <= runs; i++ {
		if _, err := cl.Verify(ctx, &service.SubmitRequest{
			Spec: spec, Property: "ship_only_in_stock",
			Options: &service.RequestOptions{MaxStates: 100_000 + i},
		}); err != nil {
			t.Fatal(err)
		}
		var err error
		if st, err = cl.Stats(ctx); err != nil {
			t.Fatal(err)
		}
		if st.Service.Submitted != int64(i) || st.Service.Completed != int64(i) {
			t.Fatalf("after %d verifications: service counters = %+v", i, st.Service)
		}
	}
	if st.CacheEntries != runs {
		t.Errorf("cache entries = %d, want %d", st.CacheEntries, runs)
	}
	var reg struct {
		RunsDone int64 `json:"runs_done"`
		Holds    int64 `json:"holds"`
	}
	if err := json.Unmarshal(st.Verifier, &reg); err != nil {
		t.Fatalf("verifier registry is not JSON: %v", err)
	}
	if reg.RunsDone != runs || reg.Holds != runs {
		t.Errorf("registry = %+v", reg)
	}
	if !slices.Equal(st.Engines, engines.Names()) {
		t.Errorf("/v1/stats engines = %v, want the engine table %v", st.Engines, engines.Names())
	}
}

// TestSSEStream: Accept: text/event-stream switches the events endpoint
// to server-sent events framing.
func TestSSEStream(t *testing.T) {
	spec := loadSpec(t)
	svc := service.NewServer(service.Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = svc.Shutdown(context.Background())
	})
	cl := client.New(ts.URL)
	cl.HTTP = ts.Client()
	ctx := context.Background()

	res, err := cl.Verify(ctx, &service.SubmitRequest{Spec: spec, Property: "ship_only_in_stock"})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/jobs/%s/events", ts.URL, res.ID), nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if !bytes.HasPrefix(buf.Bytes(), []byte("data: ")) {
		t.Fatalf("SSE frame missing data prefix:\n%s", body)
	}
	var last service.StreamEvent
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n\n"))
	if err := json.Unmarshal(bytes.TrimPrefix(lines[len(lines)-1], []byte("data: ")), &last); err != nil {
		t.Fatalf("SSE payload is not an event: %v\n%s", err, body)
	}
	if last.Type != "verdict" {
		t.Fatalf("terminal SSE record = %q", last.Type)
	}
}
