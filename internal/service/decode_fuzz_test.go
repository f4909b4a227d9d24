package service

import (
	"context"
	"testing"
)

// FuzzDecodeSubmit feeds arbitrary bytes to the submit decoder, the step
// every POST /v1/jobs body goes through. It must never panic, and every
// body either resolves or is rejected with a 4xx carrying one of the
// codes the decoder can produce.
//
//	go test -run '^$' -fuzz FuzzDecodeSubmit -fuzztime 60s ./internal/service/
func FuzzDecodeSubmit(f *testing.F) {
	const prop = `"property_src": "property p of ProcessOrders {\n define stocked := instock == \"Yes\"\n formula G (open(ShipItem) -> stocked)\n}"`
	seeds := []string{
		`{"workflow": "OrderFulfillmentBuggy", ` + prop + `}`,
		`{"workflow": "OrderFulfillmentBuggy", ` + prop + `, "options": {"engine": "verifas-nosp", "max_states": 1000}}`,
		`{"workflow": "OrderFulfillmentBuggy", ` + prop + `, "options": {"engines": ["verifas", "spinlike"]}}`,
		`{"spec": "system S\nschema {\n relation R(x)\n}\ntask Main {\n vars a: R\n service T {\n  pre a == null\n  post a != null\n }\n}\nglobal-pre a == null\nproperty p of Main {\n formula G call(T)\n}"}`,
		`{"workflow": "OrderFulfillment", "options": {"no_sp": true}}`,
		`{"workflow": "OrderFulfillment", "options": {"no_sa": true}}`,
		`{"workflow": "OrderFulfillment", "options": {"no_dss": true}}`,
		`{"workflow": "OrderFulfillment", "options": {"no_set": true}}`,
		`{"workflow": "OrderFulfillment", "options": {"no_rr": true}}`,
		`{"workflow": "OrderFulfillment", "options": {"spin_fresh": 3}}`,
		`{"workflow": "OrderFulfillment", "options": {"max_states": -1}}`,
		`{"workflow": "OrderFulfillment", "options": {"engine": "nope"}}`,
		`{"spec": 1}`,
		`{not json`,
		`null`,
		`[]`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	s := NewServer(Config{Workers: 1})
	f.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	known := map[string]bool{
		codeBadRequest: true, codeParseError: true, codeUnknownWorkflow: true,
		codeUnknownProperty: true, codeUnknownTask: true, codeInvalidProperty: true,
		codeUnknownEngine: true, codeBadOptions: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r, aerr := s.decodeSubmit(body)
		switch {
		case aerr == nil && r == nil:
			t.Fatal("neither a resolved request nor an error")
		case aerr == nil && r.key == "":
			t.Fatal("resolved request without a cache key")
		case aerr != nil && r != nil:
			t.Fatalf("both a resolved request and an error: %s", aerr.msg)
		case aerr != nil && (aerr.status < 400 || aerr.status > 499 || !known[aerr.code]):
			t.Fatalf("rejection %d %q (%s), want a 4xx with a decoder code", aerr.status, aerr.code, aerr.msg)
		}
	})
}
