package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"verifas/internal/engines"
	"verifas/internal/service"
)

const orderSpec = "../../testdata/orderfulfillment.has"

// runCLI runs the command with args and returns its exit status, stdout
// and stderr.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// statesOf extracts the state count of a property's report line.
func statesOf(t *testing.T, out, prop string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + prop + ` .*, (\d+) states`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no report line for %s in:\n%s", prop, out)
	}
	return m[1]
}

// TestEngineSelectsRegistryEngine: -engine runs the named built-in
// engine, not full VERIFAS under another label.
func TestEngineSelectsRegistryEngine(t *testing.T) {
	code, out, errOut := runCLI(t, "-engine", "verifas", "-prop", "ship_only_in_stock", orderSpec)
	if code != 0 {
		t.Fatalf("verifas: exit %d\n%s%s", code, out, errOut)
	}
	if got := statesOf(t, out, "ship_only_in_stock"); got != "36" {
		t.Errorf("verifas explored %s states, want 36", got)
	}

	code, out, errOut = runCLI(t, "-engine", "verifas-nosp", "-prop", "ship_only_in_stock", orderSpec)
	if code != 0 {
		t.Fatalf("verifas-nosp: exit %d\n%s%s", code, out, errOut)
	}
	if got := statesOf(t, out, "ship_only_in_stock"); got != "88" {
		t.Errorf("verifas-nosp explored %s states, want 88 (state pruning off)", got)
	}
}

func TestEngineSpinlikeBitstate(t *testing.T) {
	code, out, errOut := runCLI(t, "-engine", "spinlike-bitstate", "-prop", "take_order_happens", orderSpec)
	if code == 2 {
		t.Fatalf("exit 2\n%s%s", out, errOut)
	}
	if !strings.Contains(out, "bounded domain") {
		t.Errorf("spinlike-bitstate verdict not marked bounded domain:\n%s", out)
	}
}

func TestEngineUnknown(t *testing.T) {
	code, out, errOut := runCLI(t, "-engine", "bogus", orderSpec)
	if code != 2 {
		t.Fatalf("exit %d, want 2\n%s%s", code, out, errOut)
	}
	for _, name := range engines.Names() {
		if !strings.Contains(errOut, name) {
			t.Errorf("error does not list engine %q:\n%s", name, errOut)
		}
	}
	if out != "" {
		t.Errorf("unknown engine still verified:\n%s", out)
	}
}

// TestServerEngine: -server sends -engine to the daemon, which runs that
// engine: verifas-nosp explores 88 states where verifas explores 36.
func TestServerEngine(t *testing.T) {
	svc := service.NewServer(service.Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = svc.Shutdown(context.Background())
	})
	code, out, errOut := runCLI(t, "-server", ts.URL, "-engine", "verifas-nosp", "-prop", "ship_only_in_stock", orderSpec)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errOut)
	}
	if got := statesOf(t, out, "ship_only_in_stock"); got != "88" {
		t.Errorf("daemon explored %s states, want 88 (verifas-nosp)", got)
	}
}
