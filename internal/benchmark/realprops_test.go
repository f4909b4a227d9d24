package benchmark

import (
	"context"
	"testing"
	"time"

	"verifas/internal/core"
	"verifas/internal/has"
)

// Every curated domain property must verify to its documented verdict.
func TestCheckedProperties(t *testing.T) {
	systems := map[string]*has.System{}
	for _, s := range RealSuite() {
		systems[s.Name] = s.Sys
	}
	for _, cp := range CheckedProperties() {
		sys, ok := systems[cp.Workflow]
		if !ok {
			t.Fatalf("unknown workflow %q", cp.Workflow)
		}
		res, err := core.Verify(context.Background(), sys, cp.Prop, core.Options{Budget: core.Budget{MaxStates: 400_000, Timeout: 120 * time.Second}})
		if err != nil {
			t.Fatalf("%s/%s: %v", cp.Workflow, cp.Prop.Name, err)
		}
		if res.Stats.TimedOut {
			t.Fatalf("%s/%s: timed out after %d states", cp.Workflow, cp.Prop.Name, res.Stats.StatesExplored())
		}
		if res.Holds() != cp.Holds {
			t.Errorf("%s/%s: Holds = %v, want %v (%s)", cp.Workflow, cp.Prop.Name, res.Holds(), cp.Holds, cp.Why)
		}
	}
}
