package workflows_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"verifas/internal/concrete"
	"verifas/internal/core"
	"verifas/internal/fol"
	"verifas/internal/has"
	"verifas/internal/ltl"
	"verifas/internal/workflows"
)

// Every workflow must validate and admit non-trivial behaviour: the root
// task can take at least a few steps both symbolically and concretely.
func TestAllWorkflowsValidateAndRun(t *testing.T) {
	for _, e := range workflows.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			sys := e.Build()
			if err := sys.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			// Symbolic sanity: the trivially-false property must be
			// violated (the initial state exists and the Büchi automaton
			// of True accepts); True must hold.
			resF, err := core.Verify(context.Background(), sys, &core.Property{
				Task:    sys.Root.Name,
				Formula: ltl.FalseF{},
			}, core.Options{Budget: core.Budget{MaxStates: 200000, Timeout: 60 * time.Second}})
			if err != nil {
				t.Fatalf("verify False: %v", err)
			}
			if resF.Stats.TimedOut {
				t.Fatalf("False timed out after %d states", resF.Stats.StatesExplored())
			}
			if resF.Holds() {
				t.Error("False must be violated (some infinite or closing run exists)")
			}
			// Concrete sanity: random runs make progress.
			progressed := false
			for seed := int64(0); seed < 12 && !progressed; seed++ {
				r := rand.New(rand.NewSource(seed))
				db := concrete.RandomDB(sys.Schema, r, 3, sys.Constants())
				run, err := concrete.NewRunner(sys, db, r)
				if err != nil {
					t.Fatalf("runner: %v", err)
				}
				if err := run.Run(60); err != nil {
					t.Fatalf("run: %v", err)
				}
				if len(run.Trace) >= 5 {
					progressed = true
				}
			}
			if !progressed {
				t.Error("no concrete run of length ≥ 5 found; the workflow may be deadlocked")
			}
		})
	}
}

// Suite statistics should be in the ballpark of the paper's real set
// (Table 1: ~3.6 relations, ~3.2 tasks, ~20.6 variables, ~11.6 services
// per workflow).
func TestSuiteStatistics(t *testing.T) {
	var rels, tasks, vars, svcs int
	n := 0
	for _, e := range workflows.All() {
		sys := e.Build()
		st := sys.Stats()
		rels += st.Relations
		tasks += st.Tasks
		vars += st.Variables
		svcs += st.Services
		n++
	}
	t.Logf("suite averages over %d workflows: %.2f relations, %.2f tasks, %.2f variables, %.2f services",
		n, float64(rels)/float64(n), float64(tasks)/float64(n), float64(vars)/float64(n), float64(svcs)/float64(n))
	if n < 16 {
		t.Errorf("suite has %d workflows, want at least 16", n)
	}
	if float64(tasks)/float64(n) < 2 || float64(tasks)/float64(n) > 6 {
		t.Errorf("average task count %.2f out of the expected band", float64(tasks)/float64(n))
	}
}

// The suite's names are its keys (the service looks workflows up by
// name), so they must be non-empty and unique, and each entry builds.
func TestAllNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range workflows.All() {
		if e.Name == "" || seen[e.Name] {
			t.Errorf("workflow name %q is empty or repeated", e.Name)
		}
		seen[e.Name] = true
		if e.Build() == nil {
			t.Errorf("%s builds no system", e.Name)
		}
	}
}

// build builds the named workflow of the suite.
func build(t *testing.T, name string) *has.System {
	t.Helper()
	for _, e := range workflows.All() {
		if e.Name == name {
			return e.Build()
		}
	}
	t.Fatalf("no workflow named %q", name)
	return nil
}

// Spot-check domain properties across several workflows.
func TestDomainProperties(t *testing.T) {
	cases := []struct {
		flow string
		prop *core.Property
		want bool
	}{
		{
			"LoanOrigination",
			&core.Property{
				Task: "Underwrite",
				Conds: map[string]fol.Formula{
					"decided": fol.MustParse(`u_decision != null`),
				},
				Formula: ltl.MustParse(`G (close(Underwrite) -> decided)`),
			},
			true, // enforced by the closing pre-condition
		},
		{
			"LoanOrigination",
			&core.Property{
				Task:    "SignContract",
				Formula: ltl.MustParse(`G !close(SignContract)`),
			},
			false, // SignContract does close (finite violation)
		},
		{
			"InsuranceClaim",
			&core.Property{
				Task:    "ClaimsDesk",
				Formula: ltl.MustParse(`G (open(PayClaim) -> !open(AssessDamage))`),
			},
			true, // one snapshot has exactly one service
		},
		{
			"TravelBooking",
			&core.Property{
				Task:    "TripDesk",
				Formula: ltl.MustParse(`F open(ConfirmPayment)`),
			},
			false, // a trip can loop planning forever or abandon
		},
	}
	for _, c := range cases {
		sys := build(t, c.flow)
		if err := sys.Validate(); err != nil {
			t.Fatalf("%s: %v", c.flow, err)
		}
		res, err := core.Verify(context.Background(), sys, c.prop, core.Options{Budget: core.Budget{MaxStates: 300000, Timeout: 120 * time.Second}})
		if err != nil {
			t.Fatalf("%s: %v", c.flow, err)
		}
		if res.Stats.TimedOut {
			t.Fatalf("%s: timed out", c.flow)
		}
		if res.Holds() != c.want {
			t.Errorf("%s / %s: Holds = %v, want %v", c.flow, ltl.String(c.prop.Formula), res.Holds(), c.want)
		}
	}
}
