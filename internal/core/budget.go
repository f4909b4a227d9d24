package core

import "time"

// Budget holds the resource knobs and instrumentation hooks shared by
// every engine (the VERIFAS core, the spin-like baseline, and any future
// registrant). core.Options and spinlike.Options embed it, so portfolio
// mode and the service apply one budget uniformly across heterogeneous
// engines instead of copying fields one by one. None of these fields
// contribute to Options.Variant() or the engine name: they change how
// long a run may take, never what it concludes.
type Budget struct {
	// MaxStates bounds each search phase (0 = the engine's default;
	// DefaultMaxStates for the VERIFAS core).
	MaxStates int
	// MaxMemBytes bounds each search phase's estimated retained bytes
	// (0 = unlimited). A run exceeding it returns VerdictBudget with the
	// partial stats gathered so far instead of growing until the process
	// OOMs. The accounting is the deterministic estimate described at
	// vass.Options.MaxMemBytes: per-node structure plus per-state unique
	// bytes plus the shared intern table.
	MaxMemBytes int64
	// Timeout bounds the whole verification (0 = none). It is layered on
	// top of the Context passed to Verify: whichever expires first stops
	// the search.
	Timeout time.Duration
	// Observer, when non-nil, receives the verification's typed event
	// stream: PhaseStart/PhaseEnd for every phase, periodic Progress
	// snapshots from the search loops, and a terminal Verdict event. A
	// nil Observer disables all instrumentation (the hot loops pay only
	// a nil check).
	Observer Observer
	// ProgressStride is the state-count stride between Progress events
	// (0 = DefaultProgressStride). Ignored without an Observer.
	ProgressStride int
}

// WithObserver returns a copy of the budget with the observer replaced.
// Convenience for fan-out sites that build one budget and attach a
// per-run observer.
func (b Budget) WithObserver(o Observer) Budget {
	b.Observer = o
	return b
}
