package core

import (
	"fmt"
	"sort"
	"sync"
)

// Registration describes one engine configuration known to a Registry:
// a stable name, the decisiveness caveats of every engine it builds, and
// a constructor binding a Budget. Registrations are constructors rather
// than Engine values because budgets (and observers, which ride in the
// Budget) are chosen per job, not per process.
type Registration struct {
	Name string
	Caps Capabilities
	New  func(Budget) Engine
}

// Registry is a named catalogue of engine configurations. The service,
// the benchmark harness and the CLIs resolve `-engines`/"engines" labels
// through it, and portfolio mode builds its contenders from it. The
// registration order is preserved: Names() reports it, and it seeds the
// deterministic tie-break priority when a caller passes no explicit
// order.
type Registry struct {
	mu     sync.RWMutex
	order  []string
	byName map[string]Registration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]Registration{}}
}

// Register adds an engine configuration. Empty names, nil constructors
// and duplicate names are rejected.
func (r *Registry) Register(reg Registration) error {
	if reg.Name == "" {
		return fmt.Errorf("core: register: empty engine name")
	}
	if reg.New == nil {
		return fmt.Errorf("core: register %q: nil constructor", reg.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[reg.Name]; dup {
		return fmt.Errorf("core: register %q: duplicate engine name", reg.Name)
	}
	r.byName[reg.Name] = reg
	r.order = append(r.order, reg.Name)
	return nil
}

// MustRegister is Register, panicking on error; for process-init wiring
// of the built-in engines.
func (r *Registry) MustRegister(reg Registration) {
	if err := r.Register(reg); err != nil {
		panic(err)
	}
}

// Names lists the registered engine names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Lookup returns the registration for a name.
func (r *Registry) Lookup(name string) (Registration, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	reg, ok := r.byName[name]
	return reg, ok
}

// Build constructs the named engine with the given budget. Unknown names
// wrap ErrUnknownVariant for errors.Is dispatch (the service maps it to
// its unknown-engine HTTP code).
func (r *Registry) Build(name string, b Budget) (Engine, error) {
	reg, ok := r.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: %w %q (known: %v)", ErrUnknownVariant, name, r.Names())
	}
	return reg.New(b), nil
}

// BuildAll constructs one engine per name, preserving order (which is
// the portfolio tie-break priority). Duplicate names are rejected:
// racing an engine against itself only hides bugs, and outcome
// attribution is by name.
func (r *Registry) BuildAll(names []string, b Budget) ([]Engine, error) {
	seen := make(map[string]bool, len(names))
	out := make([]Engine, 0, len(names))
	for _, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("core: duplicate engine %q in portfolio", name)
		}
		seen[name] = true
		eng, err := r.Build(name, b)
		if err != nil {
			return nil, err
		}
		out = append(out, eng)
	}
	return out, nil
}

// RegisterVerifas registers the VERIFAS core engine and its ablation
// variants under their EngineName spellings ("verifas",
// "verifas-noset", "verifas-nosp", "verifas-nosa", "verifas-nodss",
// "verifas-norr").
func RegisterVerifas(r *Registry) {
	variants := []Options{
		{},
		{IgnoreSets: true},
		{NoStatePruning: true},
		{NoStaticAnalysis: true},
		{NoIndexes: true},
		{SkipRepeatedReachability: true},
	}
	for _, opts := range variants {
		opts := opts
		r.MustRegister(Registration{
			Name: EngineName(opts),
			Caps: opts.caps(),
			New: func(b Budget) Engine {
				o := opts
				o.Budget = b
				return Verifas(o)
			},
		})
	}
}

// SortedNames is Names() sorted lexically; for stable error messages and
// docs.
func (r *Registry) SortedNames() []string {
	names := r.Names()
	sort.Strings(names)
	return names
}
