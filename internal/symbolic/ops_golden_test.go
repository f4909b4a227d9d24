package symbolic_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"verifas/internal/benchmark"
	"verifas/internal/has"
	"verifas/internal/static"
	"verifas/internal/symbolic"
	"verifas/internal/workflows"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

const opsGoldenPath = "testdata/pisotype-ops.golden"

// goldenUniverse is one compiled universe the op sequences run over.
type goldenUniverse struct {
	name   string
	u      *symbolic.Universe
	filter symbolic.EdgeFilter
}

func goldenUniverses(t *testing.T) []goldenUniverse {
	t.Helper()
	compile := func(sys *has.System, filtered bool) (*symbolic.Universe, symbolic.EdgeFilter) {
		if err := sys.Validate(); err != nil {
			t.Fatal(err)
		}
		ts, err := symbolic.CompileTask(sys, sys.Root, symbolic.PropertyBinding{}, symbolic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !filtered {
			return ts.U, nil
		}
		return ts.U, static.Analyze(ts)
	}
	var synth03 *has.System
	for _, s := range benchmark.SyntheticSuite(4, 1) {
		if s.Name == "synth-03" {
			synth03 = s.Sys
		}
	}
	if synth03 == nil {
		t.Fatal("synthetic suite has no synth-03")
	}
	var out []goldenUniverse
	for _, c := range []struct {
		name     string
		sys      *has.System
		filtered bool
	}{
		{"OrderFulfillment", workflows.OrderFulfillment(false), false},
		{"OrderFulfillment+filter", workflows.OrderFulfillment(false), true},
		{"synth-03+filter", synth03, true},
	} {
		u, f := compile(c.sys, c.filtered)
		out = append(out, goldenUniverse{name: c.name, u: u, filter: f})
	}
	return out
}

// opSequence drives one seeded random sequence of pisotype operations over
// a small pool of types and logs, per step, the op's result and the
// observable state of the type it produced or mutated. The random stream
// depends only on the universe, the seed and the ops' results, so a
// correct representation replays the same sequence.
type opSequence struct {
	u      *symbolic.Universe
	filter symbolic.EdgeFilter
	r      *rand.Rand
	pool   []*symbolic.Pisotype
	// roots groups the root expressions by sort; sorts lists the groups'
	// keys in universe order.
	roots  map[has.VarType][]symbolic.ExprID
	sorts  []has.VarType
	consts []symbolic.ExprID
	out    strings.Builder
}

func newOpSequence(u *symbolic.Universe, filter symbolic.EdgeFilter, seed int64) *opSequence {
	s := &opSequence{u: u, filter: filter, r: rand.New(rand.NewSource(seed)), roots: map[has.VarType][]symbolic.ExprID{}}
	for _, e := range u.Exprs {
		switch e.Kind {
		case symbolic.ERoot:
			if _, ok := s.roots[e.Type]; !ok {
				s.sorts = append(s.sorts, e.Type)
			}
			s.roots[e.Type] = append(s.roots[e.Type], e.ID)
		case symbolic.EConst, symbolic.ENull:
			s.consts = append(s.consts, e.ID)
		}
	}
	s.pool = []*symbolic.Pisotype{symbolic.NewPisotype(u, filter)}
	return s
}

// pair picks two expressions, mostly of one sort: two roots, an
// expression and a constant, or two expressions of any kind.
func (s *opSequence) pair() (symbolic.ExprID, symbolic.ExprID) {
	n := len(s.u.Exprs)
	switch k := s.r.Intn(10); {
	case k < 5:
		rs := s.roots[s.sorts[s.r.Intn(len(s.sorts))]]
		return rs[s.r.Intn(len(rs))], rs[s.r.Intn(len(rs))]
	case k < 7:
		return symbolic.ExprID(s.r.Intn(n)), s.consts[s.r.Intn(len(s.consts))]
	default:
		a := symbolic.ExprID(s.r.Intn(n))
		for tries := 0; tries < 20; tries++ {
			b := symbolic.ExprID(s.r.Intn(n))
			if s.u.Exprs[b].Type == s.u.Exprs[a].Type {
				return a, b
			}
		}
		return a, symbolic.ExprID(s.r.Intn(n))
	}
}

// rootPairs picks one to three transport pairs between roots of one sort.
func (s *opSequence) rootPairs() []symbolic.RootPair {
	var out []symbolic.RootPair
	for i := 1 + s.r.Intn(3); i > 0; i-- {
		rs := s.roots[s.sorts[s.r.Intn(len(s.sorts))]]
		out = append(out, symbolic.RootPair{From: rs[s.r.Intn(len(rs))], To: rs[s.r.Intn(len(rs))]})
	}
	return out
}

// put stores a produced type in the pool, replacing a random slot once the
// pool is full.
func (s *opSequence) put(t *symbolic.Pisotype) {
	if len(s.pool) < 8 {
		s.pool = append(s.pool, t)
		return
	}
	s.pool[s.r.Intn(len(s.pool))] = t
}

func (s *opSequence) log(step int, op string, ok bool, t *symbolic.Pisotype) {
	fmt.Fprintf(&s.out, "%d %s ok=%v", step, op, ok)
	if t != nil {
		// Slot roots' names start with a NUL byte; escape it so the
		// golden file stays text.
		str := strings.ReplaceAll(t.String(), "\x00", `\0`)
		fmt.Fprintf(&s.out, " h=%016x n=%d sz=%d %s", t.Hash(), t.NumConstraints(), t.SizeBytes(), str)
	}
	s.out.WriteByte('\n')
}

func (s *opSequence) run(steps int) string {
	for step := 0; step < steps; step++ {
		i := s.r.Intn(len(s.pool))
		t := s.pool[i]
		// A failed op leaves its type corrupted; the op sequence goes on
		// from this copy instead, so types keep growing.
		backup := t.Clone()
		switch k := s.r.Intn(20); {
		case k < 11:
			a, b := s.pair()
			op, ok := "eq", false
			if k < 7 {
				ok = t.AddEq(a, b)
			} else {
				op, ok = "neq", t.AddNeq(a, b)
			}
			if !ok {
				// A failed op leaves the type corrupted: drop it.
				s.pool[i] = symbolic.NewPisotype(s.u, s.filter)
				s.log(step, op, ok, nil)
				continue
			}
			s.log(step, op, ok, t)
		case k < 13:
			c := t.Clone()
			s.put(c)
			s.log(step, "clone", true, c)
		case k < 15:
			keep := map[symbolic.ExprID]bool{}
			for _, sort := range s.sorts {
				for _, r := range s.roots[sort] {
					keep[r] = s.r.Intn(10) < 6
				}
			}
			p := t.Project(func(root symbolic.ExprID) bool { return keep[root] })
			s.put(p)
			s.log(step, "project", true, p)
		case k < 17:
			p := t.TransportProject(s.rootPairs())
			if p != nil {
				s.put(p)
			}
			s.log(step, "transport", p != nil, p)
		case k < 19:
			src := s.pool[s.r.Intn(len(s.pool))]
			if src == t {
				src = src.Clone()
			}
			ok := t.MergeTransported(src, s.rootPairs())
			if !ok {
				s.pool[i] = backup
				s.log(step, "merge", ok, nil)
				continue
			}
			s.log(step, "merge", ok, t)
		default:
			s.pool[i] = symbolic.NewPisotype(s.u, s.filter)
			s.log(step, "fresh", true, s.pool[i])
		}
	}
	return s.out.String()
}

// TestPisotypeOpsGolden replays seeded random sequences of pisotype
// operations over compiled universes and compares, step by step, each
// op's result and the resulting type's Hash, NumConstraints, SizeBytes and
// String with a committed golden file. Any change to the type's
// representation must reproduce it byte for byte (run with -update only
// when the canonical form is meant to change).
func TestPisotypeOpsGolden(t *testing.T) {
	var b strings.Builder
	for _, gu := range goldenUniverses(t) {
		for _, seed := range []int64{1, 2} {
			fmt.Fprintf(&b, "== %s seed=%d exprs=%d\n", gu.name, seed, gu.u.NumExprs())
			b.WriteString(newOpSequence(gu.u, gu.filter, seed).run(300))
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(opsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(opsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\ngot:  %s\nwant: %s", i+1, opsGoldenPath, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d", len(gl), opsGoldenPath, len(wl))
}

// snapshot is the observable content of a type.
type snapshot struct {
	edges []uint64
	hash  uint64
	str   string
}

func snap(t *symbolic.Pisotype) snapshot {
	return snapshot{edges: slices.Clone(t.Edges()), hash: t.Hash(), str: t.String()}
}

func (s snapshot) same(t *symbolic.Pisotype) bool {
	return slices.Equal(s.edges, t.Edges()) && s.hash == t.Hash() && s.str == t.String()
}

// TestPisotypeCloneIndependent mutates clones and their originals after
// cloning, over the op sequences' types, and checks that neither side's
// Edges, Hash or String moves when the other is mutated: a clone must not
// share any mutable buffer (classes, members, ≠-pairs) with its source.
func TestPisotypeCloneIndependent(t *testing.T) {
	for _, gu := range goldenUniverses(t) {
		s := newOpSequence(gu.u, gu.filter, 3)
		for step := 0; step < 150; step++ {
			s.run(1)
			orig := s.pool[s.r.Intn(len(s.pool))]
			before := snap(orig)
			c := orig.Clone()
			mutate := func(x *symbolic.Pisotype) {
				for i := 0; i < 6; i++ {
					a, b := s.pair()
					if s.r.Intn(3) == 0 {
						x.AddNeq(a, b)
					} else {
						x.AddEq(a, b)
					}
				}
			}
			mutate(c)
			if !before.same(orig) {
				t.Fatalf("%s step %d: mutating a clone changed its source: %s -> %s", gu.name, step, before.str, orig.String())
			}
			cloned := snap(c)
			mutate(orig)
			if !cloned.same(c) {
				t.Fatalf("%s step %d: mutating a source changed its clone: %s -> %s", gu.name, step, cloned.str, c.String())
			}
		}
	}
}
