package ltl_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"verifas/internal/benchmark"
	"verifas/internal/ltl"
)

// FuzzTranslate translates every parsable input under a 100 ms deadline:
// the translation must return within 2 s, and an automaton it completes
// must accept exactly the short finite traces the formula holds on.
func FuzzTranslate(f *testing.F) {
	for _, tm := range benchmark.Templates() {
		f.Add(ltl.String(tm.Build("p", "q")))
	}
	parts := make([]string, 8)
	for i := range parts {
		parts[i] = fmt.Sprintf("(p%d U q%d)", i, i)
	}
	f.Add(strings.Join(parts, " || "))

	f.Fuzz(func(t *testing.T, src string) {
		phi, err := ltl.Parse(src)
		if err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		start := time.Now()
		b, err := ltl.TranslateContext(ctx, phi)
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("translating %q returned after %s under a 100ms deadline", src, d)
		}
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("translating %q: %v, want nil or the deadline", src, err)
			}
			return
		}
		atoms := ltl.Atoms(phi)
		r := rand.New(rand.NewSource(int64(len(src))))
		for i := 0; i < 20; i++ {
			trace := make([]ltl.Letter, 1+r.Intn(4))
			for j := range trace {
				l := ltl.MapLetter{}
				for _, a := range atoms {
					l[a] = r.Intn(2) == 1
				}
				trace[j] = l
			}
			if got, want := b.AcceptsFinite(trace), ltl.EvalFinite(phi, trace); got != want {
				t.Fatalf("%q on %v: automaton accepts=%v, formula holds=%v", src, trace, got, want)
			}
		}
	})
}
