package spec

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"verifas/internal/core"
	"verifas/internal/has"
	"verifas/internal/synth"
	"verifas/internal/workflows"
)

// fuzzSpecSeeds are the seed corpus of the spec fuzz targets: the .has
// files under testdata/, and the systems the programs under examples/
// verify, printed in the textual format.
func fuzzSpecSeeds(f *testing.F) []string {
	f.Helper()
	paths, err := filepath.Glob("../../testdata/*.has")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed specs under testdata/: %v", err)
	}
	seeds := []string{sample}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, string(src))
	}
	// examples/synthetic's default system.
	synthetic := synth.GenerateValid(synth.Params{
		Relations: 3, Tasks: 3, VarsPerTask: 8, ServicesPerTask: 6,
		AtomsPerCond: 3, NonKeyAttrs: 2, Constants: 4,
	}, 11, 3, 30)
	for _, sys := range []*has.System{
		workflows.OrderFulfillment(false),
		workflows.OrderFulfillment(true),
		workflows.TravelBooking(),
		synthetic,
	} {
		seeds = append(seeds, Print(&File{System: sys}))
	}
	return seeds
}

// A new coverage-widening input is minimized before fuzzing goes on;
// on these multi-kilobyte seeds the default minute of minimization
// stalls the run, hence -fuzzminimizetime in the commands below.

// typedError reports whether err is one of the errors the parser and the
// validator document: a *ParseError or a *has.ValidationError.
func typedError(err error) bool {
	var pe *ParseError
	var ve *has.ValidationError
	return errors.As(err, &pe) || errors.As(err, &ve)
}

// FuzzParse feeds arbitrary text to Parse. It must never panic, and it
// returns either a file with a complete system or a typed error.
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 60s -fuzzminimizetime 5s ./internal/spec/
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSpecSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		switch {
		case err != nil && file != nil:
			t.Fatalf("both a file and an error: %v", err)
		case err != nil && !typedError(err):
			t.Fatalf("untyped error %T: %v", err, err)
		case err == nil && (file == nil || file.System == nil || file.System.Schema == nil || file.System.Root == nil):
			t.Fatal("no error and no complete system")
		}
	})
}

// FuzzParseProperty feeds arbitrary text to ParseProperty. It must never
// panic, and it returns either a property with a formula or a typed error.
//
//	go test -run '^$' -fuzz '^FuzzParseProperty$' -fuzztime 60s -fuzzminimizetime 5s ./internal/spec/
func FuzzParseProperty(f *testing.F) {
	for _, s := range fuzzSpecSeeds(f) {
		// Every property block of the seed specs, on its own.
		if i := strings.Index(s, "\nproperty "); i >= 0 {
			f.Add(s[i+1:])
		}
	}
	f.Add("property p of Main {\n  global g: R\n  define ok := g != null\n  formula G (close(Main) -> ok)\n}")
	f.Fuzz(func(t *testing.T, src string) {
		prop, err := ParseProperty(src)
		switch {
		case err != nil && prop != nil:
			t.Fatalf("both a property and an error: %v", err)
		case err != nil && !typedError(err):
			t.Fatalf("untyped error %T: %v", err, err)
		case err == nil && (prop == nil || prop.Formula == nil):
			t.Fatal("no error and no property formula")
		}
	})
}

// FuzzValidate runs has.System.Validate on every system Parse accepts,
// and core.ValidateProperty on each of the file's properties: the checks
// a submitted spec goes through before it is compiled. Neither may
// panic; Validate must keep accepting the system Parse validated, and a
// property either validates to a task or is rejected with an error.
//
//	go test -run '^$' -fuzz '^FuzzValidate$' -fuzztime 60s -fuzzminimizetime 5s ./internal/spec/
func FuzzValidate(f *testing.F) {
	for _, s := range fuzzSpecSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return
		}
		if err := file.System.Validate(); err != nil {
			t.Fatalf("a parsed system fails validation: %v", err)
		}
		for _, p := range file.Properties {
			if task, err := core.ValidateProperty(file.System, p); (task == nil) == (err == nil) {
				t.Fatalf("property %s: task %v, error %v", p.Name, task, err)
			}
		}
	})
}
