package testutil

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/synth"
)

// Pins names the sources a frontend's declaration golden pins: the
// string constants of some Go files, the example programs', a fuzz
// target's corpus, and the frontend's side of three 60-class
// synthesized suites.
type Pins struct {
	// Files are Go files, relative to the frontend's package directory,
	// whose string constants are sources; each is labelled by its base
	// name.
	Files []string
	// Examples globs example programs (labelled example/main.go) whose
	// string constants are sources; "" for none.
	Examples string
	// Corpus is the fuzz target whose seeds are sources.
	Corpus string
	// Synth picks the frontend's language out of a synthesized suite.
	Synth func(*synth.Suite) string
}

// The four frontends' pins.
var (
	CPins = Pins{
		Files:    []string{"cparse_test.go", "robust_test.go", "fuzz_test.go"},
		Examples: "../../examples/*/main.go",
		Corpus:   "FuzzCParse",
		Synth:    func(s *synth.Suite) string { return s.CSource },
	}
	JavaPins = Pins{
		Files:    []string{"javaparse_test.go", "robust_test.go", "fuzz_test.go"},
		Examples: "../../examples/*/main.go",
		Corpus:   "FuzzJavaParse",
		Synth:    func(s *synth.Suite) string { return s.JavaSource },
	}
	IDLPins = Pins{
		Files:    []string{"idlparse_test.go", "robust_test.go", "fuzz_test.go"},
		Examples: "../../examples/*/main.go",
		Corpus:   "FuzzIDLParse",
		Synth:    func(s *synth.Suite) string { return s.IDLSource },
	}
	GoPins = Pins{
		Files:  []string{"goparse_test.go", "fuzz_test.go", "../../examples/go-idl/main.go"},
		Corpus: "FuzzGoParse",
		Synth:  func(s *synth.Suite) string { return s.GoSource },
	}
)

// Sources returns the pinned sources that keep accepts (the corpus and
// the synthesized suites whole), reading the files from dir, the
// frontend's package directory relative to the calling test's.
func (p Pins) Sources(t *testing.T, dir string, keep func(string) bool) []Source {
	t.Helper()
	var out []Source
	for _, file := range p.Files {
		out = append(out, LiteralSources(t, filepath.Join(dir, file), filepath.Base(file), keep)...)
	}
	if p.Examples != "" {
		examples, err := filepath.Glob(filepath.Join(dir, p.Examples))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range examples {
			label := filepath.Join(filepath.Base(filepath.Dir(file)), "main.go")
			out = append(out, LiteralSources(t, file, label, keep)...)
		}
	}
	out = append(out, corpusSources(t, filepath.Join(dir, "testdata", "fuzz", p.Corpus))...)
	for _, seed := range []uint64{7, 11, 60} {
		cfg := synth.VisualAgeScaled(60)
		cfg.Seed = seed
		out = append(out, Source{Label: fmt.Sprintf("synth VisualAgeScaled(60) seed %d", seed), Src: p.Synth(synth.Generate(cfg))})
	}
	return out
}
