package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	docFuncRe  = regexp.MustCompile(`\b(?:Benchmark|Test|Fuzz)[A-Z0-9]\w*`)
	docBenchRe = regexp.MustCompile(`\bBENCH_\w+\.json\b`)
	docFlagRe  = regexp.MustCompile("(?:^|[\\s`(])-([a-z][a-z0-9-]*)")
)

// liveNames collects every top-level function a *_test.go under root
// declares.
func liveNames(t *testing.T, root string) map[string]bool {
	t.Helper()
	funcs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir // .git, .bench_build
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) == 0 {
		t.Fatalf("found no test functions under %s", root)
	}
	return funcs
}

// staleNames returns what doc names that the tree does not hold: a
// Benchmark*/Test*/Fuzz* function outside funcs, a BENCH_*.json file that
// is not under root, or any -flag in a paragraph that mentions mbirdload,
// a load driver the tree no longer has.
func staleNames(root, doc string, funcs map[string]bool) []string {
	stale := map[string]bool{}
	for _, name := range docFuncRe.FindAllString(doc, -1) {
		if !funcs[name] {
			stale[name] = true
		}
	}
	for _, name := range docBenchRe.FindAllString(doc, -1) {
		if _, err := os.Stat(filepath.Join(root, name)); err != nil {
			stale[name] = true
		}
	}
	for _, para := range strings.Split(doc, "\n\n") {
		if !strings.Contains(para, "mbirdload") {
			continue
		}
		for _, m := range docFlagRe.FindAllStringSubmatch(para, -1) {
			stale["mbirdload -"+m[1]] = true
		}
	}
	out := make([]string, 0, len(stale))
	for name := range stale {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestDocsNameLiveCode keeps README, DESIGN and EXPERIMENTS from naming
// a test, benchmark, fuzz target, BENCH file or mbirdload flag that the
// tree no longer has — a declared number nobody can regenerate.
func TestDocsNameLiveCode(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	funcs := liveNames(t, root)
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		doc, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range staleNames(root, string(doc), funcs) {
			t.Errorf("%s names %s, which the tree does not have", name, s)
		}
	}

	// The checker itself: the names the docs carried before the legacy
	// harness was deleted must be caught, live ones must not.
	record := "BENCH_" + "load.json" // spelled in two parts so a grep for such names finds only stale docs
	gone := "`BenchmarkOverheadFused` wrote " + record + ".\n\n" +
		"Run `mbirdload -tier compare -json -bench-file F`; see TestExamplesRun."
	want := []string{record, "BenchmarkOverheadFused", "mbirdload -bench-file", "mbirdload -json", "mbirdload -tier"}
	if got := staleNames(root, gone, funcs); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("staleNames on a stale text = %v, want %v", got, want)
	}
}
