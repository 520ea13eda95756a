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
	"strconv"
	"strings"
	"testing"
)

var (
	docFuncRe  = regexp.MustCompile(`\b(?:Benchmark|Test|Fuzz)[A-Z0-9]\w*`)
	docBenchRe = regexp.MustCompile(`\bBENCH_\w+\.json\b`)
	docFlagRe  = regexp.MustCompile("(?:^|[\\s`(])-([a-z][a-z0-9-]*)")
)

// liveNames collects what the tree under root holds: every top-level
// function a *_test.go declares, and the flag names mbirdload's
// parseFlags defines.
func liveNames(t *testing.T, root string) (funcs, flags map[string]bool) {
	t.Helper()
	funcs, flags = map[string]bool{}, map[string]bool{}
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
		isLoad := path == filepath.Join(root, "cmd", "mbirdload", "main.go")
		if !strings.HasSuffix(path, "_test.go") && !isLoad {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			if !isLoad {
				funcs[fn.Name.Name] = true
			} else if fn.Name.Name == "parseFlags" {
				// fs.StringVar(&cfg.tier, "tier", ...): the name is argument 1.
				ast.Inspect(fn, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) < 2 {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					lit, isLit := call.Args[1].(*ast.BasicLit)
					if ok && isLit && strings.HasSuffix(sel.Sel.Name, "Var") && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						flags[name] = true
					}
					return true
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) == 0 || len(flags) == 0 {
		t.Fatalf("found %d test functions and %d mbirdload flags under %s", len(funcs), len(flags), root)
	}
	return funcs, flags
}

// staleNames returns what doc names that the tree does not hold: a
// Benchmark*/Test*/Fuzz* function outside funcs, a BENCH_*.json file that
// is not under root, or — in a paragraph that mentions mbirdload — a
// -flag outside flags.
func staleNames(root, doc string, funcs, flags map[string]bool) []string {
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
			if !flags[m[1]] {
				stale["mbirdload -"+m[1]] = true
			}
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
	funcs, flags := liveNames(t, root)
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		doc, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range staleNames(root, string(doc), funcs, flags) {
			t.Errorf("%s names %s, which the tree does not have", name, s)
		}
	}

	// The checker itself: the names the docs carried before the legacy
	// harness was deleted must be caught, live ones must not.
	record := "BENCH_" + "load.json" // spelled in two parts so a grep for such names finds only stale docs
	gone := "`BenchmarkOverheadFused` wrote " + record + ".\n\n" +
		"Run `mbirdload -tier compare -json -bench-file F`; see TestExamplesRun."
	want := []string{record, "BenchmarkOverheadFused", "mbirdload -bench-file", "mbirdload -json"}
	if got := staleNames(root, gone, funcs, flags); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("staleNames on a stale text = %v, want %v", got, want)
	}
}
