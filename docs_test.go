package repro_test

import (
	"encoding/json"
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

	changesPRRe    = regexp.MustCompile(`^(?:- )?PR (\d+)\b`)
	changesClaimRe = regexp.MustCompile(`\bCLAIMS (\w+)`)
	gainsRatioRe   = regexp.MustCompile(`^\d+\.\d+$`)
	gainsCommitRe  = regexp.MustCompile("`[0-9a-f]{7,}`")
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

// gainsRows returns the rows of the table that opens EXPERIMENTS.md's
// "Claimed gains" section, each row's cells trimmed, header and rule
// left out.
func gainsRows(doc string) [][]string {
	_, section, ok := strings.Cut(doc, "\n## Claimed gains\n")
	if !ok {
		return nil
	}
	var rows [][]string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	if len(rows) < 2 {
		return nil
	}
	return rows[2:]
}

// TestClaimedGainsTable holds EXPERIMENTS.md's gains table to its shape
// — each row a PR number, a workload BENCHMARK.json declares, a ratio
// and a commit that holds the full write-up — and to CHANGES.md: every
// "CLAIMS <workload>" there has a row with that PR and workload.
func TestClaimedGainsTable(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var bench struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal([]byte(read("BENCHMARK.json")), &bench); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}

	rows := gainsRows(read("EXPERIMENTS.md"))
	if len(rows) == 0 {
		t.Fatal(`EXPERIMENTS.md has no table under "## Claimed gains"`)
	}
	have := map[string]bool{}
	for _, cells := range rows {
		row := strings.Join(cells, " | ")
		if len(cells) < 3 {
			t.Errorf("gains row %q: want PR, workload and ratio cells", row)
			continue
		}
		pr, workload := cells[0], strings.Trim(cells[1], "`")
		if _, err := strconv.Atoi(pr); err != nil {
			t.Errorf("gains row %q: first cell is not a PR number", row)
		}
		if !workloads[workload] {
			t.Errorf("gains row %q: %q is not a workload of BENCHMARK.json", row, workload)
		}
		if !gainsRatioRe.MatchString(cells[2]) {
			t.Errorf("gains row %q: third cell is not a ratio", row)
		}
		if !gainsCommitRe.MatchString(row) {
			t.Errorf("gains row %q names no commit of 7 or more hex digits", row)
		}
		have[pr+" "+workload] = true
	}

	for _, line := range strings.Split(read("CHANGES.md"), "\n") {
		for _, m := range changesClaimRe.FindAllStringSubmatch(line, -1) {
			pr := changesPRRe.FindStringSubmatch(line)
			if pr == nil {
				t.Errorf("CHANGES.md claims %s in an entry with no PR number: %.60q", m[1], line)
				continue
			}
			if !have[pr[1]+" "+m[1]] {
				t.Errorf("CHANGES.md: PR %s claims %s, and EXPERIMENTS.md's gains table has no row for it", pr[1], m[1])
			}
		}
	}
}

// TestChangesEntrySize holds every CHANGES.md entry, one a line, to
// 2 KB: the full story of a change is its commit, not the log.
func TestChangesEntrySize(t *testing.T) {
	text, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(text), "\n") {
		if len(line) > 2048 {
			t.Errorf("CHANGES.md line %d is %d bytes, over 2 048: %.60q", i+1, len(line), line)
		}
	}
}
