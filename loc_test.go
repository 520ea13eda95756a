package repro_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateLOC = flag.Bool("update", false, "rewrite LOC.txt from this tree")

const docsRow = "README.md+DESIGN.md+EXPERIMENTS.md"

// locRows computes what ROADMAP tracks ("Non-test LOC per package is
// tracked; growth needs a reason"): for every package under internal/ and
// cmd/, its non-test lines and the unsupported( refusal sites among them,
// and for the three documents together, their bytes.
func locRows(t *testing.T) (names []string, rows map[string][2]int) {
	t.Helper()
	rows = map[string][2]int{}
	for _, pattern := range []string{"internal/*", "cmd/*"} {
		pkgs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			files, _ := filepath.Glob(filepath.Join(pkg, "*.go"))
			var row [2]int
			for _, f := range files {
				if strings.HasSuffix(f, "_test.go") {
					continue
				}
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range bytes.SplitAfter(src, []byte("\n")) {
					if len(l) > 0 {
						row[0]++
					}
					if bytes.Contains(l, []byte("unsupported(")) {
						row[1]++
					}
				}
			}
			if row[0] > 0 {
				rows[filepath.ToSlash(pkg)] = row
			}
		}
	}
	var docs [2]int
	for _, f := range strings.Split(docsRow, "+") {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		docs[0] += int(st.Size())
	}
	rows[docsRow] = docs
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, rows
}

// TestLOCLedger holds the tree to LOC.txt: a row that rose, or is new,
// fails until the ledger changes in the same commit, so growth shows in
// the diff it arrives in; a row that fell only asks for a regeneration.
func TestLOCLedger(t *testing.T) {
	names, got := locRows(t)
	if *updateLOC {
		var out strings.Builder
		out.WriteString("# non-test lines (bytes, for the documents) and unsupported( sites; rewritten by\n# `go test -run TestLOCLedger -update .`, which any row that rises has to ride with\n")
		for _, name := range names {
			fmt.Fprintf(&out, "%7d %3d %s\n", got[name][0], got[name][1], name)
		}
		if err := os.WriteFile("LOC.txt", []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	text, err := os.ReadFile("LOC.txt")
	if err != nil {
		t.Fatal(err)
	}
	ledger := map[string][2]int{}
	for _, l := range strings.Split(string(text), "\n") {
		var row [2]int
		var name string
		if n, _ := fmt.Sscanf(l, "%d %d %s", &row[0], &row[1], &name); n == 3 {
			ledger[name] = row
		}
	}
	for _, name := range names {
		g, l := got[name], ledger[name]
		switch {
		case g[0] > l[0] || g[1] > l[1]:
			t.Errorf("%s: %d with %d unsupported( sites, LOC.txt says %d with %d; if the growth has a reason, rerun with -update and give it", name, g[0], g[1], l[0], l[1])
		case g != l:
			t.Logf("%s fell to %d with %d unsupported( sites (LOC.txt: %d with %d); regenerate with -update", name, g[0], g[1], l[0], l[1])
		}
	}
}
