package lower

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/annotate"
	"repro/internal/cparse"
	"repro/internal/goparse"
	"repro/internal/idlparse"
	"repro/internal/javaparse"
	"repro/internal/mtype"
	"repro/internal/stype"
	"repro/internal/synth"
)

// suiteUniverses parses and annotates the four languages of the seed-1
// 60-class suite, the stubgen_suite benchmark's inputs.
func suiteUniverses(t *testing.T) map[string]*stype.Universe {
	t.Helper()
	cfg := synth.VisualAgeScaled(60)
	cfg.Seed = 1
	suite := synth.Generate(cfg)
	us := make(map[string]*stype.Universe)
	var err error
	if us["java"], err = javaparse.Parse("java", suite.JavaSource); err != nil {
		t.Fatal(err)
	}
	if us["idl"], err = idlparse.Parse("idl", suite.IDLSource); err != nil {
		t.Fatal(err)
	}
	if us["c"], err = cparse.Parse("c", suite.CSource, cparse.Config{}); err != nil {
		t.Fatal(err)
	}
	if us["go"], err = goparse.Parse("go", suite.GoSource); err != nil {
		t.Fatal(err)
	}
	for name, script := range map[string]string{"java": suite.JavaScript, "c": suite.CScript, "go": suite.GoScript} {
		if _, err := annotate.ApplyScript(us[name], script); err != nil {
			t.Fatal(err)
		}
	}
	return us
}

// leafName is a leaf's kind, parameters and tag: what makes two leaves one.
func leafName(n *mtype.Type) string {
	if n.Kind() > mtype.KindUnit { // Integer, Character, Real and Unit are the first four kinds
		return ""
	}
	return fmt.Sprintf("%s %q", n, n.Tag())
}

// TestOneNodePerLeaf: a universe lowers every use of a leaf of one kind,
// parameters and tag to one node, marked interned, in each language of the
// suite.
func TestOneNodePerLeaf(t *testing.T) {
	for lang, u := range suiteUniverses(t) {
		l, leaves, graphs := New(u), make(map[string]*mtype.Type), 0
		for _, name := range u.Names() {
			ty, err := l.Decl(name)
			if err != nil {
				t.Fatalf("%s: %s: %v", lang, name, err)
			}
			for _, n := range mtype.Nodes(ty) {
				key := leafName(n)
				if key == "" {
					continue
				}
				graphs++
				if !n.Interned() {
					t.Errorf("%s: %s: the leaf %s is not marked interned", lang, name, key)
				}
				if other := leaves[key]; other == nil {
					leaves[key] = n
				} else if other != n {
					t.Errorf("%s: %s: two nodes for the leaf %s", lang, name, key)
				}
			}
		}
		t.Logf("%s: %d declarations, %d leaf nodes, in %d graphs", lang, len(u.Names()), len(leaves), graphs)
	}
}

// shape renders the graph of t, its nodes numbered in preorder: kinds,
// tags, parameters and edges, and so every change a node can undergo but
// one. Validate records a graph's node count on its root, which may be a
// shared leaf: the count is the same for every caller and is written
// atomically, so it is left out.
func shape(t *mtype.Type) string {
	nodes := mtype.Nodes(t)
	id := make(map[*mtype.Type]int, len(nodes))
	for i, n := range nodes {
		id[n] = i
	}
	var sb strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&sb, "%s %q", n.Kind(), n.Tag())
		if name := leafName(n); name != "" {
			sb.WriteString(" " + name)
		}
		for _, c := range n.Children() {
			fmt.Fprintf(&sb, " %d", id[c])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestLoweredGraphsStayPut: sharing a leaf among its uses is sound only if
// nothing changes a node once Decl has returned it — no tag, no body, no
// child — while the universe's other declarations lower around it.
func TestLoweredGraphsStayPut(t *testing.T) {
	for lang, u := range suiteUniverses(t) {
		l, seen := New(u), make(map[string]string)
		names := u.Names()
		for _, name := range names {
			ty, err := l.Decl(name)
			if err != nil {
				t.Fatalf("%s: %s: %v", lang, name, err)
			}
			seen[name] = shape(ty)
		}
		for _, name := range names {
			ty, _ := l.Decl(name)
			if got := shape(ty); got != seen[name] {
				t.Errorf("%s: %s changed after Decl returned it:\n%s\nthen\n%s", lang, name, seen[name], got)
			}
		}
	}
}
