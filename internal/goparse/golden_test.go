package goparse_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/goparse"
	"repro/internal/stype"
	"repro/internal/synth"
)

var update = flag.Bool("update", false, "rewrite testdata/decls.golden from the parser under test")

// source is one Go input of the declaration pin.
type source struct{ label, src string }

// pinSources gathers every Go source the package's tests name: each
// string constant beginning "package" in goparse_test.go and
// fuzz_test.go, examples/go-idl's goStock, the FuzzGoParse corpus, and
// the Go side of three 60-class synthesized suites.
func pinSources(t *testing.T) []source {
	t.Helper()
	var out []source
	for _, file := range []string{"goparse_test.go", "fuzz_test.go", "../../examples/go-idl/main.go"} {
		out = append(out, literalSources(t, file)...)
	}
	corpus, err := filepath.Glob("testdata/fuzz/FuzzGoParse/*")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(corpus)
	for _, path := range corpus {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		body := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(body, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, source{"corpus " + filepath.Base(path), src})
	}
	for _, seed := range []uint64{7, 11, 60} {
		cfg := synth.VisualAgeScaled(60)
		cfg.Seed = seed
		out = append(out, source{fmt.Sprintf("synth VisualAgeScaled(60) seed %d", seed), synth.Generate(cfg).GoSource})
	}
	return out
}

// literalSources returns the constant strings in a Go file that begin
// with "package", labelled by their enclosing declaration and their
// order within it.
func literalSources(t *testing.T, file string) []source {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var out []source
	seen := make(map[string]bool)
	for _, d := range f.Decls {
		name := "var"
		switch d := d.(type) {
		case *ast.FuncDecl:
			name = d.Name.Name
		case *ast.GenDecl:
			if vs, ok := d.Specs[0].(*ast.ValueSpec); ok {
				name = vs.Names[0].Name
			}
		}
		n := 0
		ast.Inspect(d, func(node ast.Node) bool {
			e, ok := node.(ast.Expr)
			if !ok {
				return true
			}
			s, ok := constString(e)
			if !ok {
				// A sum with a computed term is no source, nor is any part of it.
				b, sum := e.(*ast.BinaryExpr)
				return !sum || b.Op != token.ADD
			}
			if strings.HasPrefix(s, "package") && !seen[s] {
				seen[s] = true
				n++
				out = append(out, source{fmt.Sprintf("%s %s/%d", filepath.Base(file), name, n), s})
			}
			return false
		})
	}
	return out
}

// constString folds a string literal or a sum of them.
func constString(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind == token.STRING {
			s, err := strconv.Unquote(e.Value)
			return s, err == nil
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			x, okx := constString(e.X)
			y, oky := constString(e.Y)
			return x + y, okx && oky
		}
	case *ast.ParenExpr:
		return constString(e.X)
	}
	return "", false
}

// dump writes a deep print of t: kind, name, prim, length, annotations,
// and every field (with Embedded), method, parameter, result and embed.
func dump(b *strings.Builder, t *stype.Type, indent string) {
	if t == nil {
		b.WriteString("<nil>\n")
		return
	}
	fmt.Fprintf(b, "%s", t.Kind)
	if t.Name != "" {
		fmt.Fprintf(b, " %s", t.Name)
	}
	switch t.Kind {
	case stype.KPrim:
		fmt.Fprintf(b, " %s", t.Prim)
	case stype.KArray:
		fmt.Fprintf(b, " len=%d", t.Len)
	case stype.KNamed:
		if t.Target != nil {
			fmt.Fprintf(b, " -> %s", t.Target.Name)
		}
	}
	if !t.Ann.IsZero() {
		ann, err := json.Marshal(t.Ann)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(b, " %s", ann)
	}
	if t.Super != "" {
		fmt.Fprintf(b, " super=%s", t.Super)
	}
	if len(t.Embeds) > 0 {
		fmt.Fprintf(b, " embeds=%s", strings.Join(t.Embeds, ","))
	}
	b.WriteString("\n")
	in := indent + "  "
	for _, f := range t.Fields {
		fmt.Fprintf(b, "%sfield %s", in, f.Name)
		if f.Embedded {
			b.WriteString(" embedded")
		}
		b.WriteString(": ")
		dump(b, f.Type, in)
	}
	for _, m := range t.Methods {
		fmt.Fprintf(b, "%smethod %s\n", in, m.Name)
		dumpSignature(b, m.Params, m.Result, in+"  ")
	}
	dumpSignature(b, t.Params, t.Result, in)
	if t.ElemType != nil {
		fmt.Fprintf(b, "%selem: ", in)
		dump(b, t.ElemType, in)
	}
}

func dumpSignature(b *strings.Builder, params []stype.Param, result *stype.Type, indent string) {
	for _, p := range params {
		fmt.Fprintf(b, "%sparam %s: ", indent, p.Name)
		dump(b, p.Type, indent)
	}
	if result != nil {
		fmt.Fprintf(b, "%sresult: ", indent)
		dump(b, result, indent)
	}
}

// TestDeclarationsGolden pins every declaration Parse returns for the
// sources above, and the fingerprints of their Mtypes through core: a
// change of frontend has to leave testdata/decls.golden byte-identical.
// A rejected source is pinned as rejected; its error text is not.
func TestDeclarationsGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range pinSources(t) {
		fmt.Fprintf(&b, "== %s\n", s.label)
		u, err := goparse.Parse("pin.go", s.src)
		if err != nil {
			b.WriteString("rejected\n")
			continue
		}
		sess := core.NewSession()
		if err := sess.LoadGo("go", s.src); err != nil {
			t.Fatalf("%s: core refuses what Parse accepts: %v", s.label, err)
		}
		for _, d := range u.Decls() {
			fmt.Fprintf(&b, "decl %s: ", d.Name)
			dump(&b, d.Type, "")
			if m, err := sess.Mtype("go", d.Name); err != nil {
				fmt.Fprintf(&b, "  mtype error: %v\n", err)
			} else {
				p := fingerprint.Of(m)
				fmt.Fprintf(&b, "  mtype %s %s\n", p.Canonical, p.Exact)
			}
		}
	}
	path := filepath.Join("testdata", "decls.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("decls.golden differs at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("decls.golden differs in length: %d lines, want %d", len(gl), len(wl))
	}
}
