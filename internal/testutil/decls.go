package testutil

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

	"repro/internal/fingerprint"
	"repro/internal/lower"
	"repro/internal/stype"
)

// Source is one input of a frontend's declaration pin.
type Source struct{ Label, Src string }

// LiteralSources returns the constant strings in a Go file (literals and
// sums of literals) that keep accepts, labelled by label, their
// enclosing declaration and their order within it. A string the file
// repeats counts once.
func LiteralSources(t *testing.T, file, label string, keep func(string) bool) []Source {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var out []Source
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
			if !seen[s] && keep(s) {
				seen[s] = true
				n++
				out = append(out, Source{fmt.Sprintf("%s %s/%d", label, name, n), s})
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

// corpusSources returns the string seeds of the fuzz corpus in dir, in
// name order.
func corpusSources(t *testing.T, dir string) []Source {
	t.Helper()
	corpus, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(corpus)
	var out []Source
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
		out = append(out, Source{"corpus " + filepath.Base(path), src})
	}
	return out
}

// PinDecls prints, for each source, every declaration parse returns (a
// deep print) and the fingerprints of its Mtype, the lowering core gives
// a loaded universe. A rejected source is pinned as rejected; its error
// text is not.
func PinDecls(sources []Source, parse func(src string) (*stype.Universe, error)) string {
	var b strings.Builder
	for _, s := range sources {
		fmt.Fprintf(&b, "== %s\n", s.Label)
		u, err := parse(s.Src)
		if err != nil {
			b.WriteString("rejected\n")
			continue
		}
		l := lower.New(u)
		for _, d := range u.Decls() {
			fmt.Fprintf(&b, "decl %s: ", d.Name)
			dump(&b, d.Type, "")
			if m, err := l.Decl(d.Name); err != nil {
				fmt.Fprintf(&b, "  mtype error: %v\n", err)
			} else {
				p := fingerprint.Of(m)
				fmt.Fprintf(&b, "  mtype %s %s\n", p.Canonical, p.Exact)
			}
		}
	}
	return b.String()
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

// CheckGolden fails t unless got is the content of testdata/<name>,
// naming the first line that differs. When the test binary runs with
// -update (a flag the calling package defines) it rewrites the file
// instead.
func CheckGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got %q\nwant %q", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: %d lines, want %d", name, len(gl), len(wl))
	}
}

// PinError writes one row of an error pin: the test and its input (its
// first 40 bytes and its length, if longer), then the error's text, or
// "accepted".
func PinError(b *strings.Builder, test, input string, err error) {
	if len(input) > 40 {
		fmt.Fprintf(b, "== %s %q (%d bytes)\n", test, input[:40], len(input))
	} else {
		fmt.Fprintf(b, "== %s %q\n", test, input)
	}
	if err == nil {
		b.WriteString("accepted\n")
		return
	}
	fmt.Fprintf(b, "%v\n", err)
}
