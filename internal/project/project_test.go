package project

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cmem"
	"repro/internal/core"
	"repro/internal/stype"
)

const fitterC = `
typedef float point[2];
void fitter(point pts[], int count, point *start, point *end);
`

const figure1Java = `
public class Point { private float x; private float y; }
public class Line { private Point start; private Point end; }
public class PointVector extends java.util.Vector;
public interface JavaIdeal { Line fitter(PointVector pts); }
`

const cScript = `
annotate fitter.start out nonnull
annotate fitter.end out nonnull
annotate fitter.pts length-from=count
`

const jScript = `
annotate Line.start nonnull noalias
annotate Line.end nonnull noalias
annotate PointVector collection-of=Point element-nonnull
annotate JavaIdeal.fitter.pts nonnull
annotate JavaIdeal.fitter.return nonnull
`

func annotatedSession(t *testing.T) *core.Session {
	t.Helper()
	s := core.NewSession()
	if err := s.LoadC("c", fitterC, cmem.ILP32); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadJava("java", figure1Java); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Annotate("c", cScript); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Annotate("java", jScript); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSaveLoadPreservesSession is the §3 project-file workflow: an
// annotated session saved and reloaded still compares equivalent, so the
// interactive annotation work is not lost.
func TestSaveLoadPreservesSession(t *testing.T) {
	s := annotatedSession(t)
	data, err := Save(s)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	v, err := restored.Compare("java", "JavaIdeal", "c", "fitter")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation != core.RelEquivalent {
		t.Errorf("restored session relation = %s\n%s", v.Relation, v.Explain)
	}
	// The Mtype must be byte-identical in rendering.
	orig, _ := s.Mtype("c", "fitter")
	back, _ := restored.Mtype("c", "fitter")
	if orig.String() != back.String() {
		t.Errorf("Mtype drift:\n%s\n%s", orig, back)
	}
}

func TestSaveIsStable(t *testing.T) {
	s := annotatedSession(t)
	d1, err := Save(s)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Save(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Error("Save is not deterministic")
	}
}

func TestRoundTripTwice(t *testing.T) {
	s := annotatedSession(t)
	d1, err := Save(s)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := Load(d1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Save(mid)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Error("save → load → save drifts")
	}
}

func TestAnnotationsSurviveInJSON(t *testing.T) {
	s := annotatedSession(t)
	data, err := Save(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"nonNull": true`, `"lengthFrom": "count"`, `"collectionOf": "Point"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("project file missing %s", want)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		`{`,
		`{"format": 99}`,
		`{"format": 1, "universes": [{"name": "x", "lang": "klingon"}]}`,
		`{"format": 1, "universes": [{"name": "x", "lang": "c",
		  "decls": [{"name": "d", "type": {"kind": "bogus"}}]}]}`,
		`{"format": 1, "universes": [{"name": "x", "lang": "c",
		  "decls": [{"name": "d", "type": {"kind": "named", "name": "ghost"}}]}]}`,
	}
	for _, c := range cases {
		if _, err := Load([]byte(c)); err == nil {
			t.Errorf("Load(%q) succeeded", c)
		}
	}
}

func TestIDLSurvives(t *testing.T) {
	s := core.NewSession()
	err := s.LoadIDL("idl", `
		interface Chan {
			oneway void send(in long payload);
			long ask(in string q, out double conf);
		};
		union U switch (long) { case 1: long a; default: float b; };
		enum E { x, y, z };
	`)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Save(s)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := s.Mtype("idl", "Chan")
	if err != nil {
		t.Fatal(err)
	}
	back, err := restored.Mtype("idl", "Chan")
	if err != nil {
		t.Fatal(err)
	}
	if orig.String() != back.String() {
		t.Errorf("IDL Mtype drift:\n%s\n%s", orig, back)
	}
}

// TestGoSurvives: a Go universe — embedded fields, embedded interfaces,
// tag annotations, receiver methods — round-trips through the project
// file with an identical Mtype.
func TestGoSurvives(t *testing.T) {
	s := core.NewSession()
	err := s.LoadGo("go", `package p

type Meta struct {
	Qty int32
}

type Item struct {
	Meta
	Code uint16 `+"`mbird:\"char\"`"+`
}

type Closer interface {
	Close() bool
}

type Store interface {
	Closer
	Get(n int32) Item
}
`)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Save(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"embedded": true`, `"embeds"`, `"lang": "go"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("serialized project missing %s", want)
		}
	}
	restored, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range []string{"Item", "Store"} {
		orig, err := s.Mtype("go", decl)
		if err != nil {
			t.Fatal(err)
		}
		back, err := restored.Mtype("go", decl)
		if err != nil {
			t.Fatal(err)
		}
		if orig.String() != back.String() {
			t.Errorf("%s Mtype drift:\n%s\n%s", decl, orig, back)
		}
	}
}

// javaparse declares java.util.Vector and Vector as one node; a project
// file keeps them one, so annotating either after a load is seen through
// both. A format-1 file written before aliases still loads.
func TestVectorAliasSurvives(t *testing.T) {
	s := core.NewSession()
	if err := s.LoadJava("java", figure1Java); err != nil {
		t.Fatal(err)
	}
	data, err := Save(s)
	if err != nil {
		t.Fatal(err)
	}
	collectionOf := func(s *core.Session) string {
		if _, err := s.Annotate("java", "annotate Vector collection-of=Point"); err != nil {
			t.Fatal(err)
		}
		return s.Universe("java").Lookup("java.util.Vector").Type.Ann.CollectionOf
	}
	restored, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := collectionOf(restored); got != "Point" {
		t.Errorf("java.util.Vector collection-of = %q after annotating Vector, want Point", got)
	}

	// The same file with the alias written out whole, as before aliases.
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	decls := f.Universes[0].Decls
	for i, d := range decls {
		for _, e := range decls[:i] {
			if d.Alias == e.Name {
				decls[i] = Decl{Name: d.Name, Type: e.Type}
			}
		}
	}
	old, err := json.Marshal(f)
	if err != nil || strings.Contains(string(old), `"alias"`) {
		t.Fatalf("old-format file: %v", err)
	}
	restored, err = Load(old)
	if err != nil {
		t.Fatal(err)
	}
	if got := collectionOf(restored); got == "Point" {
		t.Error("old-format file loaded the two declarations as one node")
	}
}

// TestLoadRefusesIllFormed: a loaded universe passes the walk a parsed
// one does, which refuses a node that lacks a child its kind requires.
// Before that walk checked, the first two rows panicked in lowering and
// each missing child of the others lowered as unit.
func TestLoadRefusesIllFormed(t *testing.T) {
	cases := []struct{ lang, ty, want string }{
		{"c", `{"kind":"func","params":[{"name":"p"}]}`, "parameter p has no type"},
		{"java", `{"kind":"interface","methods":[{"name":"m","params":[{"name":"p"}]}]}`, "parameter p of method m has no type"},
		{"c", `{"kind":"pointer"}`, "pointer has no element"},
		{"c", `{"kind":"struct","fields":[{"name":"f","type":{"kind":"pointer"}}]}`, "pointer has no element"},
		{"idl", `{"kind":"array","len":2}`, "array has no element"},
		{"idl", `{"kind":"sequence"}`, "sequence has no element"},
		{"java", `{"kind":"class","fields":[{"name":"f"}]}`, "field f has no type"},
	}
	for _, c := range cases {
		file := `{"format": 1, "universes": [{"name": "u", "lang": "` + c.lang + `",
		  "decls": [{"name": "Bad", "type": ` + c.ty + `}]}]}`
		_, err := Load([]byte(file))
		if want := "declaration Bad: " + c.want; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Load of %s: %v, want an error naming %q", c.ty, err, want)
		}
	}
}

// TestPerUseNodes: each use of one type spec — the declarators of an IDL
// struct member or typedef, an IDL attribute's _get_ and _set_, the
// declarators of a Java field — holds its own nodes down to the element,
// so annotating the element of one use leaves the other's, in the parsed
// session and in one saved and loaded again.
func TestPerUseNodes(t *testing.T) {
	parsed := core.NewSession()
	if err := parsed.LoadIDL("idl", `struct P { long x; };
		struct S { sequence<P> a, b; };
		typedef sequence<P> T1, T2;
		interface I { attribute sequence<P> at; };`); err != nil {
		t.Fatal(err)
	}
	if err := parsed.LoadJava("java", `class S { int[] a, b; }`); err != nil {
		t.Fatal(err)
	}
	data, err := Save(parsed)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*core.Session{parsed, loaded} {
		for _, c := range []struct{ universe, marked, other string }{
			{"idl", "S.a.*", "S.b.*"},
			{"idl", "T1.*", "T2.*"},
			{"idl", "I._get_at.return.*", "I._set_at.value.*"},
			{"java", "S.a.*", "S.b.*"},
		} {
			if _, err := s.Annotate(c.universe, "annotate "+c.marked+" nonnull"); err != nil {
				t.Fatal(err)
			}
			path, err := stype.ParsePath(c.other)
			if err != nil {
				t.Fatal(err)
			}
			sel, err := path.Select(s.Universe(c.universe))
			if err != nil || len(sel) != 1 {
				t.Fatalf("%s: %v, %d nodes", c.other, err, len(sel))
			}
			if sel[0].Node.Ann.NonNull {
				t.Errorf("%s: annotating %s marked %s too", c.universe, c.marked, c.other)
			}
		}
	}
}
