package lower

import (
	"fmt"
	"testing"

	"repro/internal/annotate"
	"repro/internal/cparse"
	"repro/internal/javaparse"
	"repro/internal/stype"
)

func annotated(t *testing.T, u *stype.Universe, err error, script string) *stype.Universe {
	t.Helper()
	if err == nil {
		_, err = annotate.ApplyScript(u, script)
	}
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestShapeOf reads one use of each kind: the decision every consumer
// switches on, and what it carries for them.
func TestShapeOf(t *testing.T) {
	cu, err := cparse.Parse("t.h", `
		typedef unsigned short wide;
		enum Color { RED, GREEN, BLUE };
		union U { int i; float f; };
		struct Node { int v; struct Node *next; };
		struct S {
			void (*cb)(void); _Bool b; unsigned int u; char c; wide w; double d; enum Color e;
			struct Node n; union U un; int fixed[3]; int *counted; int *one; int *opt; int skip;
		};
	`, cparse.Config{})
	cu = annotated(t, cu, err, `
		annotate wide char
		annotate S.w repertoire=ascii
		annotate S.u char
		annotate S.c range=0..9
		annotate S.counted length-from=n
		annotate S.one nonnull
		annotate S.skip ignore
	`)
	ju, err := javaparse.Parse("T.java", `
		class Point { float x; float y; }
		class Svc { int call(int x); }
		class PV extends java.util.Vector;
		class H { Point p; Svc s; Svc held; PV v; float[] xs; }
	`)
	ju = annotated(t, ju, err, `
		annotate PV collection-of=Point element-nonnull
		annotate H.held nonnull noalias
		annotate H.v nonnull
	`)
	describe := func(u *stype.Universe, decl string) (out []string) {
		s, err := ShapeOf(u, stype.NewNamed(decl))
		if err != nil {
			t.Fatal(err)
		}
		for s.Kind == Optional {
			s = *s.Inner
		}
		for _, f := range s.Fields {
			fs, err := ShapeOf(u, f.Type)
			if err != nil {
				t.Fatal(err)
			}
			d := fmt.Sprintf("%s@%d %s", f.Name, f.Index, fs.Kind)
			switch {
			case fs.Inner != nil:
				d += " of " + fs.Inner.Kind.String()
			case fs.Bits > 0:
				d += fmt.Sprintf(" %d bits signed=%v in %s", fs.Bits, fs.Signed, fs.Native)
			case fs.Elem != nil:
				d += fmt.Sprintf(" of %s ×%d", fs.Elem, fs.N)
			}
			out = append(out, d)
		}
		return out
	}
	for _, c := range []struct {
		u    *stype.Universe
		decl string
		want []string
	}{
		{cu, "S", []string{
			"cb@0 optional of func", "b@1 bool 8 bits signed=false in bool", "u@2 integer 32 bits signed=false in integer",
			"c@3 integer 8 bits signed=true in character", "w@4 character 16 bits signed=false in integer",
			"d@5 real 64 bits signed=true in real", "e@6 enum 32 bits signed=true in enum", "n@7 record", "un@8 union",
			"fixed@9 fixed of int32 ×3", "counted@10 list of int32 ×0", "one@11 deref of integer", "opt@12 optional of integer",
		}},
		{ju, "H", []string{"p@0 optional of record", "s@1 optional of port", "held@2 record", "v@3 list of Point ×0", "xs@4 list of float32 ×0"}},
	} {
		got := describe(c.u, c.decl)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s reads\n %q, want\n %q", c.decl, got, c.want)
		}
	}
	if s, _ := ShapeOf(cu, cu.Lookup("S").Type.Fields[4].Type); s.Rep.String() != "ascii" {
		t.Errorf("the use's repertoire over the typedef's char reads %s", s.Rep)
	}
	// A typedef of a typedef is read through both; one that names itself
	// is refused.
	tu := annotated(t, cu, nil, "annotate wide int")
	if _, err := tu.Add("wider", stype.NewNamed("wide")); err != nil {
		t.Fatal(err)
	}
	if s, err := ShapeOf(tu, stype.NewNamed("wider")); err != nil || s.Kind != Integer || s.Bits != 16 {
		t.Errorf("a typedef of a typedef reads %v %d bits, %v", s.Kind, s.Bits, err)
	}
	if _, err := tu.Add("loop", stype.NewNamed("loop")); err != nil {
		t.Fatal(err)
	}
	if _, err := ShapeOf(tu, stype.NewNamed("loop")); err == nil {
		t.Error("a typedef naming itself was read")
	}
	if Kind(200).String() != "invalid" {
		t.Errorf("Kind(200) = %s", Kind(200))
	}
}
