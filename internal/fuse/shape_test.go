package fuse

import (
	"testing"

	"repro/internal/cmem"
	"repro/internal/lower"
	"repro/internal/stype"
)

// scalars is the oracle of TestLeavesFollowShape: the scalar shapes of a
// use in the order lower flattens its Mtype, by lower.ShapeOf alone — a
// list stands for itself, and whatever is neither, for nothing.
func scalars(t *testing.T, u *stype.Universe, use *stype.Type) []lower.Shape {
	t.Helper()
	s, err := lower.ShapeOf(u, use)
	if err != nil {
		t.Fatal(err)
	}
	var out []lower.Shape
	switch s.Kind {
	case lower.Bool, lower.Integer, lower.Character, lower.Real, lower.Enum, lower.List:
		return []lower.Shape{s}
	case lower.Record:
		for _, f := range s.Fields {
			out = append(out, scalars(t, u, f.Type)...)
		}
	case lower.Fixed:
		for i := 0; i < s.N; i++ {
			out = append(out, scalars(t, u, s.Elem)...)
		}
	case lower.Deref:
		return scalars(t, u, s.Type.ElemType)
	}
	return out
}

// TestLeavesFollowShape is the fused half of bind's
// TestReadInhabitsLowered: for every pair all tiers agree on, the leaves
// the stub compiler enumerates for each parameter and result of both
// declarations are the scalars of that use's Shape — kind for kind, and on
// the C side width for width.
func TestLeavesFollowShape(t *testing.T) {
	leaves := 0
	for _, p := range tierPairs {
		sess, jFn := p.session(t, cmem.ILP32)
		jU, cU := sess.Universe("java"), sess.Universe("c")
		cp := &compiler{jU: jU, cU: cU, lay: cmem.NewLayouts(cU, cmem.ILP32), nObjs: 1}
		jDecl, cDecl := jU.Lookup(jFn).Type, cU.Lookup(p.cfn).Type
		juses, cuses := []*stype.Type{jDecl.Result}, []*stype.Type{cDecl.Result}
		for _, prm := range jDecl.Params {
			juses = append(juses, prm.Type)
		}
		for _, prm := range cDecl.Params {
			cuses = append(cuses, prm.Type)
		}
		for _, use := range juses {
			var objs []move
			got, err := cp.jLeaves(use, 0, 0, true, &objs)
			if err != nil {
				t.Fatalf("%s: java %s: %v", p.name, use, err)
			}
			want := scalars(t, jU, use)
			if len(got) != len(want) {
				t.Fatalf("%s: java %s: %d leaves, its shape holds %d scalars", p.name, use, len(got), len(want))
			}
			for i, l := range got {
				if k := scalarLeaf(&want[i]); l.kind != k && !(l.kind == leafList && want[i].Kind == lower.List) {
					t.Errorf("%s: java %s: leaf %d is of kind %d, its shape reads %s", p.name, use, i, l.kind, want[i].Kind)
				}
				leaves++
			}
		}
		for _, use := range cuses {
			want := scalars(t, cU, use)
			if len(want) == 1 && want[0].Kind == lower.List {
				continue // CompileCall builds a list parameter's leaf itself
			}
			var bases []move
			got, err := cp.cLeaves(use, cLeaf{}, &bases)
			if err != nil {
				t.Fatalf("%s: C %s: %v", p.name, use, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: C %s: %d leaves, its shape holds %d scalars", p.name, use, len(got), len(want))
			}
			for i, l := range got {
				if l.kind != scalarLeaf(&want[i]) || l.size != want[i].Bits/8 {
					t.Errorf("%s: C %s: leaf %d is %d bytes of kind %d, its shape reads %d bits of %s", p.name, use, i, l.size, l.kind, want[i].Bits, want[i].Kind)
				}
				leaves++
			}
		}
	}
	if leaves < 60 {
		t.Errorf("compared %d leaves; the pairs hold more than 60", leaves)
	}
}
