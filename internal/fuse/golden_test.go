package fuse

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cmem"
	"repro/internal/jheap"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the stub compiler under test")

// goldenCase is one invocation of a fused pair whose every observable is
// pinned: the argument words and arena bytes the C implementation saw,
// its return word, and the Java outputs or the error text.
type goldenCase struct {
	name  string
	pair  pair
	model cmem.Model
	args  func(t testing.TB, h *jheap.Heap) []jheap.Slot
}

// slots, ints, point and cells build argument lists on a fresh heap.
func slots(ss ...jheap.Slot) func(testing.TB, *jheap.Heap) []jheap.Slot {
	return func(testing.TB, *jheap.Heap) []jheap.Slot { return ss }
}

func ints(vs ...int64) func(testing.TB, *jheap.Heap) []jheap.Slot {
	out := make([]jheap.Slot, len(vs))
	for i, v := range vs {
		out[i] = jheap.IntSlot(v)
	}
	return slots(out...)
}

func point(x, y float64) func(testing.TB, *jheap.Heap) []jheap.Slot {
	return objects(obj{"Point", []any{jheap.FloatSlot(x), jheap.FloatSlot(y)}})
}

func cells(_ testing.TB, h *jheap.Heap) []jheap.Slot {
	vec := h.NewVector("Cells")
	for _, c := range []struct {
		tag int64
		w   float64
	}{{2, 1.5}, {-3, 2.0}, {7, -0.125}} {
		cell := h.New("Cell", 2)
		_ = h.SetField(cell, 0, jheap.IntSlot(c.tag))
		_ = h.SetField(cell, 1, jheap.FloatSlot(c.w))
		_ = h.VectorAppend(vec, cell)
	}
	return []jheap.Slot{jheap.RefSlot(vec)}
}

// points builds a PointVector of n seeded points.
func points(n int) func(testing.TB, *jheap.Heap) []jheap.Slot {
	return func(t testing.TB, h *jheap.Heap) []jheap.Slot {
		return []jheap.Slot{jheap.RefSlot(buildHeapPoints(t, h, pointCoords(n)...))}
	}
}

// pointCoords is x0, y0, x1, y1, ... of the n points points builds.
func pointCoords(n int) []float64 {
	coords := make([]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		coords = append(coords, float64((i*37)%101)-50.5, float64((i*53)%89)*0.25-11)
	}
	return coords
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, m := range []struct {
		name  string
		model cmem.Model
	}{{"ilp32", cmem.ILP32}, {"lp64", cmem.LP64}} {
		for _, n := range []int{0, 1, 64} {
			cases = append(cases, goldenCase{fmt.Sprintf("fitter/%s/%dpts", m.name, n), fitterPair, m.model, points(n)})
		}
	}
	return append(cases,
		goldenCase{"total/cells", totalPair, cmem.ILP32, cells},
		goldenCase{"grade/95", gradePair, cmem.ILP32, ints(95)},
		goldenCase{"grade/-5", gradePair, cmem.ILP32, ints(-5)},
		goldenCase{"scale/2.5x-4", scalePair, cmem.ILP32, slots(jheap.FloatSlot(2.5), jheap.IntSlot(-4))},
		goldenCase{"norm1/-3,4", norm1Pair, cmem.ILP32, point(-3, 4)},
		goldenCase{"norm1/null", norm1Pair, cmem.ILP32, slots(jheap.RefSlot(jheap.NullRef))},
		goldenCase{"fitter/null-element", fitterPair, cmem.ILP32, func(t testing.TB, h *jheap.Heap) []jheap.Slot {
			vec := buildHeapPoints(t, h, 1, 2)
			_ = h.VectorAppend(vec, jheap.NullRef)
			return []jheap.Slot{jheap.RefSlot(vec)}
		}},
		goldenCase{"fitter/null-collection", fitterPair, cmem.ILP32, slots(jheap.RefSlot(jheap.NullRef))},
		goldenCase{"fitter/missing-argument", fitterPair, cmem.ILP32, ints()},
		// The signedness rows.
		goldenCase{"level/200", levelPair, cmem.ILP32, ints(200)},
		goldenCase{"gauge/40000", gaugePair, cmem.ILP32, ints(40000)},
		goldenCase{"sym/0xE9", symPair, cmem.ILP32, ints(0xE9)},
		// The refusal rows, pinned at the commit before owners and bases
		// were hoisted out of the per-leaf walk: which of them fail is the
		// contract, the error text is not.
		goldenCase{"fitter/null-first", fitterPair, cmem.ILP32, vecOf(nullElem, pt(1, 2))},
		goldenCase{"fitter/null-mid", fitterPair, cmem.ILP32, vecOf(pt(1, 2), nullElem, pt(3, 4))},
		goldenCase{"fitter/dangling-element", fitterPair, cmem.ILP32, vecOf(pt(1, 2), danglingElem)},
		goldenCase{"fitter/dangling-collection", fitterPair, cmem.ILP32, slots(jheap.RefSlot(9999))},
		goldenCase{"fitter/short-element", fitterPair, cmem.ILP32, vecOf(pt(1, 2), shortElem)},
		goldenCase{"fitter/empty-element", fitterPair, cmem.ILP32, vecOf(func(h *jheap.Heap) jheap.Ref { return h.New("Point", 0) })},
		goldenCase{"fitter/not-a-vector", fitterPair, cmem.ILP32, point(1, 2)},
		goldenCase{"fitter/int-for-collection", fitterPair, cmem.ILP32, ints(5)},
		goldenCase{"scale/missing-second", scalePair, cmem.ILP32, slots(jheap.FloatSlot(2.5))},
		goldenCase{"norm1/dangling", norm1Pair, cmem.ILP32, slots(jheap.RefSlot(77))},
		goldenCase{"norm1/short", norm1Pair, cmem.ILP32, func(_ testing.TB, h *jheap.Heap) []jheap.Slot {
			return []jheap.Slot{jheap.RefSlot(shortElem(h))}
		}},
		goldenCase{"norm1/int-for-object", norm1Pair, cmem.ILP32, ints(7)},
		goldenCase{"weigh/box", weighPair, cmem.ILP32, objects(obj{"Box", []any{obj{"IntBox", []any{jheap.IntSlot(0x1234)}}, jheap.IntSlot(-2)}})},
		goldenCase{"weigh/null-inner", weighPair, cmem.ILP32, objects(obj{"Box", []any{jheap.RefSlot(jheap.NullRef), jheap.IntSlot(-2)}})},
		goldenCase{"mix/rec", mixPair, cmem.ILP32, objects(obj{"Rec", []any{jheap.CharSlot('z'), jheap.IntSlot(-6), jheap.FloatSlot(0.5)}})},
		goldenCase{"span/v3", spanPair, cmem.LP64, objects(obj{"V3", []any{jheap.FloatSlot(1), jheap.FloatSlot(2), jheap.FloatSlot(3)}})},
		goldenCase{"unbox/7", unboxPair, cmem.ILP32, ints(7)},
		goldenCase{"unbox/null-reply-pointer", unboxTo(func(*cmem.Arena) cmem.Addr { return cmem.Null }), cmem.ILP32, ints(7)},
		goldenCase{"unbox/wild-reply-pointer", unboxTo(func(*cmem.Arena) cmem.Addr { return 0x00ffff00 }), cmem.ILP32, ints(7)},
		// The slot-kind rows: before the kind check the fused stub read a
		// wrong-kinded or unset slot as 0 where both general stubs refuse
		// it; a char declared an integer, and the reverse, take either.
		goldenCase{"norm1/int-in-float-field", norm1Pair, cmem.ILP32, objects(obj{"Point", []any{jheap.IntSlot(3), jheap.FloatSlot(4)}})},
		goldenCase{"norm1/unset-field", norm1Pair, cmem.ILP32, objects(obj{"Point", []any{jheap.FloatSlot(3), jheap.Slot{}}})},
		goldenCase{"fitter/char-in-float-field", fitterPair, cmem.ILP32, vecOf(pt(1, 2), func(h *jheap.Heap) jheap.Ref {
			return obj{"Point", []any{jheap.FloatSlot(3), jheap.CharSlot('x')}}.build(h).R
		})},
		goldenCase{"grade/float-for-int", gradePair, cmem.ILP32, slots(jheap.FloatSlot(95))},
		goldenCase{"grade/char-for-int", gradePair, cmem.ILP32, slots(jheap.CharSlot('a'))},
		goldenCase{"mix/int-for-char", mixPair, cmem.ILP32, objects(obj{"Rec", []any{jheap.IntSlot('z'), jheap.IntSlot(-6), jheap.FloatSlot(0.5)}})},
		goldenCase{"code/char-for-int-char", codePair, cmem.ILP32, slots(jheap.CharSlot('q'), jheap.IntSlot('r'))},
		goldenCase{"code/int-for-char-int", codePair, cmem.ILP32, slots(jheap.IntSlot('q'), jheap.CharSlot('r'))},
		goldenCase{"unbox/straddling-reply-pointer", unboxTo(func(mem *cmem.Arena) cmem.Addr { return mem.Alloc(2, 2) }), cmem.ILP32, ints(7)},
	)
}

// pt, nullElem, danglingElem and shortElem build one element of a
// PointVector; vecOf appends them in order.
func pt(x, y float64) func(*jheap.Heap) jheap.Ref {
	return func(h *jheap.Heap) jheap.Ref { return point(x, y)(nil, h)[0].R }
}

func nullElem(*jheap.Heap) jheap.Ref     { return jheap.NullRef }
func danglingElem(*jheap.Heap) jheap.Ref { return 9999 }
func shortElem(h *jheap.Heap) jheap.Ref {
	return obj{"Point", []any{jheap.FloatSlot(5)}}.build(h).R
}

func vecOf(elems ...func(*jheap.Heap) jheap.Ref) func(testing.TB, *jheap.Heap) []jheap.Slot {
	return func(_ testing.TB, h *jheap.Heap) []jheap.Slot {
		vec := h.NewVector("PointVector")
		for _, e := range elems {
			_ = h.VectorAppend(vec, e(h))
		}
		return []jheap.Slot{jheap.RefSlot(vec)}
	}
}

// obj is an object to build on the heap: its fields are slots or objs.
type obj struct {
	class  string
	fields []any
}

func (o obj) build(h *jheap.Heap) jheap.Slot {
	r := h.New(o.class, len(o.fields))
	for i, f := range o.fields {
		if sub, ok := f.(obj); ok {
			f = sub.build(h)
		}
		_ = h.SetField(r, i, f.(jheap.Slot))
	}
	return jheap.RefSlot(r)
}

// objects builds one argument object per parameter.
func objects(os ...obj) func(testing.TB, *jheap.Heap) []jheap.Slot {
	return func(_ testing.TB, h *jheap.Heap) []jheap.Slot {
		out := make([]jheap.Slot, len(os))
		for i, o := range os {
			out[i] = o.build(h)
		}
		return out
	}
}

// unboxTo is unboxPair with a C target that stores what p returns in the
// out struct's pointer member: NULL, or an address the arena does not
// cover.
func unboxTo(p func(*cmem.Arena) cmem.Addr) pair {
	u := unboxPair
	u.impl = func(mem *cmem.Arena, args []uint64) (uint64, error) {
		return 0, mem.WritePtr(cmem.Addr(args[1]), cmem.ILP32, p(mem))
	}
	return u
}

// renderSlot prints a Java slot structurally: object identity and heap
// allocation order are not part of the contract, classes and values are.
func renderSlot(h *jheap.Heap, s jheap.Slot) string {
	switch s.Kind {
	case jheap.SlotInt:
		return fmt.Sprintf("int %d", s.I)
	case jheap.SlotFloat:
		return fmt.Sprintf("float %v", s.F)
	case jheap.SlotChar:
		return fmt.Sprintf("char %d", s.C)
	case jheap.SlotRef:
		if s.R == jheap.NullRef {
			return "null"
		}
		class, _ := h.Class(s.R)
		var fields []string
		for i := 0; ; i++ {
			f, err := h.Field(s.R, i)
			if err != nil {
				break
			}
			fields = append(fields, renderSlot(h, f))
		}
		return class + "{" + strings.Join(fields, ", ") + "}"
	default:
		return fmt.Sprintf("slot(%d)", s.Kind)
	}
}

func (gc goldenCase) transcript(t *testing.T) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s\n", gc.name)
	p := gc.pair
	impl := p.impl
	p.impl = func(mem *cmem.Arena, args []uint64) (uint64, error) {
		fmt.Fprintf(&sb, "args %x\narena", args)
		for at := 8; at < mem.Size(); at++ {
			b, _ := mem.ReadU(cmem.Addr(at), 1)
			fmt.Fprintf(&sb, " %02x", b)
		}
		ret, err := impl(mem, args)
		fmt.Fprintf(&sb, "\nret %x\n", ret)
		return ret, err
	}
	_, _, call := p.compile(t, gc.model)
	h := jheap.NewHeap()
	outs, err := call.Invoke(h, gc.args(t, h))
	if err != nil {
		fmt.Fprintf(&sb, "error %v\n", err)
	}
	for _, o := range outs {
		fmt.Fprintf(&sb, "out %s\n", renderSlot(h, o))
	}
	return sb.String()
}

// TestGoldenTranscript pins the fused stub's observable behaviour on the
// package's pairs. testdata/golden.txt was written by this test at the
// commit before the move-list rewrite; the rewrite reproduces it except
// for the three signedness rows, which now read what the general stub
// reads (200, 40000, rune 233). The refusal rows and the nested-layout
// rows after them were written at the commit before owners and bases
// became registers; that change reproduces every row's outcome and bytes
// and rewords eleven error texts (CHANGES.md at 06bf690 lists them). The slot-kind
// rows were written after it: six of them used to reach C as 0.
func TestGoldenTranscript(t *testing.T) {
	var sb strings.Builder
	for _, gc := range goldenCases() {
		sb.WriteString(gc.transcript(t))
	}
	got := sb.String()
	const path = "testdata/golden.txt"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("transcript differs from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
