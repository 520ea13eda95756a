package fuse

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bind"
	"repro/internal/cmem"
	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/jheap"
	"repro/internal/lower"
	"repro/internal/stype"
	"repro/internal/testutil"
	"repro/internal/value"
)

// The fitter pair of Figures 1, 2 and 5 with the §3.4 annotations.
const (
	fitterC = `
typedef float point[2];
void fitter(point pts[], int count, point *start, point *end);
`
	figure1Java = `
public class Point { private float x; private float y; }
public class Line { private Point start; private Point end; }
public class PointVector extends java.util.Vector;
public interface JavaIdeal { Line fitter(PointVector pts); }
`
	cScript = `
annotate fitter.start out nonnull
annotate fitter.end out nonnull
annotate fitter.pts length-from=count
`
	jScript = `
annotate Line.start nonnull noalias
annotate Line.end nonnull noalias
annotate PointVector collection-of=Point element-nonnull
annotate JavaIdeal.fitter.pts nonnull
annotate JavaIdeal.fitter.return nonnull
`
)

func cFitterImpl(mem *cmem.Arena, args []uint64) (uint64, error) {
	pts, count := cmem.Addr(args[0]), int(int32(args[1]))
	start, end := cmem.Addr(args[2]), cmem.Addr(args[3])
	var minX, minY, maxX, maxY float32
	for i := 0; i < count; i++ {
		x, err := mem.ReadF32(pts + cmem.Addr(8*i))
		if err != nil {
			return 0, err
		}
		y, err := mem.ReadF32(pts + cmem.Addr(8*i+4))
		if err != nil {
			return 0, err
		}
		if i == 0 || x < minX {
			minX = x
		}
		if i == 0 || y < minY {
			minY = y
		}
		if i == 0 || x > maxX {
			maxX = x
		}
		if i == 0 || y > maxY {
			maxY = y
		}
	}
	if err := mem.WriteF32(start, minX); err != nil {
		return 0, err
	}
	if err := mem.WriteF32(start+4, minY); err != nil {
		return 0, err
	}
	if err := mem.WriteF32(end, maxX); err != nil {
		return 0, err
	}
	return 0, mem.WriteF32(end+4, maxY)
}

func buildHeapPoints(t testing.TB, h *jheap.Heap, coords ...float64) jheap.Ref {
	t.Helper()
	v, err := heapPoints(h, coords...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// heapPoints builds a PointVector of the points x0, y0, x1, y1, ... in h.
func heapPoints(h *jheap.Heap, coords ...float64) (jheap.Ref, error) {
	v := h.NewVector("PointVector")
	for i := 0; i+1 < len(coords); i += 2 {
		p := h.New("Point", 2)
		if err := errors.Join(h.SetField(p, 0, jheap.FloatSlot(coords[i])), h.SetField(p, 1, jheap.FloatSlot(coords[i+1])),
			h.VectorAppend(v, p)); err != nil {
			return v, err
		}
	}
	return v, nil
}

// invoke compiles the pair and calls it once, returning the outputs
// rendered structurally.
func invoke(t *testing.T, p pair, model cmem.Model, args func(testing.TB, *jheap.Heap) []jheap.Slot) string {
	t.Helper()
	_, _, call := p.compile(t, model)
	h := jheap.NewHeap()
	outs, err := call.Invoke(h, args(t, h))
	if err != nil {
		t.Fatal(err)
	}
	rendered := make([]string, len(outs))
	for i, o := range outs {
		rendered[i] = renderSlot(h, o)
	}
	return strings.Join(rendered, "; ")
}

func coords(cs ...float64) func(testing.TB, *jheap.Heap) []jheap.Slot {
	return func(t testing.TB, h *jheap.Heap) []jheap.Slot {
		return []jheap.Slot{jheap.RefSlot(buildHeapPoints(t, h, cs...))}
	}
}

// TestFusedFitter runs the specialized stub: Java heap in, Java heap out,
// no value trees.
func TestFusedFitter(t *testing.T) {
	got := invoke(t, fitterPair, cmem.ILP32, coords(1, 5, 3, 2, 2, 7))
	if want := "Line{Point{float 1, float 2}, Point{float 3, float 7}}"; got != want {
		t.Errorf("line = %s, want %s", got, want)
	}
}

func TestFusedFitterEmpty(t *testing.T) {
	invoke(t, fitterPair, cmem.ILP32, coords())
}

// TestFusedNoArguments: with no Java argument, owner register 0 has no
// slot at all, and the request is the out buffer's block alone.
func TestFusedNoArguments(t *testing.T) {
	p := pair{name: "origin",
		c: `struct Pt { float x; float y; }; void origin(struct Pt *out);`, cScript: "annotate origin.out out nonnull",
		java: `class Point { float x; float y; } interface I { Point origin(); }`, jScript: "annotate I.origin.return nonnull",
		iface: "I", method: "origin", cfn: "origin",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) {
			return 0, errors.Join(mem.WriteF32(cmem.Addr(args[0]), 1.5), mem.WriteF32(cmem.Addr(args[0])+4, -2))
		}}
	if got, want := invoke(t, p, cmem.ILP32, slots()), "Point{float 1.5, float -2}"; got != want {
		t.Errorf("origin = %s, want %s", got, want)
	}
}

// TestFusedLP64 runs the fused fitter under the 64-bit data model (the
// arrays use 8-byte pointers server-side; element strides are unchanged).
func TestFusedLP64(t *testing.T) {
	got := invoke(t, fitterPair, cmem.LP64, coords(0, 1, 4, -2))
	if want := "Line{Point{float 0, float -2}, Point{float 4, float 1}}"; got != want {
		t.Errorf("line = %s, want %s", got, want)
	}
}

func TestFusedNullElementRejected(t *testing.T) {
	_, _, call := fitterPair.compile(t, cmem.ILP32)
	h := jheap.NewHeap()
	vec := h.NewVector("PointVector")
	if err := h.VectorAppend(vec, jheap.NullRef); err != nil {
		t.Fatal(err)
	}
	if _, err := call.Invoke(h, []jheap.Slot{jheap.RefSlot(vec)}); err == nil {
		t.Error("null element accepted by fused stub")
	}
}

func TestFusedScalarParams(t *testing.T) {
	got := invoke(t, scalePair, cmem.ILP32, slots(jheap.FloatSlot(2.5), jheap.IntSlot(4)))
	if got != "float 10" {
		t.Errorf("scale = %s, want float 10", got)
	}
}

// TestFusedAggregateInParam fuses a non-null pointer-to-struct input.
func TestFusedAggregateInParam(t *testing.T) {
	if got := invoke(t, norm1Pair, cmem.ILP32, point(-3, 4)); got != "float 7" {
		t.Errorf("norm1 = %s, want float 7", got)
	}
}

// TestFusedIntegerList fuses a vector of integer-carrying elements.
func TestFusedIntegerList(t *testing.T) {
	if got := invoke(t, totalPair, cmem.ILP32, cells); got != "float -3.875" { // 2*1.5 - 3*2.0 - 7*0.125
		t.Errorf("total = %s, want float -3.875", got)
	}
}

// TestFusedCharReturn decodes a char-valued return word.
func TestFusedCharReturn(t *testing.T) {
	if got := invoke(t, gradePair, cmem.ILP32, ints(95)); got != "char 65" {
		t.Errorf("grade = %s, want char 65 ('A')", got)
	}
}

// tiers is one pair compiled for every execution tier: the fused stub and
// the general value-tree stub under both of its engines.
type tiers struct {
	fused   *Call
	general map[string]*core.CallStub
	jb      *bind.J
	jU      *stype.Universe
	jFn     *stype.Type
}

func (p pair) tiers(t testing.TB, model cmem.Model) *tiers {
	t.Helper()
	sess, jFn, call := p.compile(t, model)
	ts := &tiers{fused: call, general: make(map[string]*core.CallStub), jU: sess.Universe("java")}
	ts.jb, ts.jFn = bind.NewJ(ts.jU), ts.jU.Lookup(jFn).Type
	target := core.NewCTarget(bind.NewC(sess.Universe("c"), model), sess.Universe("c").Lookup(p.cfn), p.impl)
	for name, engine := range map[string]core.Engine{"compiled": core.EngineCompiled, "interpreted": core.EngineInterpreted} {
		stub, err := sess.NewCallStub("java", jFn, "c", p.cfn, engine, target)
		if err != nil {
			t.Fatalf("%s: general stub (%s): %v", p.name, name, err)
		}
		ts.general[name] = stub
	}
	return ts
}

// agree invokes every tier on the same heap arguments and reports how
// they differ: all must fail, or all must return equal outputs.
func (ts *tiers) agree(h *jheap.Heap, args []jheap.Slot) error {
	ins := make([]value.Value, len(ts.jFn.Params))
	var readErr error
	for i, p := range ts.jFn.Params {
		if i >= len(args) {
			readErr = fmt.Errorf("argument %d missing", i)
			break
		}
		if ins[i], readErr = ts.jb.Read(p.Type, h, args[i]); readErr != nil {
			break
		}
	}
	inputs := value.NewRecord(ins...)

	outs, fusedErr := ts.fused.Invoke(h, args)
	fused := value.Record{Fields: make([]value.Value, len(outs))}
	for i, o := range outs {
		var err error
		if fused.Fields[i], err = ts.jb.Read(ts.jFn.Result, h, o); err != nil {
			return fmt.Errorf("fused output unreadable: %v", err)
		}
	}
	for name, stub := range ts.general {
		out, err := value.Value(nil), readErr
		if err == nil {
			out, err = stub.Invoke(inputs)
		}
		switch {
		case (err != nil) != (fusedErr != nil):
			return fmt.Errorf("fused error %v, %s error %v", fusedErr, name, err)
		case err == nil && !value.Equal(fused, out):
			return fmt.Errorf("fused returned %s, %s returned %s", fused, name, out)
		}
	}
	return nil
}

// TestFusedMatchesGeneralStub runs every golden case — the three
// signedness rows among them, and the rows that must fail — through the
// fused stub and the general stub and requires identical outcomes.
func TestFusedMatchesGeneralStub(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			h := jheap.NewHeap()
			if err := gc.pair.tiers(t, gc.model).agree(h, gc.args(t, h)); err != nil {
				t.Error(err)
			}
		})
	}
}

// randSlot builds a random heap value of a Java type: what a caller could
// legally pass for a parameter of that type under its annotations. A
// non-nil ill counts the values built down to the one that is to be
// illegal instead (see illSlot).
func randSlot(r *rand.Rand, u *stype.Universe, t *stype.Type, h *jheap.Heap, ill *int) jheap.Slot {
	s, err := lower.ShapeOf(u, t)
	if err != nil {
		panic(err)
	}
	if s.Kind == lower.Optional {
		s = *s.Inner
	}
	if ill != nil {
		if *ill--; *ill == 0 {
			return illSlot(r, &s, h)
		}
	}
	switch scalarLeaf(&s) {
	case leafF32:
		return jheap.FloatSlot(float64(float32(r.NormFloat64() * 1e3)))
	case leafF64:
		return jheap.FloatSlot(r.NormFloat64() * 1e6)
	case leafChar:
		return jheap.CharSlot(rune(r.Intn(256)))
	case leafInt:
		lo, hi := -int64(1)<<(s.Bits-1), int64(1)<<(s.Bits-1)-1
		if s.Kind == lower.Bool {
			lo, hi = 0, 1
		}
		if s.Lo != nil {
			lo, hi = s.Lo.Int64(), s.Hi.Int64()
		}
		if span := uint64(hi-lo) + 1; span != 0 {
			return jheap.IntSlot(lo + int64(r.Uint64()%span))
		}
		return jheap.IntSlot(int64(r.Uint64()))
	}
	if s.Kind == lower.List {
		vec := h.NewVector(s.Decl.Name)
		for n := r.Intn(9); n > 0; n-- {
			if err := h.VectorAppend(vec, randSlot(r, u, s.Elem, h, ill).R); err != nil {
				panic(err)
			}
		}
		return jheap.RefSlot(vec)
	}
	// Every field, the ignored ones too: they may hold anything.
	obj := h.New(s.Decl.Name, len(s.Type.Fields))
	for i, f := range s.Type.Fields {
		if err := h.SetField(obj, i, randSlot(r, u, f.Type, h, ill)); err != nil {
			panic(err)
		}
	}
	return jheap.RefSlot(obj)
}

// illSlot builds a value no caller could legally pass for the type: a
// slot of another kind or one never set, and for a reference also null,
// a dangling reference, an object one field short, or an object where a
// Vector belongs. (A field the declarations ignore may hold anything, and
// a char declared an integer takes either kind: then the value is legal
// after all, which "all fail or all agree" covers.)
func illSlot(r *rand.Rand, s *lower.Shape, h *jheap.Heap) jheap.Slot {
	legal := jheap.SlotRef
	wrong := []jheap.Slot{jheap.RefSlot(jheap.NullRef), jheap.RefSlot(9999)}
	switch {
	case s.Bits > 0:
		legal, wrong = map[leafKind]jheap.SlotKind{leafF32: jheap.SlotFloat, leafF64: jheap.SlotFloat, leafInt: jheap.SlotInt, leafChar: jheap.SlotChar}[scalarLeaf(s)], nil
	case s.Kind == lower.List:
		wrong = append(wrong, jheap.RefSlot(h.New(s.Decl.Name, 2)))
	case len(s.Type.Fields) > 0:
		wrong = append(wrong, jheap.RefSlot(h.New(s.Decl.Name, len(s.Type.Fields)-1)))
	}
	for _, s := range []jheap.Slot{{}, jheap.IntSlot(7), jheap.FloatSlot(7.5), jheap.CharSlot('7'), jheap.RefSlot(h.New("Stray", 1))} {
		if s.Kind != legal {
			wrong = append(wrong, s)
		}
	}
	return wrong[r.Intn(len(wrong))]
}

// TestPropertyFusedMatchesGeneral drives every pair through the fused
// stub, the closure-compiled stub and the interpreted stub with random
// arguments — legal ones, then ones with one illegal value somewhere in
// the heap — and requires identical outcomes: all fail, or fused ≡
// compiled ≡ interpreted.
func TestPropertyFusedMatchesGeneral(t *testing.T) {
	refusing := 0 // pairs that refused an illegal heap
	for _, p := range tierPairs {
		t.Run(p.name, func(t *testing.T) {
			ts := p.tiers(t, cmem.ILP32)
			r := rand.New(rand.NewSource(int64(len(p.name)) + 17))
			refused := 0
			for i := 0; i < 120; i++ {
				var ill *int
				if i >= 60 {
					ill = new(int)
					*ill = 1 + r.Intn(6)
				}
				h := jheap.NewHeap()
				args := make([]jheap.Slot, len(ts.jFn.Params))
				for a, param := range ts.jFn.Params {
					args[a] = randSlot(r, ts.jU, param.Type, h, ill)
				}
				if err := ts.agree(h, args); err != nil {
					t.Fatalf("round %d: %v", i, err)
				}
				if _, err := ts.fused.Invoke(h, args); err != nil {
					refused++
				}
			}
			if refused > 60 {
				t.Errorf("%d of 120 rounds refused; the 60 legal ones must pass", refused)
			} else if refused > 0 {
				refusing++
			}
		})
	}
	// Every pair but code, whose two parameters take any slot, has values
	// the mutator can spoil.
	if refusing < len(tierPairs)-1 {
		t.Errorf("%d of %d pairs refused an illegal heap", refusing, len(tierPairs))
	}
}

// TestFusedInvokeAllocs pins what one warm fused fitter call on 64 points
// allocates: the output slots it returns, and a share of a jheap slab for
// the three result objects (one slab of objects every 21 calls, one of
// slots every 42) — one. The frame, its arena and its C frame are an
// earlier call's; the hand-written bridge (baseline.TestFitterHandWrittenAllocs)
// builds all three afresh and allocates four. The ceiling is that plus one.
// No register outlives the call, so Invoke keeps no hold on its argument
// slice: a caller that builds it per call, as the benchmark's workload
// does, can keep it on its own stack, and the ceiling for that is one.
func TestFusedInvokeAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates")
	}
	_, _, call := fitterPair.compile(t, cmem.ILP32)
	h := jheap.NewHeap()
	args := points(64)(t, h)
	for _, c := range []struct {
		name    string
		ceiling float64
		invoke  func() error
	}{
		{"args built once", 2, func() error { _, err := call.Invoke(h, args); return err }},
		{"args built per call", 1, func() error { _, err := call.Invoke(h, []jheap.Slot{args[0]}); return err }},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := c.invoke(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: a fused fitter call on 64 points allocates %v times", c.name, allocs)
		if allocs > c.ceiling {
			t.Errorf("%s: a fused fitter call on 64 points allocates %v times, ceiling %v", c.name, allocs, c.ceiling)
		}
	}
}

func TestFusedRejectsNonEquivalentPair(t *testing.T) {
	p := pair{name: "f", c: `float f(float x);`, java: `interface I { double f(double x); }`,
		iface: "I", method: "f", cfn: "f", impl: pokePair.impl}
	s, jFn := p.session(t, cmem.ILP32)
	if _, err := CompileFromSession(s, "java", jFn, "c", "f", cmem.ILP32, p.impl); err == nil {
		t.Error("mismatched pair compiled")
	}

	// The plans come from the session: under rules without associativity
	// a Line is not two points, and the fused tier must say so exactly as
	// the general stub does instead of comparing under its own defaults.
	s, jFn = fitterPair.session(t, cmem.ILP32)
	s.SetRules(compare.Rules{Commutativity: true, UnitElimination: true, Cache: true})
	_, fusedErr := CompileFromSession(s, "java", jFn, "c", "fitter", cmem.ILP32, cFitterImpl)
	_, generalErr := s.NewCallStub("java", jFn, "c", "fitter", core.EngineCompiled, nil)
	if fusedErr == nil || generalErr == nil || fusedErr.Error() != generalErr.Error() ||
		errors.Is(fusedErr, ErrUnsupported) || !strings.Contains(fusedErr.Error(), "not equivalent") {
		t.Errorf("without associativity: fused %v, general %v", fusedErr, generalErr)
	}
	if _, err := CompileFromSession(s, "java", "NoSuch", "c", "fitter", cmem.ILP32, cFitterImpl); err == nil {
		t.Error("unknown declaration compiled")
	}
}
