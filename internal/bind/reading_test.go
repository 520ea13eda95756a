package bind_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/annotate"
	"repro/internal/bind"
	"repro/internal/cmem"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/fuse"
	"repro/internal/javaparse"
	"repro/internal/jheap"
	"repro/internal/lower"
	"repro/internal/mtype"
	"repro/internal/stype"
	"repro/internal/value"
	"repro/internal/wire"
)

var updateReading = flag.Bool("update", false, "rewrite testdata/reading.txt from the tree under test")

// A reading row is one annotated declaration seen by every module that
// reads annotations: lower's Mtype, what bind reads from one fixed memory
// or heap image and decodes from one fixed return word, whether that value
// fits the Mtype of its own declaration, whether it survives a write and a
// second read, and what a fused stub over the declaration carries or why
// the stub compiler refuses it.
type readingRow struct {
	name string
	run  func(t *testing.T, out *strings.Builder)
}

// image is the bytes every C row reads: high bits set in the first byte
// and in the last, so signedness and width show in what is read.
var image = []byte{0xC1, 0x82, 0x03, 0x04, 0x05, 0x06, 0x07, 0x88}

// small is the image of the rows whose annotation narrows the range.
var small = []byte{7, 0, 0, 0, 0, 0, 0, 0}

func word(b []byte, size int) uint64 {
	var w uint64
	for i := 0; i < size && i < len(b); i++ {
		w |= uint64(b[i]) << (8 * i)
	}
	return w
}

func parseC(src, script string) (*stype.Universe, error) {
	u, err := cparse.Parse("t.h", src, cparse.Config{})
	if err == nil && script != "" {
		_, err = annotate.ApplyScript(u, script)
	}
	return u, err
}

func parseJava(src, script string) (*stype.Universe, error) {
	u, err := javaparse.Parse("T.java", src)
	if err == nil && script != "" {
		_, err = annotate.ApplyScript(u, script)
	}
	return u, err
}

// fits says whether v inhabits mt, by the wire codec every tier shares.
func fits(mt *mtype.Type, v value.Value) string {
	if mt == nil {
		return "no mtype"
	}
	if _, err := wire.Marshal(mt, v); err != nil {
		return err.Error()
	}
	return "fits"
}

// field is the Mtype of the named declaration's first record field.
func field(mt *mtype.Type) *mtype.Type {
	if mt == nil || mt.Kind() != mtype.KindRecord || len(mt.Fields()) == 0 {
		return nil
	}
	return mt.Fields()[0].Type
}

// result is the Mtype of a lowered function's return value.
func result(mt *mtype.Type) *mtype.Type {
	if mt == nil || mt.Kind() != mtype.KindPort {
		return nil
	}
	req := mt.Elem().Fields()
	return field(req[len(req)-1].Type.Elem())
}

func lowered(u *stype.Universe, decl string, out *strings.Builder) *mtype.Type {
	mt, err := lower.New(u).Decl(decl)
	if err != nil {
		fmt.Fprintf(out, "  mtype %s: error %v\n", decl, err)
		return nil
	}
	fmt.Fprintf(out, "  mtype %s: %s\n", decl, mt)
	return mt
}

// cStruct reads struct `decl` from an arena holding img, reports the value
// and whether it fits, then writes it to fresh storage and reads it again.
func cStruct(u *stype.Universe, decl string, img []byte, out *strings.Builder) {
	mt := lowered(u, decl, out)
	c := bind.NewC(u, cmem.ILP32)
	st := u.Lookup(decl).Type
	lay, err := c.Layouts().Of(st)
	if err != nil {
		fmt.Fprintf(out, "  layout: error %v\n", err)
		return
	}
	mem := cmem.NewArena()
	at := mem.Alloc(max(lay.Size, 8), 8)
	for i, b := range img {
		_ = mem.WriteU(at+cmem.Addr(i), 1, uint64(b))
	}
	v, err := c.Read(st, mem, at, -1)
	if err != nil {
		fmt.Fprintf(out, "  C.Read: error %v\n", err)
		return
	}
	fmt.Fprintf(out, "  C.Read: %s (%s)\n", v, fits(mt, v))
	cRoundTrip(c, st, lay, v, out)
}

func cRoundTrip(c *bind.C, st *stype.Type, lay *cmem.Layout, v value.Value, out *strings.Builder) {
	mem := cmem.NewArena()
	at := mem.Alloc(max(lay.Size, 8), 8)
	if err := c.Write(st, mem, at, v); err != nil {
		fmt.Fprintf(out, "  C.Write: error %v\n", err)
		return
	}
	back, err := c.Read(st, mem, at, -1)
	switch {
	case err != nil:
		fmt.Fprintf(out, "  C.Write∘C.Read: error %v\n", err)
	case !value.Equal(back, v):
		fmt.Fprintf(out, "  C.Write∘C.Read: %s, not %s\n", back, v)
	default:
		fmt.Fprintf(out, "  C.Write∘C.Read: equal\n")
	}
}

// cReturn decodes return word w of function fn through C.Call.
func cReturn(u *stype.Universe, fn string, w uint64, out *strings.Builder) {
	mt := result(lowered(u, fn, out))
	impl := func(*cmem.Arena, []uint64) (uint64, error) { return w, nil }
	outs, err := bind.NewC(u, cmem.ILP32).Call(u.Lookup(fn), impl, cmem.NewArena(), value.NewRecord())
	if err != nil {
		fmt.Fprintf(out, "  C.Call return %#x: error %v\n", w, err)
		return
	}
	v := outs.(value.Record).Fields[0]
	fmt.Fprintf(out, "  C.Call return %#x: %s (%s)\n", w, v, fits(mt, v))
}

func renderSlot(h *jheap.Heap, s jheap.Slot) string {
	switch s.Kind {
	case jheap.SlotInt:
		return fmt.Sprintf("int %d", s.I)
	case jheap.SlotFloat:
		return fmt.Sprintf("float %g", s.F)
	case jheap.SlotChar:
		return fmt.Sprintf("char %d", s.C)
	case jheap.SlotRef:
		if s.R == jheap.NullRef {
			return "null"
		}
		if h.IsVector(s.R) {
			elems, _ := h.VectorElems(s.R)
			parts := make([]string, len(elems))
			for i, e := range elems {
				parts[i] = renderSlot(h, jheap.RefSlot(e))
			}
			return "vector[" + strings.Join(parts, ", ") + "]"
		}
		class, _ := h.Class(s.R)
		fields, err := h.Fields(s.R)
		if err != nil {
			return fmt.Sprintf("ref %d (%v)", s.R, err)
		}
		parts := make([]string, len(fields))
		for i, f := range fields {
			parts[i] = renderSlot(h, f)
		}
		return class + "{" + strings.Join(parts, ", ") + "}"
	}
	return "unset"
}

// scalarSlots are the argument slots a scalar row is invoked and read on:
// both integral widths' worth of bits in both integral slot kinds, and a
// floating slot.
var scalarSlots = []jheap.Slot{jheap.IntSlot(7), jheap.IntSlot(200), jheap.CharSlot(7), jheap.CharSlot(200), jheap.FloatSlot(2.5)}

// jRead reads use t from each slot, and writes what it read back.
func jRead(u *stype.Universe, t *stype.Type, mt *mtype.Type, h *jheap.Heap, slots []jheap.Slot, out *strings.Builder) {
	j := bind.NewJ(u)
	for _, s := range slots {
		v, err := j.Read(t, h, s)
		if err != nil {
			fmt.Fprintf(out, "  J.Read %s: error %v\n", renderSlot(h, s), err)
			continue
		}
		fmt.Fprintf(out, "  J.Read %s: %s (%s)", renderSlot(h, s), v, fits(mt, v))
		slot, err := j.Write(t, h, v)
		if err != nil {
			fmt.Fprintf(out, "; J.Write: error %v\n", err)
			continue
		}
		back, err := j.Read(t, h, slot)
		switch {
		case err != nil:
			fmt.Fprintf(out, "; J.Write %s, J.Read: error %v\n", renderSlot(h, slot), err)
		case !value.Equal(back, v):
			fmt.Fprintf(out, "; J.Write %s, J.Read: %s\n", renderSlot(h, slot), back)
		default:
			fmt.Fprintf(out, "; J.Write %s, J.Read: equal\n", renderSlot(h, slot))
		}
	}
}

// fused compiles Java I.g against C g and invokes it on each argument
// list, reporting the words the C side saw and the slots Java got back.
func fused(c, cScript, java, jScript string, impl func(*cmem.Arena, []uint64) (uint64, error),
	args []func(*jheap.Heap) []jheap.Slot, out *strings.Builder) {
	s := core.NewSession()
	err := s.LoadC("c", c, cmem.ILP32)
	if err == nil {
		err = s.LoadJava("java", java)
	}
	if err == nil && cScript != "" {
		_, err = s.Annotate("c", cScript)
	}
	if err == nil && jScript != "" {
		_, err = s.Annotate("java", jScript)
	}
	var jFn string
	if err == nil {
		jFn, err = s.MethodDecl("java", "I", "g")
	}
	if err != nil {
		fmt.Fprintf(out, "  fuse: setup error %v\n", err)
		return
	}
	var saw string
	call, err := fuse.CompileFromSession(s, "java", jFn, "c", "g", cmem.ILP32, func(mem *cmem.Arena, a []uint64) (uint64, error) {
		saw = fmt.Sprintf("%x", a)
		for at := 8; at < mem.Size(); at++ {
			b, _ := mem.ReadU(cmem.Addr(at), 1)
			saw += fmt.Sprintf(" %02x", b)
		}
		return impl(mem, a)
	})
	if err != nil {
		fmt.Fprintf(out, "  fuse: %v\n", err)
		return
	}
	for _, build := range args {
		h := jheap.NewHeap()
		in := build(h)
		parts := make([]string, len(in))
		for i, a := range in {
			parts[i] = renderSlot(h, a)
		}
		saw = ""
		outs, err := call.Invoke(h, in)
		if err != nil {
			fmt.Fprintf(out, "  fuse(%s): error %v\n", strings.Join(parts, ", "), err)
			continue
		}
		res := make([]string, len(outs))
		for i, o := range outs {
			res[i] = renderSlot(h, o)
		}
		fmt.Fprintf(out, "  fuse(%s): C saw %s; Java got [%s]\n", strings.Join(parts, ", "), saw, strings.Join(res, ", "))
	}
}

func echo(_ *cmem.Arena, a []uint64) (uint64, error) { return a[0], nil }

func onSlots(slots []jheap.Slot) []func(*jheap.Heap) []jheap.Slot {
	var out []func(*jheap.Heap) []jheap.Slot
	for _, s := range slots {
		out = append(out, func(*jheap.Heap) []jheap.Slot { return []jheap.Slot{s} })
	}
	return out
}

// javaPartner and cPartner spell a scalar of the other language with the
// given Mtype: the partner side of a scalar row's fused pair.
func javaPartner(mt *mtype.Type) (ty, attrs string) {
	switch {
	case mt == nil:
	case mt.Kind() == mtype.KindInteger:
		lo, hi := mt.IntegerRange()
		return "long", fmt.Sprintf("range=%s..%s", lo, hi)
	case mt.Kind() == mtype.KindCharacter:
		return "char", "repertoire=" + mt.Repertoire().String()
	case mt.Kind() == mtype.KindReal:
		if p, _ := mt.RealParams(); p == 24 {
			return "float", ""
		}
		return "double", ""
	}
	return "", ""
}

func cPartner(mt *mtype.Type) (ty, attrs string) {
	switch {
	case mt == nil:
	case mt.Kind() == mtype.KindInteger:
		lo, hi := mt.IntegerRange()
		return "long long", fmt.Sprintf("range=%s..%s", lo, hi)
	case mt.Kind() == mtype.KindCharacter:
		return "unsigned short", "char repertoire=" + mt.Repertoire().String()
	case mt.Kind() == mtype.KindReal:
		if p, _ := mt.RealParams(); p == 24 {
			return "float", ""
		}
		return "double", ""
	}
	return "", ""
}

func annotateLines(attrs string, paths ...string) string {
	if attrs == "" {
		return ""
	}
	var sb strings.Builder
	for _, p := range paths {
		fmt.Fprintf(&sb, "annotate %s %s\n", p, attrs)
	}
	return sb.String()
}

// The scalar matrix: every C and Java primitive under each annotation, and
// for C through a typedef with the annotation on the typedef, on the use,
// and on both, where the use's wins.
var (
	cTypes = []string{"_Bool", "char", "signed char", "unsigned char", "short", "unsigned short", "int", "unsigned int",
		"long long", "unsigned long long", "float", "double", "wchar_t"}
	jTypes      = []string{"boolean", "byte", "short", "char", "int", "long", "float", "double"}
	scalarAttrs = []string{"", "char", "int", "range=0..9", "repertoire=ascii"}
	typedefBoth = [][2]string{{"char", "int"}, {"int", "char"}, {"range=0..9", "char"}, {"char", "range=0..9"}, {"char", "repertoire=ascii"}}
)

// cScalarCase is one cell of the C matrix: struct S holds the scalar, f
// returns it, g passes it through. tdAttrs annotate the typedef, if there
// is one, attrs every use.
type cScalarCase struct {
	ty             string
	typedef        bool
	tdAttrs, attrs string
}

func cScalarCases() []cScalarCase {
	var cases []cScalarCase
	for _, ty := range cTypes {
		for _, a := range scalarAttrs {
			cases = append(cases, cScalarCase{ty: ty, attrs: a})
		}
	}
	for _, ty := range cTypes {
		for _, a := range scalarAttrs[1:] {
			cases = append(cases, cScalarCase{ty, true, a, ""}, cScalarCase{ty, true, "", a})
		}
		for _, both := range typedefBoth {
			cases = append(cases, cScalarCase{ty, true, both[0], both[1]})
		}
	}
	return cases
}

func (c cScalarCase) name() string {
	if c.typedef {
		return fmt.Sprintf("c typedef %s [%s] used [%s]", c.ty, c.tdAttrs, c.attrs)
	}
	return fmt.Sprintf("c %s [%s]", c.ty, c.attrs)
}

func (c cScalarCase) source() (src, script string) {
	use := c.ty
	if c.typedef {
		use, src, script = "td", "typedef "+c.ty+" td;\n", annotateLines(c.tdAttrs, "td")
	}
	src += fmt.Sprintf("struct S { %s x; };\n%s f(void);\n%s g(%s x);\n", use, use, use, use)
	script += annotateLines(c.attrs, "S.x", "f.return", "g.x", "g.return")
	return src, script
}

// image is the bytes the case's struct is read from.
func (c cScalarCase) image() []byte {
	if strings.Contains(c.tdAttrs+c.attrs, "range=") || strings.Contains(c.ty, "Bool") {
		return small
	}
	return image
}

func (c cScalarCase) row() readingRow {
	src, script := c.source()
	return readingRow{name: c.name(), run: func(t *testing.T, out *strings.Builder) {
		u, err := parseC(src, script)
		if err != nil {
			fmt.Fprintf(out, "  setup: error %v\n", err)
			return
		}
		img := c.image()
		cStruct(u, "S", img, out)
		size := 8
		if lay, err := cmem.NewLayouts(u, cmem.ILP32).Of(u.Lookup("S").Type); err == nil {
			size = lay.Size
		}
		cReturn(u, "f", word(img, size), out)
		mt, _ := lower.New(u).Decl("S")
		jTy, jAttrs := javaPartner(field(mt))
		if jTy == "" {
			fmt.Fprintf(out, "  fuse: no partner\n")
			return
		}
		fused(src, script, fmt.Sprintf("interface I { %s g(%s x); }", jTy, jTy),
			annotateLines(jAttrs, "I.g.x", "I.g.return"), echo, onSlots(scalarSlots), out)
	}}
}

func jScalarSource(ty, attrs string) (src, script string) {
	return fmt.Sprintf("class S { %s x; }\ninterface I { %s g(%s x); }\n", ty, ty, ty), annotateLines(attrs, "S.x", "I.g.x", "I.g.return")
}

// jScalar is a row over one Java primitive.
func jScalar(ty, attrs string) readingRow {
	src, script := jScalarSource(ty, attrs)
	return readingRow{name: fmt.Sprintf("java %s [%s]", ty, attrs), run: func(t *testing.T, out *strings.Builder) {
		u, err := parseJava(src, script)
		if err != nil {
			fmt.Fprintf(out, "  setup: error %v\n", err)
			return
		}
		mt := field(lowered(u, "S", out))
		jRead(u, u.Lookup("S").Type.Fields[0].Type, mt, jheap.NewHeap(), scalarSlots, out)
		cTy, cAttrs := cPartner(mt)
		if cTy == "" {
			fmt.Fprintf(out, "  fuse: no partner\n")
			return
		}
		fused(fmt.Sprintf("%s g(%s x);", cTy, cTy), annotateLines(cAttrs, "g.x", "g.return"),
			src, script, echo, onSlots(scalarSlots), out)
	}}
}

// cShape is a hand-written C row: struct S read from an arena the row
// lays out, and optionally a fused pair over C g and Java I.g.
type cShape struct {
	name, src, script string
	// lay fills the arena and returns where S starts; arrayLen is passed
	// to C.Read for the use under test (the first field of S when field
	// is set, else S itself).
	lay      func(mem *cmem.Arena) cmem.Addr
	field    bool
	arrayLen int
	// call, if set, is a function to run through C.Call on inputs.
	call   string
	inputs value.Value
	impl   func(*cmem.Arena, []uint64) (uint64, error)
	// The fused pair.
	java, jScript string
	fimpl         func(*cmem.Arena, []uint64) (uint64, error)
	args          []func(*jheap.Heap) []jheap.Slot
}

func (r cShape) row() readingRow {
	return readingRow{name: r.name, run: func(t *testing.T, out *strings.Builder) {
		u, err := parseC(r.src, r.script)
		if err != nil {
			fmt.Fprintf(out, "  setup: error %v\n", err)
			return
		}
		if r.lay != nil {
			mt := lowered(u, "S", out)
			c := bind.NewC(u, cmem.ILP32)
			mem := cmem.NewArena()
			at := r.lay(mem)
			use := u.Lookup("S").Type
			if r.field {
				mt, use = field(mt), use.Fields[0].Type
			}
			v, err := c.Read(use, mem, at, r.arrayLen)
			if err != nil {
				fmt.Fprintf(out, "  C.Read: error %v\n", err)
			} else {
				fmt.Fprintf(out, "  C.Read: %s (%s)\n", v, fits(mt, v))
				if lay, err := c.Layouts().Of(use); err == nil {
					cRoundTrip(c, use, lay, v, out)
				} else {
					fmt.Fprintf(out, "  layout: error %v\n", err)
				}
			}
		}
		if r.call != "" {
			lowered(u, r.call, out)
			mem := cmem.NewArena()
			outs, err := bind.NewC(u, cmem.ILP32).Call(u.Lookup(r.call), r.impl, mem, r.inputs)
			if err != nil {
				fmt.Fprintf(out, "  C.Call %s: error %v\n", r.inputs, err)
			} else {
				fmt.Fprintf(out, "  C.Call %s: %s\n", r.inputs, outs)
			}
		}
		if r.java != "" {
			fused(r.src, r.script, r.java, r.jScript, r.fimpl, r.args, out)
		}
	}}
}

// jShape is a hand-written Java row: the first field of class H read from
// the slot the row builds.
type jShape struct {
	name, src, script string
	slots             []func(*jheap.Heap) jheap.Slot
	c, cScript        string
	fimpl             func(*cmem.Arena, []uint64) (uint64, error)
	args              []func(*jheap.Heap) []jheap.Slot
}

func (r jShape) row() readingRow {
	return readingRow{name: r.name, run: func(t *testing.T, out *strings.Builder) {
		u, err := parseJava(r.src, r.script)
		if err != nil {
			fmt.Fprintf(out, "  setup: error %v\n", err)
			return
		}
		mt := field(lowered(u, "H", out))
		h := jheap.NewHeap()
		var slots []jheap.Slot
		for _, b := range r.slots {
			slots = append(slots, b(h))
		}
		jRead(u, u.Lookup("H").Type.Fields[0].Type, mt, h, slots, out)
		if r.c != "" {
			fused(r.c, r.cScript, r.src, r.script, r.fimpl, r.args, out)
		}
	}}
}

// ints lays 32-bit integers out and returns their address.
func ints(mem *cmem.Arena, vs ...int32) cmem.Addr {
	at := mem.Alloc(4*len(vs), 4)
	for i, v := range vs {
		_ = mem.WriteU(at+cmem.Addr(4*i), 4, uint64(uint32(v)))
	}
	return at
}

func ptrTo(target func(*cmem.Arena) cmem.Addr) func(*cmem.Arena) cmem.Addr {
	return func(mem *cmem.Arena) cmem.Addr {
		at := mem.Alloc(4, 4)
		_ = mem.WritePtr(at, cmem.ILP32, target(mem))
		return at
	}
}

func threeInts(mem *cmem.Arena) cmem.Addr { return ints(mem, 11, -22, 33) }
func null(*cmem.Arena) cmem.Addr          { return cmem.Null }

func sumInts(mem *cmem.Arena, at cmem.Addr, n int) (uint64, error) {
	var sum int64
	for i := 0; i < n; i++ {
		v, err := mem.ReadI(at+cmem.Addr(4*i), 4)
		if err != nil {
			return 0, err
		}
		sum = sum*10 + v
	}
	return uint64(sum), nil
}

func object(class string, fields ...any) func(*jheap.Heap) jheap.Slot {
	return func(h *jheap.Heap) jheap.Slot {
		r := h.New(class, len(fields))
		for i, f := range fields {
			switch f := f.(type) {
			case jheap.Slot:
				_ = h.SetField(r, i, f)
			case func(*jheap.Heap) jheap.Slot:
				_ = h.SetField(r, i, f(h))
			}
		}
		return jheap.RefSlot(r)
	}
}

func vector(class string, elems ...func(*jheap.Heap) jheap.Slot) func(*jheap.Heap) jheap.Slot {
	return func(h *jheap.Heap) jheap.Slot {
		v := h.NewVector(class)
		for _, e := range elems {
			_ = h.VectorAppend(v, e(h).R)
		}
		return jheap.RefSlot(v)
	}
}

func nullSlot(*jheap.Heap) jheap.Slot { return jheap.RefSlot(jheap.NullRef) }

func oneArg(b func(*jheap.Heap) jheap.Slot) func(*jheap.Heap) []jheap.Slot {
	return func(h *jheap.Heap) []jheap.Slot { return []jheap.Slot{b(h)} }
}

var point = object("Point", jheap.FloatSlot(1.5), jheap.FloatSlot(-2))

const classes = `class Point { float x; float y; }
class Svc { int call(int x); }
class PV extends java.util.Vector;
`

func f32at(mem *cmem.Arena, at cmem.Addr) float64 {
	f, _ := mem.ReadF32(at)
	return float64(f)
}

func readingRows() []readingRow {
	var rows []readingRow
	for _, c := range cScalarCases()[:len(cTypes)*len(scalarAttrs)] {
		rows = append(rows, c.row())
	}
	for _, ty := range jTypes {
		for _, a := range scalarAttrs {
			rows = append(rows, jScalar(ty, a))
		}
	}
	for _, c := range cScalarCases()[len(cTypes)*len(scalarAttrs):] {
		rows = append(rows, c.row())
	}

	sum3 := func(mem *cmem.Arena, a []uint64) (uint64, error) { return sumInts(mem, cmem.Addr(a[0]), 3) }
	v3 := object("V3", jheap.IntSlot(1), jheap.IntSlot(2), jheap.IntSlot(3))
	box := object("IntBox", jheap.IntSlot(5))
	pointerJava := "class IntBox { int v; } class V3 { int a; int b; int c; } "
	for _, p := range []struct {
		attrs, java, jScript string
		arg                  func(*jheap.Heap) jheap.Slot
		fimpl                func(*cmem.Arena, []uint64) (uint64, error)
	}{
		{"", "interface I { int g(IntBox p); }", "", box, nil},
		{"nonnull", "interface I { int g(IntBox p); }", "annotate I.g.p nonnull noalias", box,
			func(mem *cmem.Arena, a []uint64) (uint64, error) { return sumInts(mem, cmem.Addr(a[0]), 1) }},
		{"length=3", "interface I { int g(V3 p); }", "annotate I.g.p nonnull noalias", v3, sum3},
		{"nonnull length=3", "interface I { int g(V3 p); }", "annotate I.g.p nonnull noalias", v3, sum3},
	} {
		for _, target := range []struct {
			name string
			at   func(*cmem.Arena) cmem.Addr
		}{{"three ints", threeInts}, {"NULL", null}} {
			rows = append(rows, cShape{name: fmt.Sprintf("c pointer [%s] to %s", p.attrs, target.name),
				src: "struct S { int *p; };\nint g(int *p);\n", script: annotateLines(p.attrs, "S.p", "g.p"),
				lay: ptrTo(target.at), field: true, arrayLen: -1,
				java: pointerJava + p.java, jScript: p.jScript, fimpl: p.fimpl,
				args: []func(*jheap.Heap) []jheap.Slot{oneArg(p.arg)}}.row())
		}
	}
	// A pointer inside a struct that a fused stub reaches, by each reading.
	for _, a := range []string{"", "nonnull", "length=3"} {
		java, jScript := "class IntBox { int v; } class S { IntBox p; } interface I { int g(S s); }", "annotate I.g.s nonnull noalias\nannotate S.p nonnull noalias"
		arg := object("S", box)
		if a == "length=3" {
			java, arg = "class V3 { int a; int b; int c; } class S { V3 p; } interface I { int g(S s); }", object("S", v3)
		}
		rows = append(rows, cShape{name: fmt.Sprintf("c pointer [%s] in a struct parameter", a),
			src: "struct S { int *p; };\nint g(struct S *s);\n", script: "annotate g.s nonnull\n" + annotateLines(a, "S.p"),
			java: java, jScript: jScript,
			fimpl: func(mem *cmem.Arena, a []uint64) (uint64, error) {
				p, err := mem.ReadPtr(cmem.Addr(a[0]), cmem.ILP32)
				if err != nil {
					return 0, err
				}
				return sumInts(mem, p, 1)
			},
			args: []func(*jheap.Heap) []jheap.Slot{oneArg(arg)}}.row())
	}
	// length-from: the length rides in a sibling parameter.
	cells := vector("Boxes", box, object("IntBox", jheap.IntSlot(6)))
	for _, decl := range []string{"int *xs", "int xs[]"} {
		for _, a := range []string{"length-from=n", ""} {
			rows = append(rows, cShape{name: fmt.Sprintf("c parameter %s [%s]", decl, a),
				src: fmt.Sprintf("struct S { int *p; };\nint g(%s, int n);\n", decl), script: annotateLines(a, "g.xs"),
				call: "g", inputs: value.NewRecord(value.FromSlice([]value.Value{value.NewInt(4), value.NewInt(5)})),
				impl: func(mem *cmem.Arena, a []uint64) (uint64, error) {
					return sumInts(mem, cmem.Addr(a[0]), int(int32(a[1])))
				},
				java:    "class IntBox { int v; } class Boxes extends java.util.Vector; interface I { int g(Boxes xs); }",
				jScript: "annotate Boxes collection-of=IntBox element-nonnull\nannotate I.g.xs nonnull",
				fimpl: func(mem *cmem.Arena, a []uint64) (uint64, error) {
					return sumInts(mem, cmem.Addr(a[0]), int(int32(a[1])))
				},
				args: []func(*jheap.Heap) []jheap.Slot{oneArg(cells)}}.row())
		}
	}
	rows = append(rows,
		cShape{name: "c pointer [length-from=n] read with and without a length",
			src: "struct S { int *p; };\n", script: "annotate S.p length-from=n",
			lay: ptrTo(threeInts), field: true, arrayLen: 2}.row(),
		cShape{name: "c pointer [length-from=n] read without a length",
			src: "struct S { int *p; };\n", script: "annotate S.p length-from=n",
			lay: ptrTo(threeInts), field: true, arrayLen: -1}.row(),
	)
	// Arrays: fixed, fixed by annotation, indefinite.
	for _, a := range []struct{ decl, attrs string }{{"int a[3]", ""}, {"int a[3]", "length=2"}, {"int a[]", "length=3"}, {"int a[]", ""}} {
		rows = append(rows, cShape{name: fmt.Sprintf("c array %s [%s]", a.decl, a.attrs),
			src: fmt.Sprintf("struct S { %s; };\nint g(struct S *s);\n", a.decl), script: "annotate g.s nonnull\n" + annotateLines(a.attrs, "S.a"),
			lay: threeInts, arrayLen: -1,
			java: "class V3 { int a; int b; int c; } class S { V3 a; } interface I { int g(S s); }", jScript: "annotate I.g.s nonnull noalias\nannotate S.a nonnull noalias",
			fimpl: sum3, args: []func(*jheap.Heap) []jheap.Slot{oneArg(object("S", v3))}}.row())
	}
	rows = append(rows, cShape{name: "c typedef of a typedef of a struct",
		src: "struct P { int x; int y; int z; };\ntypedef struct P P2;\ntypedef P2 P3;\nstruct S { P3 p; };\n", lay: threeInts, arrayLen: -1}.row())
	rows = append(rows, cShape{name: "c typedef array with the length on the use",
		src: "typedef int vec[];\nstruct S { vec a; };\n", script: "annotate S.a length=3", lay: threeInts, arrayLen: -1}.row())

	// An ignored field first, in the middle and last, in both languages.
	for _, ign := range []string{"a", "b", "c"} {
		rows = append(rows, cShape{name: "c struct ignoring " + ign,
			src: "struct S { int a; int b; int c; };\nint g(struct S *s);\n", script: "annotate g.s nonnull\nannotate S." + ign + " ignore",
			lay: threeInts, arrayLen: -1,
			java: "class S { int a; int b; int c; } interface I { int g(S s); }", jScript: "annotate I.g.s nonnull noalias\nannotate S." + ign + " ignore",
			fimpl: sum3, args: []func(*jheap.Heap) []jheap.Slot{oneArg(v3)}}.row())
		rows = append(rows, jShape{name: "java class ignoring " + ign,
			src: "class S { int a; int b; int c; } class H { S s; }", script: "annotate H.s nonnull noalias\nannotate S." + ign + " ignore",
			slots: []func(*jheap.Heap) jheap.Slot{v3}}.row())
	}

	// Enum, and a C bool byte holding 2.
	rows = append(rows,
		cShape{name: "c enum", src: "enum Color { RED, GREEN, BLUE };\nstruct S { enum Color c; };\nenum Color g(enum Color c);\n",
			lay: func(mem *cmem.Arena) cmem.Addr { return ints(mem, 2) }, arrayLen: -1,
			call: "g", inputs: value.NewRecord(value.NewInt(1)), impl: echo,
			java: "interface I { int g(int c); }", jScript: "annotate I.g.c range=0..2\nannotate I.g.return range=0..2",
			fimpl: echo, args: onSlots([]jheap.Slot{jheap.IntSlot(2), jheap.CharSlot(2)})}.row(),
		cShape{name: "c bool byte holding 2", src: "struct S { _Bool b; };\n_Bool g(_Bool b);\n",
			lay: func(mem *cmem.Arena) cmem.Addr { return ints(mem, 2) }, arrayLen: -1,
			call: "g", inputs: value.NewRecord(value.NewInt(1)), impl: func(*cmem.Arena, []uint64) (uint64, error) { return 2, nil },
			java: "interface I { boolean g(boolean b); }", fimpl: func(*cmem.Arena, []uint64) (uint64, error) { return 2, nil },
			args: onSlots([]jheap.Slot{jheap.IntSlot(1), jheap.IntSlot(2)})}.row(),
	)

	// Out parameters by each pointer reading.
	for _, a := range []string{"out", "out nonnull", "out length=2", "inout nonnull"} {
		inputs := value.NewRecord()
		if strings.HasPrefix(a, "inout") {
			inputs = value.NewRecord(value.NewInt(9))
		}
		rows = append(rows, cShape{name: fmt.Sprintf("c parameter int *v [%s]", a),
			src: "void g(int *v);\n", script: "annotate g.v " + a,
			call: "g", inputs: inputs,
			impl: func(mem *cmem.Arena, a []uint64) (uint64, error) {
				return 0, mem.WriteU(cmem.Addr(a[0]), 4, 41)
			}}.row())
	}

	// Class references by each reading.
	norm := func(mem *cmem.Arena, a []uint64) (uint64, error) {
		return uint64(math.Float32bits(float32(f32at(mem, cmem.Addr(a[0])) + 10*f32at(mem, cmem.Addr(a[0])+4)))), nil
	}
	svc := object("Svc")
	for _, r := range []struct {
		field, attrs string
		slots        []func(*jheap.Heap) jheap.Slot
	}{
		{"Point p", "", []func(*jheap.Heap) jheap.Slot{point, nullSlot}},
		{"Point p", "byvalue", []func(*jheap.Heap) jheap.Slot{point, nullSlot}},
		{"Point p", "byref", []func(*jheap.Heap) jheap.Slot{point, nullSlot}},
		{"Point p", "nonnull", []func(*jheap.Heap) jheap.Slot{point, nullSlot}},
		{"Point p", "nonnull noalias", []func(*jheap.Heap) jheap.Slot{point, nullSlot}},
		{"Svc p", "", []func(*jheap.Heap) jheap.Slot{svc, nullSlot}},
		{"Svc p", "byvalue", []func(*jheap.Heap) jheap.Slot{svc}},
		{"Svc p", "nonnull", []func(*jheap.Heap) jheap.Slot{svc, nullSlot}},
		{"Svc p", "nonnull noalias", []func(*jheap.Heap) jheap.Slot{svc}},
	} {
		rows = append(rows, jShape{name: fmt.Sprintf("java reference %s [%s]", r.field, r.attrs),
			src: classes + "class H { " + r.field + "; }\ninterface I { float g(" + r.field + "); }", script: annotateLines(r.attrs, "H.p", "I.g.p"),
			slots: r.slots,
			c:     "struct Pt { float x; float y; };\nfloat g(struct Pt *p);", cScript: "annotate g.p nonnull", fimpl: norm,
			args: []func(*jheap.Heap) []jheap.Slot{oneArg(r.slots[0])}}.row())
	}
	pv := vector("PV", point, object("Point", jheap.FloatSlot(3), jheap.FloatSlot(4)))
	pvNull := vector("PV", point, nullSlot)
	first := func(mem *cmem.Arena, a []uint64) (uint64, error) {
		if int32(a[1]) == 0 {
			return 0, nil
		}
		return norm(mem, a)
	}
	for _, r := range []struct{ name, script string }{
		{"collection-of on the class", "annotate PV collection-of=Point"},
		{"collection-of and element-nonnull on the class", "annotate PV collection-of=Point element-nonnull"},
		{"collection-of on the class, element-nonnull on the use", "annotate PV collection-of=Point\nannotate H.v element-nonnull\nannotate I.g.v element-nonnull"},
		{"collection-of on the use", "annotate H.v collection-of=Point element-nonnull\nannotate I.g.v collection-of=Point element-nonnull"},
		{"no collection-of (a Vector of Object)", ""},
	} {
		for _, nn := range []string{"", "nonnull"} {
			rows = append(rows, jShape{name: fmt.Sprintf("java collection: %s [%s]", r.name, nn),
				src: classes + "class H { PV v; }\ninterface I { float g(PV v); }", script: r.script + "\n" + annotateLines(nn, "H.v", "I.g.v"),
				slots: []func(*jheap.Heap) jheap.Slot{pv, pvNull, nullSlot},
				c:     "struct Pt { float x; float y; };\nfloat g(struct Pt ps[], int n);", cScript: "annotate g.ps length-from=n", fimpl: first,
				args: []func(*jheap.Heap) []jheap.Slot{oneArg(pv)}}.row())
		}
	}
	rows = append(rows, jShape{name: "java collection inside a by-value class",
		src: classes + "class H { PV v; }\ninterface I { float g(H h); }", script: "annotate PV collection-of=Point element-nonnull\nannotate H.v nonnull\nannotate I.g.h nonnull noalias",
		slots: []func(*jheap.Heap) jheap.Slot{pv},
		c:     "struct Pt { float x; float y; };\nfloat g(struct Pt ps[], int n);", cScript: "annotate g.ps length-from=n", fimpl: first,
		args: []func(*jheap.Heap) []jheap.Slot{oneArg(object("H", pv))}}.row())

	// Java arrays and strings.
	floats := func(h *jheap.Heap) jheap.Slot {
		r := h.NewPrimArray("float32", 2)
		_ = h.PrimArraySet(r, 0, jheap.FloatSlot(1))
		_ = h.PrimArraySet(r, 1, jheap.FloatSlot(2))
		return jheap.RefSlot(r)
	}
	for _, a := range []string{"", "nonnull", "length=2"} {
		rows = append(rows, jShape{name: fmt.Sprintf("java array float[] [%s]", a),
			src: "class H { float[] xs; }", script: annotateLines(a, "H.xs"),
			slots: []func(*jheap.Heap) jheap.Slot{floats, nullSlot}}.row())
	}
	rows = append(rows, jShape{name: "java String",
		src: "class H { String s; }",
		slots: []func(*jheap.Heap) jheap.Slot{func(h *jheap.Heap) jheap.Slot {
			r := h.NewPrimArray("char16", 2)
			_ = h.PrimArraySet(r, 0, jheap.CharSlot('h'))
			_ = h.PrimArraySet(r, 1, jheap.CharSlot('i'))
			return jheap.RefSlot(r)
		}}}.row())
	return rows
}

// TestReadingTable pins how every module reads an annotated declaration.
// testdata/reading.txt was written by this test at the commit before
// lower's Shape became the one reading; that change reproduces it except
// for the rows CHANGES.md names at 06bf690.
func TestReadingTable(t *testing.T) {
	var sb strings.Builder
	for _, r := range readingRows() {
		fmt.Fprintf(&sb, "== %s\n", r.name)
		r.run(t, &sb)
	}
	got := sb.String()
	const path = "testdata/reading.txt"
	if *updateReading {
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
		row := ""
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if strings.HasPrefix(gl[i], "== ") {
				row = gl[i]
			}
			if gl[i] != wl[i] {
				t.Fatalf("reading differs from %s at line %d (%s):\n got  %s\n want %s", path, i+1, row, gl[i], wl[i])
			}
		}
		t.Fatalf("reading has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
