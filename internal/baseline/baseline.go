// Package baseline implements the competing technology of the paper's
// §6 performance question: an IDL-compiler-style path for the fitter
// example. An IDL compiler imposes its own translated types on the
// application (the Figure 4 classes), so the programmer must write bridge
// code copying between the application's types and the imposed ones; the
// generated IDL stub itself is a fixed, monomorphic marshaler.
//
// The package provides exactly those pieces, hand-written the way an IDL
// user would write them against the simulated Java heap and C memory:
//
//   - the imposed Go-side types (Point, Line — the Figure 4 translation);
//   - the bridge code (application PointVector/Point objects → imposed
//     values and back), the error-prone chore §1 describes;
//   - the fixed stub that marshals imposed values into C memory and
//     invokes the callee.
//
// The §6-perf benchmarks run this path next to the Mockingbird stub and
// a fully hand-written conversion to compare overheads.
package baseline

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bind"
	"repro/internal/cmem"
	"repro/internal/jheap"
)

// Point is the imposed point type (Figure 4's generated class).
type Point struct {
	X, Y float32
}

// Line is the imposed line type.
type Line struct {
	Start, End Point
}

// BridgeFromApp is the programmer-written bridge from the application's
// PointVector of Point objects to the imposed []Point. Field indices
// follow the Figure 1 declaration (x at 0, y at 1).
func BridgeFromApp(h *jheap.Heap, pts jheap.Ref) ([]Point, error) {
	elems, err := h.VectorElems(pts)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	out := make([]Point, len(elems))
	for i, ref := range elems {
		if ref == jheap.NullRef {
			return nil, fmt.Errorf("baseline: null Point at %d", i)
		}
		p, err := pointFields(h, ref)
		if err != nil {
			return nil, err
		}
		out[i] = Point{X: float32(p[0].F), Y: float32(p[1].F)}
	}
	return out, nil
}

// pointFields fetches an application Point's two fields once, and checks
// that both hold floats.
func pointFields(h *jheap.Heap, ref jheap.Ref) ([]jheap.Slot, error) {
	p, err := h.Fields(ref)
	switch {
	case err != nil:
		return nil, err
	case len(p) < 2:
		return nil, fmt.Errorf("baseline: a Point with %d fields", len(p))
	case p[0].Kind != jheap.SlotFloat || p[1].Kind != jheap.SlotFloat:
		return nil, fmt.Errorf("baseline: a Point with coordinates of kinds %d, %d", p[0].Kind, p[1].Kind)
	}
	return p, nil
}

// newPoint allocates an application Point.
func newPoint(h *jheap.Heap, x, y float32) (jheap.Ref, error) {
	r := h.New("Point", 2)
	p, err := h.Fields(r)
	if err != nil {
		return jheap.NullRef, err
	}
	p[0], p[1] = jheap.FloatSlot(float64(x)), jheap.FloatSlot(float64(y))
	return r, nil
}

// newLine allocates an application Line over two Points.
func newLine(h *jheap.Heap, start, end jheap.Ref) (jheap.Ref, error) {
	r := h.New("Line", 2)
	l, err := h.Fields(r)
	if err != nil {
		return jheap.NullRef, err
	}
	l[0], l[1] = jheap.RefSlot(start), jheap.RefSlot(end)
	return r, nil
}

// BridgeToApp is the reverse bridge: the imposed Line back into
// application Line/Point objects.
func BridgeToApp(h *jheap.Heap, l Line) (jheap.Ref, error) {
	start, err := newPoint(h, l.Start.X, l.Start.Y)
	if err != nil {
		return jheap.NullRef, err
	}
	end, err := newPoint(h, l.End.X, l.End.Y)
	if err != nil {
		return jheap.NullRef, err
	}
	return newLine(h, start, end)
}

// CallFitter is the generated IDL stub: it lays the imposed values out in
// C memory exactly as the CFriendly interface implies (a contiguous
// float[2] array, a count, two output buffers) and invokes the C
// implementation.
func CallFitter(impl bind.CFunc, pts []Point) (Line, error) {
	mem := cmem.NewArena()
	mem.Grow(8*len(pts) + 16)
	base := cmem.Null
	if len(pts) > 0 {
		base = mem.Alloc(8*len(pts), 4)
		array, err := mem.Window(base, 8*len(pts))
		if err != nil {
			return Line{}, err
		}
		for i, p := range pts {
			putPoint(array[8*i:], p.X, p.Y)
		}
	}
	start := mem.Alloc(8, 4)
	end := mem.Alloc(8, 4)
	if _, err := impl(mem, []uint64{uint64(base), uint64(int32(len(pts))), uint64(start), uint64(end)}); err != nil {
		return Line{}, err
	}
	var out Line
	var err error
	if out.Start.X, out.Start.Y, err = getPoint(mem, start); err != nil {
		return Line{}, err
	}
	if out.End.X, out.End.Y, err = getPoint(mem, end); err != nil {
		return Line{}, err
	}
	return out, nil
}

// putPoint stores a C point, float[2], at the start of w.
func putPoint(w []byte, x, y float32) {
	binary.LittleEndian.PutUint32(w, math.Float32bits(x))
	binary.LittleEndian.PutUint32(w[4:], math.Float32bits(y))
}

// getPoint loads the C point at at.
func getPoint(mem *cmem.Arena, at cmem.Addr) (x, y float32, err error) {
	w, err := mem.Window(at, 8)
	if err != nil {
		return 0, 0, err
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(w)), math.Float32frombits(binary.LittleEndian.Uint32(w[4:])), nil
}

// FitterViaIDL is the complete baseline path: bridge from the
// application, call through the fixed stub, bridge back.
func FitterViaIDL(h *jheap.Heap, pts jheap.Ref, impl bind.CFunc) (jheap.Ref, error) {
	imposed, err := BridgeFromApp(h, pts)
	if err != nil {
		return jheap.NullRef, err
	}
	line, err := CallFitter(impl, imposed)
	if err != nil {
		return jheap.NullRef, err
	}
	return BridgeToApp(h, line)
}

// FitterHandWritten is the lower bound: a direct conversion from the
// application heap to C memory with no intermediate representation at
// all — the code a careful human would write for this one interface.
func FitterHandWritten(h *jheap.Heap, pts jheap.Ref, impl bind.CFunc) (jheap.Ref, error) {
	elems, err := h.VectorElems(pts)
	if err != nil {
		return jheap.NullRef, err
	}
	mem := cmem.NewArena()
	mem.Grow(8*len(elems) + 16)
	base := cmem.Null
	if len(elems) > 0 {
		base = mem.Alloc(8*len(elems), 4)
		array, err := mem.Window(base, 8*len(elems))
		if err != nil {
			return jheap.NullRef, err
		}
		for i, ref := range elems {
			p, err := pointFields(h, ref)
			if err != nil {
				return jheap.NullRef, err
			}
			putPoint(array[8*i:], float32(p[0].F), float32(p[1].F))
		}
	}
	start := mem.Alloc(8, 4)
	end := mem.Alloc(8, 4)
	if _, err := impl(mem, []uint64{uint64(base), uint64(int32(len(elems))), uint64(start), uint64(end)}); err != nil {
		return jheap.NullRef, err
	}
	x, y, err := getPoint(mem, start)
	if err != nil {
		return jheap.NullRef, err
	}
	startRef, err := newPoint(h, x, y)
	if err != nil {
		return jheap.NullRef, err
	}
	if x, y, err = getPoint(mem, end); err != nil {
		return jheap.NullRef, err
	}
	endRef, err := newPoint(h, x, y)
	if err != nil {
		return jheap.NullRef, err
	}
	return newLine(h, startRef, endRef)
}
