package baseline

import (
	"testing"

	"repro/internal/cmem"
	"repro/internal/jheap"
	"repro/internal/testutil"
)

// fitterImpl computes the bounding-box diagonal, as in the stub tests.
func fitterImpl(mem *cmem.Arena, args []uint64) (uint64, error) {
	pts := cmem.Addr(args[0])
	count := int(int32(args[1]))
	start := cmem.Addr(args[2])
	end := cmem.Addr(args[3])
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

// appPoints builds the application-side PointVector.
func appPoints(h *jheap.Heap, coords ...float64) jheap.Ref {
	v := h.NewVector("PointVector")
	for i := 0; i+1 < len(coords); i += 2 {
		p := h.New("Point", 2)
		_ = h.SetField(p, 0, jheap.FloatSlot(coords[i]))
		_ = h.SetField(p, 1, jheap.FloatSlot(coords[i+1]))
		_ = h.VectorAppend(v, p)
	}
	return v
}

func lineCoords(t *testing.T, h *jheap.Heap, line jheap.Ref) [4]float64 {
	t.Helper()
	var out [4]float64
	for i, fi := range []int{0, 1} {
		ref, err := h.Field(line, fi)
		if err != nil {
			t.Fatal(err)
		}
		for j, fj := range []int{0, 1} {
			s, err := h.Field(ref.R, fj)
			if err != nil {
				t.Fatal(err)
			}
			out[2*i+j] = s.F
		}
	}
	return out
}

func TestFitterViaIDL(t *testing.T) {
	h := jheap.NewHeap()
	pts := appPoints(h, 1, 5, 3, 2, 2, 7)
	line, err := FitterViaIDL(h, pts, fitterImpl)
	if err != nil {
		t.Fatal(err)
	}
	got := lineCoords(t, h, line)
	want := [4]float64{1, 2, 3, 7}
	if got != want {
		t.Errorf("line = %v, want %v", got, want)
	}
}

func TestFitterHandWritten(t *testing.T) {
	h := jheap.NewHeap()
	pts := appPoints(h, 0, 0, 10, 10, 5, -3)
	line, err := FitterHandWritten(h, pts, fitterImpl)
	if err != nil {
		t.Fatal(err)
	}
	got := lineCoords(t, h, line)
	want := [4]float64{0, -3, 10, 10}
	if got != want {
		t.Errorf("line = %v, want %v", got, want)
	}
}

func TestBothPathsAgree(t *testing.T) {
	h := jheap.NewHeap()
	pts := appPoints(h, 4, 4, -1, 9, 6, 0)
	l1, err := FitterViaIDL(h, pts, fitterImpl)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := FitterHandWritten(h, pts, fitterImpl)
	if err != nil {
		t.Fatal(err)
	}
	if lineCoords(t, h, l1) != lineCoords(t, h, l2) {
		t.Error("baseline paths disagree")
	}
}

func TestEmptyVector(t *testing.T) {
	h := jheap.NewHeap()
	pts := appPoints(h)
	if _, err := FitterViaIDL(h, pts, fitterImpl); err != nil {
		t.Errorf("empty vector via IDL: %v", err)
	}
	if _, err := FitterHandWritten(h, pts, fitterImpl); err != nil {
		t.Errorf("empty vector hand-written: %v", err)
	}
}

func TestBridgeRejectsNullElement(t *testing.T) {
	h := jheap.NewHeap()
	v := h.NewVector("PointVector")
	_ = h.VectorAppend(v, jheap.NullRef)
	if _, err := BridgeFromApp(h, v); err == nil {
		t.Error("null element accepted")
	}
}

// TestFitterHandWrittenAllocs pins what the hand-written bridge allocates
// on 64 points — the arena, its reserved word and its one sizing, and the
// C frame: four; its three result objects come from jheap's slabs, a share
// of one allocation each — so that the fused stub's ceiling
// (fuse.TestFusedInvokeAllocs) stands next to a measured number, not a
// remembered one. The ceiling is that plus one.
func TestFitterHandWrittenAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates")
	}
	h := jheap.NewHeap()
	coords := make([]float64, 128)
	for i := range coords {
		coords[i] = float64((i*37)%101) - 50.5
	}
	pts := appPoints(h, coords...)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := FitterHandWritten(h, pts, fitterImpl); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a hand-written fitter call on 64 points allocates %v times", allocs)
	if allocs > 5 {
		t.Errorf("a hand-written fitter call on 64 points allocates %v times, ceiling 5", allocs)
	}
}

// TestBridgesRefuseWhatTheStubRefuses: a short Point, a dangling element
// and a non-Vector fail on both baseline paths, as they do in the stubs.
func TestBridgesRefuseWhatTheStubRefuses(t *testing.T) {
	for name, build := range map[string]func(h *jheap.Heap) jheap.Ref{
		"short point": func(h *jheap.Heap) jheap.Ref {
			v := appPoints(h, 1, 2)
			_ = h.VectorAppend(v, h.New("Point", 1))
			return v
		},
		"dangling element": func(h *jheap.Heap) jheap.Ref {
			v := appPoints(h, 1, 2)
			_ = h.VectorAppend(v, 9999)
			return v
		},
		"null element": func(h *jheap.Heap) jheap.Ref {
			v := appPoints(h, 1, 2)
			_ = h.VectorAppend(v, jheap.NullRef)
			return v
		},
		"wrong-kinded coordinate": func(h *jheap.Heap) jheap.Ref {
			v := appPoints(h, 1, 2)
			p := h.New("Point", 2)
			_ = h.SetField(p, 0, jheap.IntSlot(3))
			_ = h.SetField(p, 1, jheap.FloatSlot(4))
			_ = h.VectorAppend(v, p)
			return v
		},
		"not a vector": func(h *jheap.Heap) jheap.Ref { return h.New("Point", 2) },
	} {
		h := jheap.NewHeap()
		pts := build(h)
		if _, err := FitterHandWritten(h, pts, fitterImpl); err == nil {
			t.Errorf("%s: accepted by the hand-written bridge", name)
		}
		if _, err := FitterViaIDL(h, pts, fitterImpl); err == nil {
			t.Errorf("%s: accepted by the IDL path", name)
		}
	}
}
