package fuse

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cmem"
	"repro/internal/jheap"
)

// TestReusedFrameLeaksNothing: a Call hands its frames — arena and C frame
// — from one Invoke to the next, so nothing a call leaves there may reach
// a later one. Eight goroutines share one Call, each with its own heap and
// point counts that differ from call to call, so a frame's arena is laid
// out differently each time it comes back; every fifth call is first
// spoiled, failing on the last element of its list with the array and
// the arena written up to it. Every good call must return the oracle's Line, and the C
// function checks at entry that its out buffers read zero, as Alloc
// promises.
func TestReusedFrameLeaksNothing(t *testing.T) {
	var dirty atomic.Int64
	checked := fitterPair
	checked.impl = func(mem *cmem.Arena, args []uint64) (uint64, error) {
		for _, at := range args[2:4] {
			for i := 0; i < 8; i += 4 {
				if u, err := mem.ReadU(cmem.Addr(at)+cmem.Addr(i), 4); err != nil || u != 0 {
					dirty.Add(1)
					return 0, fmt.Errorf("out buffer at %d+%d reads %#x (%v) on entry", at, i, u, err)
				}
			}
		}
		return cFitterImpl(mem, args)
	}
	_, _, call := checked.compile(t, cmem.ILP32)

	// Every goroutine's heap and vectors are built here, on the test's own
	// goroutine, and then belong to that goroutine alone.
	const goroutines, rounds = 8, 100
	type round struct {
		coords        []float64
		good, spoiled jheap.Ref // spoiled is null on four rounds of five
	}
	heaps, plans := make([]*jheap.Heap, goroutines), make([][]round, goroutines)
	for g := range heaps {
		h := jheap.NewHeap()
		heaps[g] = h
		for r := 0; r < rounds; r++ {
			coords := make([]float64, 2*(1+(7*g+13*r)%40))
			for i := range coords {
				coords[i] = float64((31*g+17*r+7*i)%97) - 48.5
			}
			rd := round{coords: coords, good: buildHeapPoints(t, h, coords...)}
			if r%5 == 0 {
				// The good points, then a null element or a Point whose x
				// is an int: the call fails after writing the good ones.
				rd.spoiled = buildHeapPoints(t, h, coords...)
				bad := jheap.NullRef
				if r%10 == 0 {
					bad = h.New("Point", 2)
					if h.SetField(bad, 0, jheap.IntSlot(3)) != nil || h.SetField(bad, 1, jheap.FloatSlot(4)) != nil {
						t.Fatal("cannot build the ill-kinded Point")
					}
				}
				if h.VectorAppend(rd.spoiled, bad) != nil {
					t.Fatal("cannot build the spoiled vector")
				}
			}
			plans[g] = append(plans[g], rd)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := range heaps {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := heaps[g]
			for r, rd := range plans[g] {
				if rd.spoiled != jheap.NullRef {
					if _, err := call.Invoke(h, []jheap.Slot{jheap.RefSlot(rd.spoiled)}); err == nil {
						errs <- fmt.Errorf("goroutine %d round %d: a spoiled vector was accepted", g, r)
						return
					}
				}
				outs, err := call.Invoke(h, []jheap.Slot{jheap.RefSlot(rd.good)})
				if err == nil {
					err = sameLine(h, outs, rd.coords)
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d (%d points): %w", g, r, len(rd.coords)/2, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := dirty.Load(); n > 0 {
		t.Errorf("the C function found written out buffers on entry %d times", n)
	}
}

// sameLine checks that a fitter's outputs are the Line the oracle says.
func sameLine(h *jheap.Heap, outs []jheap.Slot, coords []float64) error {
	got, err := lineOf(h, outs)
	if want := oracleLine(coords); err == nil && got != want {
		err = fmt.Errorf("Line %v, oracle %v", got, want)
	}
	return err
}

// oracleLine is the Line a fitter must return: the bounding box of the
// points, computed in plain Go.
func oracleLine(coords []float64) [4]float32 {
	want := [4]float32{float32(coords[0]), float32(coords[1]), float32(coords[0]), float32(coords[1])}
	for i := 0; i+1 < len(coords); i += 2 {
		x, y := float32(coords[i]), float32(coords[i+1])
		want = [4]float32{min(want[0], x), min(want[1], y), max(want[2], x), max(want[3], y)}
	}
	return want
}

// lineOf reads the Line a fitter returned back out of the heap.
func lineOf(h *jheap.Heap, outs []jheap.Slot) ([4]float32, error) {
	var got [4]float32
	if len(outs) != 1 {
		return got, fmt.Errorf("%d outputs, want the Line", len(outs))
	}
	for i := 0; i < 4; i++ {
		pt, err := h.Field(outs[0].R, i/2)
		if err != nil {
			return got, err
		}
		f, err := h.Field(pt.R, i%2)
		if err != nil {
			return got, err
		}
		got[i] = float32(f.F)
	}
	return got, nil
}

// TestReusedFrameLeaksNothingListKinds holds the list-kind pairs, whose
// flat elements run as tables of runs, to the same rule under both data
// models: eight goroutines share each pair's Call, every fifth call on a
// heap with one illegal value somewhere, and every call must answer as a
// Call compiled afresh did on the same heap, error text included. The C
// function hashes every byte of the array, padding too, so a byte an
// earlier call left there shows.
func TestReusedFrameLeaksNothingListKinds(t *testing.T) {
	const goroutines, rounds = 8, 40
	for _, p := range listKindPairs {
		for _, model := range []cmem.Model{cmem.ILP32, cmem.LP64} {
			// Each round's heap, arguments and answer are made here, on the
			// test's goroutine, with every tier agreeing, and then belong to
			// one goroutine alone.
			ts := p.tiers(t, model)
			_, _, fresh := p.compile(t, model)
			type round struct {
				h         *jheap.Heap
				args, out []jheap.Slot
				err       string
			}
			r := rand.New(rand.NewSource(int64(model)))
			plans := make([][]round, goroutines)
			for g := range plans {
				for i := 0; i < rounds; i++ {
					var ill *int
					if i%5 == 0 {
						ill = new(int)
						*ill = 1 + r.Intn(6)
					}
					rd := round{h: jheap.NewHeap()}
					for _, param := range ts.jFn.Params {
						rd.args = append(rd.args, randSlot(r, ts.jU, param.Type, rd.h, ill))
					}
					if err := ts.agree(rd.h, rd.args); err != nil {
						t.Fatalf("%s, model %d: %v", p.name, model, err)
					}
					out, err := fresh.Invoke(rd.h, rd.args)
					rd.out, rd.err = out, fmt.Sprint(err)
					plans[g] = append(plans[g], rd)
				}
			}

			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := range plans {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i, rd := range plans[g] {
						out, err := ts.fused.Invoke(rd.h, rd.args)
						if fmt.Sprint(err) != rd.err || !slices.Equal(out, rd.out) {
							errs <- fmt.Errorf("%s, model %d, goroutine %d round %d: %v (%v), fresh call %v (%s)", p.name, model, g, i, out, err, rd.out, rd.err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		}
	}
}
