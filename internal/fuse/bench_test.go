package fuse

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cmem"
	"repro/internal/jheap"
	"repro/internal/value"
)

// BenchmarkFusedFitter times one Java→C fitter call on 64 points through
// the fused stub, the hand-written bridge and the general compiled stub
// (heap read, invoke, heap write). A call leaves three result objects
// behind and jheap never frees, so every 2 048 calls start a fresh heap,
// as the benchmark's local_stub workload does; the numbers anyone quotes
// come from there (`bash bench/run.sh --workload local_stub`).
// fused-parallel is that workload's operation: one caller a P (`-cpu 2`
// gives its two callers), each with a heap of its own, and every call
// reads the Line back and checks it against the oracle.
func BenchmarkFusedFitter(b *testing.B) {
	ts := fitterPair.tiers(b, cmem.ILP32)
	compiled := ts.general["compiled"]
	for _, tier := range []struct {
		name string
		call func(h *jheap.Heap, pts jheap.Slot) error
	}{
		{"fused", func(h *jheap.Heap, pts jheap.Slot) error {
			_, err := ts.fused.Invoke(h, []jheap.Slot{pts})
			return err
		}},
		{"hand-written", func(h *jheap.Heap, pts jheap.Slot) error {
			_, err := baseline.FitterHandWritten(h, pts.R, cFitterImpl)
			return err
		}},
		{"compiled", func(h *jheap.Heap, pts jheap.Slot) error {
			in, err := ts.jb.Read(ts.jFn.Params[0].Type, h, pts)
			if err != nil {
				return err
			}
			out, err := compiled.Invoke(value.NewRecord(in))
			if err != nil {
				return err
			}
			_, err = ts.jb.Write(ts.jFn.Result, h, out.(value.Record).Fields[0])
			return err
		}},
	} {
		b.Run(tier.name, func(b *testing.B) {
			b.ReportAllocs()
			var h *jheap.Heap
			var pts jheap.Slot
			for i := 0; i < b.N; i++ {
				if i%2048 == 0 {
					h = jheap.NewHeap()
					pts = points(64)(b, h)[0]
				}
				if err := tier.call(h, pts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("fused-parallel", func(b *testing.B) {
		coords := pointCoords(64)
		want := oracleLine(coords)
		one := func(h *jheap.Heap, pts jheap.Ref) error {
			outs, err := ts.fused.Invoke(h, []jheap.Slot{jheap.RefSlot(pts)})
			if err != nil {
				return err
			}
			got, err := lineOf(h, outs)
			if err == nil && got != want {
				err = fmt.Errorf("Line %v, oracle %v", got, want)
			}
			return err
		}
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			var h *jheap.Heap
			var pts jheap.Ref
			var err error
			for i := 0; err == nil && pb.Next(); i++ {
				if i%2048 == 0 {
					h = jheap.NewHeap()
					if pts, err = heapPoints(h, coords...); err != nil {
						break
					}
				}
				err = one(h, pts)
			}
			if err != nil {
				b.Error(err)
			}
		})
	})
}
