package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/bind"
	"repro/internal/cmem"
	"repro/internal/core"
	"repro/internal/fuse"
	"repro/internal/jheap"
	"repro/internal/value"
)

// localStub is the run-time workload, the paper's §6 experiment: the
// Java-declared JavaIdeal.fitter(PointVector) invoked on the C fitter
// through the fused stub. No network at all; it guards fuse, bind, jheap
// and cmem.
var localStub = &workload{
	name:     "local_stub",
	warmOps:  50000,
	blockOps: 8192, lapBlocks: 28, // 11 µs a call
	spanNames: []string{spFuseInvoke: "fuse.invoke", spCTarget: "target.fitter"},
	setup:     setupLocalStub,
}

const (
	spFuseInvoke uint16 = iota
	spCTarget
)

// The fitter pair: Figures 1, 2 and 5 with the §3.4 annotations.
const (
	fitterC = `
typedef float point[2];
void fitter(point pts[], int count, point *start, point *end);
`
	fitterJava = `
public class Point { private float x; private float y; }
public class Line { private Point start; private Point end; }
public class PointVector extends java.util.Vector;
public interface JavaIdeal { Line fitter(PointVector pts); }
`
	fitterCScript = `
annotate fitter.start out nonnull
annotate fitter.end out nonnull
annotate fitter.pts length-from=count
`
	fitterJavaScript = `
annotate Line.start nonnull noalias
annotate Line.end nonnull noalias
annotate PointVector collection-of=Point element-nonnull
annotate JavaIdeal.fitter.pts nonnull
annotate JavaIdeal.fitter.return nonnull
`
	fitterPoints = 64
	// heapEvery is how many calls share one simulated Java heap before the
	// caller starts a fresh one: jheap never frees, and a real JVM would
	// have collected the result objects.
	heapEvery = 2048
)

func fitterSession() (*core.Session, error) {
	s := core.NewSession()
	if err := s.LoadC("c", fitterC, cmem.ILP32); err != nil {
		return nil, err
	}
	if err := s.LoadJava("java", fitterJava); err != nil {
		return nil, err
	}
	if _, err := s.Annotate("c", fitterCScript); err != nil {
		return nil, err
	}
	if _, err := s.Annotate("java", fitterJavaScript); err != nil {
		return nil, err
	}
	return s, nil
}

// cFitter is the C implementation behind the stub, owned by the benchmark:
// the bounding box of the points, written through the two out pointers.
func cFitter(mem *cmem.Arena, args []uint64) (uint64, error) {
	pts, count := cmem.Addr(args[0]), int(int32(args[1]))
	start, end := cmem.Addr(args[2]), cmem.Addr(args[3])
	var box [4]float32 // minX, minY, maxX, maxY
	for i := 0; i < count; i++ {
		x, err := mem.ReadF32(pts + cmem.Addr(8*i))
		if err != nil {
			return 0, err
		}
		y, err := mem.ReadF32(pts + cmem.Addr(8*i+4))
		if err != nil {
			return 0, err
		}
		if i == 0 {
			box = [4]float32{x, y, x, y}
		}
		box[0], box[1] = min(box[0], x), min(box[1], y)
		box[2], box[3] = max(box[2], x), max(box[3], y)
	}
	for i, at := range []cmem.Addr{start, start + 4, end, end + 4} {
		if err := mem.WriteF32(at, box[i]); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// heapPoints builds the application's PointVector in a fresh heap.
func heapPoints(pts [][2]float32) (*jheap.Heap, jheap.Ref, error) {
	h := jheap.NewHeap()
	v := h.NewVector("PointVector")
	for _, p := range pts {
		obj := h.New("Point", 2)
		if err := h.SetField(obj, 0, jheap.FloatSlot(float64(p[0]))); err != nil {
			return nil, 0, err
		}
		if err := h.SetField(obj, 1, jheap.FloatSlot(float64(p[1]))); err != nil {
			return nil, 0, err
		}
		if err := h.VectorAppend(v, obj); err != nil {
			return nil, 0, err
		}
	}
	return h, v, nil
}

// boundingBox is the oracle: the Line the fitter must return, computed in
// plain Go from the generated points, never through the stub.
func boundingBox(pts [][2]float32) [4]float32 {
	box := [4]float32{pts[0][0], pts[0][1], pts[0][0], pts[0][1]}
	for _, p := range pts[1:] {
		box[0], box[1] = min(box[0], p[0]), min(box[1], p[1])
		box[2], box[3] = max(box[2], p[0]), max(box[3], p[1])
	}
	return box
}

// readLine reads a Java Line {Point start; Point end} back out of the heap.
func readLine(h *jheap.Heap, line jheap.Ref) ([4]float32, error) {
	var got [4]float32
	for i := 0; i < 2; i++ {
		pt, err := h.Field(line, i)
		if err != nil {
			return got, err
		}
		for j := 0; j < 2; j++ {
			f, err := h.Field(pt.R, j)
			if err != nil {
				return got, err
			}
			got[2*i+j] = float32(f.F)
		}
	}
	return got, nil
}

// stubCaller is one caller's private state: its own heap and stub.
type stubCaller struct {
	pts  [][2]float32
	want [4]float32
	call *fuse.Call
	heap *jheap.Heap
	vec  jheap.Ref
	used int
	// cur is the caller's open fuse.invoke span, which the C target's span
	// names as its parent.
	cur int32
}

func newStubCaller(e *env, pts [][2]float32) (*stubCaller, error) {
	c := &stubCaller{pts: pts, want: boundingBox(pts)}
	sess, err := fitterSession()
	if err != nil {
		return nil, err
	}
	jFn, err := sess.MethodDecl("java", "JavaIdeal", "fitter")
	if err != nil {
		return nil, err
	}
	target := func(mem *cmem.Arena, args []uint64) (uint64, error) {
		tr := e.tr.Load()
		if tr == nil {
			return cFitter(mem, args)
		}
		id := tr.begin(spCTarget, c.cur, c.cur)
		ret, err := cFitter(mem, args)
		tr.end(id)
		return ret, err
	}
	if c.call, err = fuse.CompileFromSession(sess, "java", jFn, "c", "fitter", cmem.ILP32, target); err != nil {
		return nil, err
	}
	return c, c.freshHeap()
}

func (c *stubCaller) freshHeap() (err error) {
	c.heap, c.vec, err = heapPoints(c.pts)
	c.used = 0
	return err
}

func (c *stubCaller) invoke(e *env) error {
	if c.used == heapEvery {
		if err := c.freshHeap(); err != nil {
			return err
		}
	}
	c.used++
	tr := e.tr.Load()
	if tr != nil {
		c.cur = tr.begin(spFuseInvoke, 0, 0)
	}
	out, err := c.call.Invoke(c.heap, []jheap.Slot{jheap.RefSlot(c.vec)})
	if tr != nil {
		tr.end(c.cur)
	}
	if err != nil {
		return err
	}
	if len(out) != 1 {
		return fmt.Errorf("stub returned %d outputs, want the Line", len(out))
	}
	got, err := readLine(c.heap, out[0].R)
	if err != nil {
		return err
	}
	if got != c.want {
		return fmt.Errorf("fitter returned %v, want %v", got, c.want)
	}
	return nil
}

func seededPoints(r *rng) [][2]float32 {
	pts := make([][2]float32, fitterPoints)
	for i := range pts {
		pts[i] = [2]float32{float32(r.quarter()), float32(r.quarter())}
	}
	return pts
}

func setupLocalStub(e *env) (*instance, error) {
	// The fixed fixture first: the 64 points (i, i mod 17) must come back
	// as the hand-written Line in testdata.
	fixed := make([][2]float32, fitterPoints)
	for i := range fixed {
		fixed[i] = [2]float32{float32(i), float32(i % 17)}
	}
	probe, err := newStubCaller(e, fixed)
	if err != nil {
		return nil, err
	}
	if err := probe.invoke(e); err != nil {
		return nil, fmt.Errorf("fixed fixture: %w", err)
	}
	wantLine, err := testdataHex("line64.cdr.hex")
	if err != nil {
		return nil, err
	}
	if got := appendF32s(nil, probe.want[:]...); string(got) != string(wantLine) {
		return nil, fmt.Errorf("fixed fixture: Line encodes to %x, testdata has %x", got, wantLine)
	}

	d := newDigest()
	var cs [callers]*stubCaller
	for i := range cs {
		pts := seededPoints(newRNG(e.seed, fmt.Sprintf("local_stub/%d", i)))
		for _, p := range pts {
			d.floats(p[0], p[1])
		}
		if cs[i], err = newStubCaller(e, pts); err != nil {
			return nil, err
		}
	}
	inst := &instance{
		digest: d.sum(),
		close:  func() {},
		op: func(caller, _ int) (int, error) {
			return fitterPoints * 8, cs[caller].invoke(e)
		},
	}
	inst.layers = func(lt layerTimes, _ *tracer, m metricSet) {
		self, target := lt.median("fuse.invoke"), lt.median("target.fitter")
		m.set("fuse.self_ns", self, lt.ops)
		if op := medianF(lt.opDur); op > 0 {
			m.set("trace.attributed_share", (self+target)/op, lt.ops)
		}
	}
	inst.ladder = func(budget time.Duration, m metricSet) error {
		return localStubLadder(cs[0].pts, budget, m)
	}
	return inst, nil
}

// localStubLadder times, one caller, the fused stub against the paper's
// two reference points (hand-written and IDL-style bridges), then the
// general value-tree stub piece by piece.
func localStubLadder(pts [][2]float32, budget time.Duration, m metricSet) error {
	l := ladder{per: budget / 12, m: m}
	var heap *jheap.Heap
	var vec jheap.Ref
	calls := 0
	// reheap gives each rung's calls a bounded heap, like the workload.
	reheap := func() (err error) {
		if calls%heapEvery == 0 {
			heap, vec, err = heapPoints(pts)
		}
		calls++
		return err
	}
	timed := func(name string, fn func() error) (float64, error) {
		calls = 0
		ns, allocs, err := l.time(name, func() error {
			if err := reheap(); err != nil {
				return err
			}
			return fn()
		})
		if name == "fuse.call_ns" {
			m.set("fuse.call_allocs", allocs, 0)
		}
		return ns, err
	}

	sess, err := fitterSession()
	if err != nil {
		return err
	}
	jFn, err := sess.MethodDecl("java", "JavaIdeal", "fitter")
	if err != nil {
		return err
	}
	var compiles []float64
	var call *fuse.Call
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		if call, err = fuse.CompileFromSession(sess, "java", jFn, "c", "fitter", cmem.ILP32, cFitter); err != nil {
			return err
		}
		compiles = append(compiles, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m.set("fuse.compile_us", medianF(compiles), len(compiles))

	fused, err := timed("fuse.call_ns", func() error {
		_, err := call.Invoke(heap, []jheap.Slot{jheap.RefSlot(vec)})
		return err
	})
	if err != nil {
		return err
	}
	hand, err := timed("baseline.handwritten_ns", func() error {
		_, err := baseline.FitterHandWritten(heap, vec, cFitter)
		return err
	})
	if err != nil {
		return err
	}
	if _, err := timed("baseline.idl_ns", func() error {
		_, err := baseline.FitterViaIDL(heap, vec, cFitter)
		return err
	}); err != nil {
		return err
	}
	if hand > 0 {
		m.set("fuse.overhead_ratio", fused/hand, 0) // base: baseline.handwritten_ns
	}

	// The general stub: bind.J.Read → CallStub.Invoke → bind.J.Write. The
	// C target is the benchmark's, so the time inside it is known and the
	// conversion's share is the invoke minus the target.
	jU, cU := sess.Universe("java"), sess.Universe("c")
	method := jU.Lookup("JavaIdeal").Type.Methods[0]
	ptsDecl, lineDecl := method.Params[0].Type, method.Result
	jb, cb := bind.NewJ(jU), bind.NewC(cU, cmem.ILP32)
	cDecl := cU.Lookup("fitter")
	var targetNs atomic.Int64
	var cInput value.Value
	target := core.TargetFunc(func(in value.Value) (value.Value, error) {
		cInput = in
		t0 := time.Now()
		out, err := cb.Call(cDecl, cFitter, cmem.NewArena(), in)
		targetNs.Add(time.Since(t0).Nanoseconds())
		return out, err
	})
	var lineValue value.Value
	for _, eng := range []struct {
		engine        core.Engine
		stub, convert string
	}{
		{core.EngineCompiled, "core.stub_compiled_ns", "convert.closure_ns"},
		{core.EngineInterpreted, "core.stub_interp_ns", "convert.interp_ns"},
	} {
		stub, err := sess.NewCallStub("java", "JavaIdeal", "c", "fitter", eng.engine, target)
		if err != nil {
			return err
		}
		if _, err := timed(eng.stub, func() error {
			in, err := jb.Read(ptsDecl, heap, jheap.RefSlot(vec))
			if err != nil {
				return err
			}
			out, err := stub.Invoke(value.NewRecord(in))
			if err != nil {
				return err
			}
			lineValue = out.(value.Record).Fields[0]
			_, err = jb.Write(lineDecl, heap, lineValue)
			return err
		}); err != nil {
			return err
		}
		in, err := jb.Read(ptsDecl, heap, jheap.RefSlot(vec))
		if err != nil {
			return err
		}
		req := value.NewRecord(in)
		targetNs.Store(0)
		n := 0
		invoke, err := timed(eng.convert, func() error {
			n++
			_, err := stub.Invoke(req)
			return err
		})
		if err != nil {
			return err
		}
		// timed's calibration calls ran the target too; n counts them all.
		m.set(eng.convert, invoke-float64(targetNs.Load())/float64(n), n)
	}
	if _, err := timed("bind.j_read_ns", func() error {
		_, err := jb.Read(ptsDecl, heap, jheap.RefSlot(vec))
		return err
	}); err != nil {
		return err
	}
	if _, err := timed("bind.j_write_ns", func() error {
		_, err := jb.Write(lineDecl, heap, lineValue)
		return err
	}); err != nil {
		return err
	}
	_, err = timed("bind.c_call_ns", func() error {
		_, err := cb.Call(cDecl, cFitter, cmem.NewArena(), cInput)
		return err
	})
	return err
}
