// Benchmark harness: one benchmark per experiment in DESIGN.md §4.
// EXPERIMENTS.md records representative results and compares their shape
// with the paper's claims.
package repro_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bind"
	"repro/internal/broker"
	"repro/internal/cmem"
	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/fuse"
	"repro/internal/jheap"
	"repro/internal/mtype"
	"repro/internal/orb"
	"repro/internal/resil"
	"repro/internal/synth"
	"repro/internal/value"
	"repro/internal/wire"
)

// --- Shared fitter fixtures (Figures 1, 2, 5 + §3.4 annotations) ---

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
	fitterCScript = `
annotate fitter.start out nonnull
annotate fitter.end out nonnull
annotate fitter.pts length-from=count
`
	figure1JavaScript = `
annotate Line.start nonnull noalias
annotate Line.end nonnull noalias
annotate PointVector collection-of=Point element-nonnull
annotate JavaIdeal.fitter.pts nonnull
annotate JavaIdeal.fitter.return nonnull
`
)

func fitterSession(tb testing.TB) *core.Session {
	tb.Helper()
	s := core.NewSession()
	if err := s.LoadC("c", fitterC, cmem.ILP32); err != nil {
		tb.Fatal(err)
	}
	if err := s.LoadJava("java", figure1Java); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Annotate("c", fitterCScript); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Annotate("java", figure1JavaScript); err != nil {
		tb.Fatal(err)
	}
	return s
}

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

// appHeapPoints builds the Java application's PointVector in a heap.
func appHeapPoints(tb testing.TB, h *jheap.Heap, n int) jheap.Ref {
	tb.Helper()
	v := h.NewVector("PointVector")
	for i := 0; i < n; i++ {
		p := h.New("Point", 2)
		if err := h.SetField(p, 0, jheap.FloatSlot(float64(i))); err != nil {
			tb.Fatal(err)
		}
		if err := h.SetField(p, 1, jheap.FloatSlot(float64(i%17))); err != nil {
			tb.Fatal(err)
		}
		if err := h.VectorAppend(v, p); err != nil {
			tb.Fatal(err)
		}
	}
	return v
}

// ptsValue builds the abstract list-of-points value directly.
func ptsValue(n int) value.Value {
	elems := make([]value.Value, n)
	for i := range elems {
		elems[i] = value.NewRecord(value.Real{V: float64(i)}, value.Real{V: float64(i % 17)})
	}
	return value.FromSlice(elems)
}

// --- §6-perf: Mockingbird stub vs IDL baseline vs hand-written ---
//
// All variants start from the same application representation (a jheap
// PointVector of Points) and end with the same C implementation invoked
// on arena memory, producing a Java-side Line.

const benchPoints = 64

// BenchmarkOverheadMockingbird runs the full generated-stub path:
// Java-binding read → compiled coercion → C-binding call → coercion back
// → Java-binding write.
func BenchmarkOverheadMockingbird(b *testing.B) {
	for _, engine := range []struct {
		name string
		e    core.Engine
	}{{"compiled", core.EngineCompiled}, {"interpreted", core.EngineInterpreted}} {
		b.Run(engine.name, func(b *testing.B) {
			sess := fitterSession(b)
			binder := bind.NewC(sess.Universe("c"), cmem.ILP32)
			target := core.NewCTarget(binder, sess.Universe("c").Lookup("fitter"), cFitterImpl)
			stub, err := sess.NewCallStub("java", "JavaIdeal", "c", "fitter", engine.e, target)
			if err != nil {
				b.Fatal(err)
			}
			jbinder := bind.NewJ(sess.Universe("java"))
			heap := jheap.NewHeap()
			vec := appHeapPoints(b, heap, benchPoints)
			ptsDecl := sess.Universe("java").Lookup("JavaIdeal").Type.Methods[0].Params[0].Type
			lineDecl := sess.Universe("java").Lookup("JavaIdeal").Type.Methods[0].Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in, err := jbinder.Read(ptsDecl, heap, jheap.RefSlot(vec))
				if err != nil {
					b.Fatal(err)
				}
				out, err := stub.Invoke(value.NewRecord(in))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := jbinder.Write(lineDecl, heap, out.(value.Record).Fields[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOverheadFused runs the specialized stub: the coercion plan
// fused with both representation bindings (the execution model of the
// paper's generated JNI stubs) — heap slots to arena bytes directly, no
// value trees.
func BenchmarkOverheadFused(b *testing.B) {
	sess := fitterSession(b)
	jFn, err := sess.MethodDecl("java", "JavaIdeal", "fitter")
	if err != nil {
		b.Fatal(err)
	}
	call, err := fuse.CompileFromSession(sess, "java", jFn, "c", "fitter", cmem.ILP32, cFitterImpl)
	if err != nil {
		b.Fatal(err)
	}
	heap := jheap.NewHeap()
	vec := appHeapPoints(b, heap, benchPoints)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := call.Invoke(heap, []jheap.Slot{jheap.RefSlot(vec)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadIDLBaseline is the competing technology: imposed
// types, hand-written bridge code, fixed marshaling stub.
func BenchmarkOverheadIDLBaseline(b *testing.B) {
	heap := jheap.NewHeap()
	vec := appHeapPoints(b, heap, benchPoints)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.FitterViaIDL(heap, vec, cFitterImpl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadHandWritten is the lower bound: direct heap→arena
// conversion with no intermediate representation.
func BenchmarkOverheadHandWritten(b *testing.B) {
	heap := jheap.NewHeap()
	vec := appHeapPoints(b, heap, benchPoints)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.FitterHandWritten(heap, vec, cFitterImpl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvertOnly isolates the coercion itself (the §6 question is
// about conversion overhead, not the substrate bindings).
func BenchmarkConvertOnly(b *testing.B) {
	for _, engine := range []struct {
		name string
		e    core.Engine
	}{{"compiled", core.EngineCompiled}, {"interpreted", core.EngineInterpreted}} {
		b.Run(engine.name, func(b *testing.B) {
			sess := fitterSession(b)
			var captured value.Value
			target := core.TargetFunc(func(in value.Value) (value.Value, error) {
				captured = in
				return value.NewRecord(
					value.NewRecord(value.Real{V: 0}, value.Real{V: 0}),
					value.NewRecord(value.Real{V: 1}, value.Real{V: 1}),
				), nil
			})
			stub, err := sess.NewCallStub("java", "JavaIdeal", "c", "fitter", engine.e, target)
			if err != nil {
				b.Fatal(err)
			}
			in := value.NewRecord(ptsValue(benchPoints))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stub.Invoke(in); err != nil {
					b.Fatal(err)
				}
			}
			_ = captured
		})
	}
}

// BenchmarkStubCompilation measures the one-time cost of compiling a stub
// from a pair of declarations (compare + plan + closure compile).
func BenchmarkStubCompilation(b *testing.B) {
	sess := fitterSession(b)
	target := core.TargetFunc(func(in value.Value) (value.Value, error) { return value.Record{}, nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.NewCallStub("java", "JavaIdeal", "c", "fitter", core.EngineCompiled, target); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §6-net: network-enabled stubs ---

// BenchmarkFitterNetworkRoundtrip runs the full remote path: compiled
// stub, CDR marshaling, TCP round trip, unmarshal, coercion back.
func BenchmarkFitterNetworkRoundtrip(b *testing.B) {
	server := fitterSession(b)
	binder := bind.NewC(server.Universe("c"), cmem.ILP32)
	target := core.NewCTarget(binder, server.Universe("c").Lookup("fitter"), cFitterImpl)
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if err := server.ExportCall(srv, "fitter", "c", "fitter", target); err != nil {
		b.Fatal(err)
	}
	client := fitterSession(b)
	conn, err := orb.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	remote, err := client.NewRemoteTarget(conn, "fitter", "c", "fitter")
	if err != nil {
		b.Fatal(err)
	}
	stub, err := client.NewCallStub("java", "JavaIdeal", "c", "fitter", core.EngineCompiled, remote)
	if err != nil {
		b.Fatal(err)
	}
	in := value.NewRecord(ptsValue(benchPoints))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stub.Invoke(in); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §5-A: comparer scalability (the VisualAge investigation) ---

// BenchmarkComparerScaling compares every class pair of synthesized
// suites from the 12-class miniature toward the full 500-class system.
// steps/op reports comparison steps.
func BenchmarkComparerScaling(b *testing.B) {
	for _, n := range []int{12, 50, 100, 250, 500} {
		b.Run(fmt.Sprintf("classes=%d", n), func(b *testing.B) {
			cfg := synth.VisualAgeScaled(n)
			if n == 12 {
				cfg = synth.VisualAgeMiniature()
			}
			suite := synth.Generate(cfg)
			sess := core.NewSession()
			if err := sess.LoadJava("java", suite.JavaSource); err != nil {
				b.Fatal(err)
			}
			if err := sess.LoadIDL("idl", suite.IDLSource); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Annotate("java", suite.JavaScript); err != nil {
				b.Fatal(err)
			}
			names := append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...)
			b.ResetTimer()
			totalSteps := 0
			for i := 0; i < b.N; i++ {
				for _, name := range names {
					v, err := sess.Compare("java", name, "idl", name)
					if err != nil {
						b.Fatal(err)
					}
					if v.Relation != core.RelEquivalent {
						b.Fatalf("%s: %s", name, v.Relation)
					}
					totalSteps += v.Steps
				}
			}
			b.ReportMetric(float64(totalSteps)/float64(b.N), "steps/op")
		})
	}
}

// --- §5-B: batch annotation (Notes) ---

// BenchmarkNotesAnnotationScript measures applying the wildcard batch
// script to the 30-class API surface.
func BenchmarkNotesAnnotationScript(b *testing.B) {
	suite := synth.Generate(synth.NotesAPI())
	sess := core.NewSession()
	if err := sess.LoadJava("java", suite.JavaSource); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Annotate("java", suite.JavaScript); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §5-C: collaborative messaging throughput ---

// BenchmarkCollabSendReceive drives one-way messages through a compiled
// send stub and the orb, measuring messages end to end.
func BenchmarkCollabSendReceive(b *testing.B) {
	sess := core.NewSession()
	if err := sess.LoadJava("teamA", `class Edit { int row; int col; double v; long clock; }`); err != nil {
		b.Fatal(err)
	}
	if err := sess.LoadJava("teamB", `class Edit { long when; double val; int r; int c; }`); err != nil {
		b.Fatal(err)
	}
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	received := make(chan struct{}, 1024)
	sink := core.TargetFunc(func(v value.Value) (value.Value, error) {
		received <- struct{}{}
		return value.Record{}, nil
	})
	if err := sess.ExportMessageSink(srv, "edit", "teamB", "Edit", sink); err != nil {
		b.Fatal(err)
	}
	conn, err := orb.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	remote, err := sess.NewRemoteMessageTarget(conn, "edit", "teamB", "Edit")
	if err != nil {
		b.Fatal(err)
	}
	stub, err := sess.NewMessageStub("teamA", "Edit", "teamB", "Edit", core.EngineCompiled, remote)
	if err != nil {
		b.Fatal(err)
	}
	msg := value.NewRecord(value.NewInt(3), value.NewInt(7), value.Real{V: 1.5}, value.NewInt(42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stub.Send(msg); err != nil {
			b.Fatal(err)
		}
		<-received
	}
}

// --- Wire format ---

// BenchmarkWireMarshal measures CDR encoding/decoding of the fitter
// request at several sizes.
func BenchmarkWireMarshal(b *testing.B) {
	point := mtype.RecordOf(mtype.NewFloat32(), mtype.NewFloat32())
	req := mtype.NewRecord(mtype.Field{Name: "pts", Type: mtype.NewList(point)})
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("points=%d", n), func(b *testing.B) {
			v := value.NewRecord(ptsValue(n))
			enc := wire.NewEncoder(req)
			dec := wire.NewDecoder(req)
			data, err := enc.Marshal(v)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := enc.Marshal(v)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dec.Unmarshal(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations: what the isomorphism rules and the cache buy ---

// BenchmarkComparerAblation compares the fitter pair (and a failing
// variant) under reduced rule sets, reporting steps.
func BenchmarkComparerAblation(b *testing.B) {
	mkRules := map[string]func() compare.Rules{
		"default": compare.DefaultRules,
		"nocache": func() compare.Rules {
			r := compare.DefaultRules()
			r.Cache = false
			return r
		},
		"nounit": func() compare.Rules {
			r := compare.DefaultRules()
			r.UnitElimination = false
			return r
		},
	}
	for name, mk := range mkRules {
		b.Run(name, func(b *testing.B) {
			sess := fitterSession(b)
			sess.SetRules(mk())
			mtA, err := sess.Mtype("java", "JavaIdeal")
			if err != nil {
				b.Fatal(err)
			}
			mtB, err := sess.Mtype("c", "fitter")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			steps := 0
			for i := 0; i < b.N; i++ {
				c := compare.NewComparer(mk())
				if _, ok := c.Equivalent(mtA, mtB); !ok {
					b.Fatal("fitter pair must match under these rules")
				}
				steps += c.Steps()
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
	// The rules that make the match possible at all: measure the cost of
	// discovering failure without them.
	for name, mk := range map[string]func() compare.Rules{
		"noassoc-fails": func() compare.Rules {
			r := compare.DefaultRules()
			r.Associativity = false
			return r
		},
		"nocomm-fails": func() compare.Rules {
			r := compare.DefaultRules()
			r.Commutativity = false
			return r
		},
	} {
		b.Run(name, func(b *testing.B) {
			suite := synth.Generate(synth.VisualAgeMiniature())
			sess := core.NewSession()
			if err := sess.LoadJava("java", suite.JavaSource); err != nil {
				b.Fatal(err)
			}
			if err := sess.LoadIDL("idl", suite.IDLSource); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Annotate("java", suite.JavaScript); err != nil {
				b.Fatal(err)
			}
			sess.SetRules(mk())
			names := append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matched := 0
				for _, name := range names {
					v, err := sess.Compare("java", name, "idl", name)
					if err != nil {
						b.Fatal(err)
					}
					if v.Relation == core.RelEquivalent {
						matched++
					}
				}
				if matched == len(names) {
					b.Fatal("ablated rules should not match the full shuffled suite")
				}
			}
		})
	}
}

// --- Figure 8: recursive list comparison ---

// BenchmarkRecursiveListCompare measures coinductive equivalence on the
// Figure 8 cyclic graphs (fresh comparer each time: the cycle is the
// point).
func BenchmarkRecursiveListCompare(b *testing.B) {
	a := mtype.NewList(mtype.RecordOf(mtype.NewFloat32(), mtype.NewFloat32()))
	c2 := mtype.NewList(mtype.RecordOf(mtype.NewFloat32(), mtype.NewFloat32()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := compare.NewComparer(compare.DefaultRules())
		if _, ok := c.Equivalent(a, c2); !ok {
			b.Fatal("lists must match")
		}
	}
}

// --- Broker cache: cold vs warm compare (DESIGN.md broker subsystem) ---

// brokerSynthSrc is a moderately large C suite so the cold path (lower +
// structural compare) has real work to amortize.
func brokerSynthSrc(fields int) (a, b string) {
	var sa, sb strings.Builder
	kinds := []string{"int", "float", "short", "double"}
	sa.WriteString("typedef struct {\n")
	sb.WriteString("typedef struct {\n")
	for i := 0; i < fields; i++ {
		fmt.Fprintf(&sa, "  %s f%d;\n", kinds[i%len(kinds)], i)
		fmt.Fprintf(&sb, "  %s g%d;\n", kinds[i%len(kinds)], i)
	}
	sa.WriteString("} big;\n")
	sb.WriteString("} big;\n")
	return sa.String(), sb.String()
}

// BenchmarkBrokerCachedCompare measures the broker's verdict cache:
// "cold" pays lowering, fingerprinting, and the full structural
// comparison on a fresh broker each iteration; "warm" repeats the same
// compare against one broker and is a fingerprint-memo lookup plus an
// LRU hit.
func BenchmarkBrokerCachedCompare(b *testing.B) {
	srcA, srcB := brokerSynthSrc(400)
	load := func(tb testing.TB) *broker.Broker {
		br := broker.New(core.NewSession(), broker.Options{})
		if _, _, err := br.Load("a", "c", "ilp32", srcA, ""); err != nil {
			tb.Fatal(err)
		}
		if _, _, err := br.Load("b", "c", "ilp32", srcB, ""); err != nil {
			tb.Fatal(err)
		}
		return br
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			br := load(b)
			v, err := br.Compare("a", "big", "b", "big")
			if err != nil || v.Relation != core.RelEquivalent || v.Cached {
				b.Fatalf("verdict = %+v err=%v", v, err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		br := load(b)
		if _, err := br.Compare("a", "big", "b", "big"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := br.Compare("a", "big", "b", "big")
			if err != nil || !v.Cached {
				b.Fatalf("verdict = %+v err=%v", v, err)
			}
		}
	})
}

// --- Resilient transport: pooled connections vs per-call dials ---

// BenchmarkPooledVsFreshDial measures what the resil pool buys over the
// naive remote-client pattern of dialing a fresh orb connection per
// call: "fresh" pays TCP setup and teardown every iteration, "pooled"
// reuses one warm connection through the resil client.
func BenchmarkPooledVsFreshDial(b *testing.B) {
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return body, nil })
	body := []byte("sixteen byte load")

	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := orb.Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.Invoke("echo", 0, body); err != nil {
				b.Fatal(err)
			}
			_ = c.Close()
		}
	})

	b.Run("pooled", func(b *testing.B) {
		c := resil.New(srv.Addr(), resil.Options{})
		defer c.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.InvokeContext(context.Background(), "echo", 0, body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
