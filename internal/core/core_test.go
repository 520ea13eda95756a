package core

import (
	"strings"
	"testing"

	"repro/internal/bind"
	"repro/internal/cmem"
	"repro/internal/compare"
	"repro/internal/mtype"
	"repro/internal/orb"
	"repro/internal/value"
)

// The Figure 1/2/5 declarations, verbatim from the paper.
const (
	fitterC = `
typedef float point[2];
void fitter(point pts[], int count, point *start, point *end);
`
	figure1Java = `
public class Point {
    public Point(float x, float y) { this.x = x; this.y = y; }
    private float x;
    private float y;
}
public class Line {
    public Line(Point s, Point e) { start = s; end = e; }
    private Point start;
    private Point end;
}
public class PointVector extends java.util.Vector;
public interface JavaIdeal {
    Line fitter(PointVector pts);
}
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

// fitterSession loads and annotates both sides of the §2 example.
func fitterSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession()
	if err := s.LoadC("c", fitterC, cmem.ILP32); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadJava("java", figure1Java); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Annotate("c", fitterCScript); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Annotate("java", figure1JavaScript); err != nil {
		t.Fatal(err)
	}
	return s
}

// cFitterImpl fits the bounding-box diagonal, reading raw arena memory as
// compiled C would.
func cFitterImpl(mem *cmem.Arena, args []uint64) (uint64, error) {
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
	for _, w := range []struct {
		at cmem.Addr
		v  float32
	}{{start, minX}, {start + 4, minY}, {end, maxX}, {end + 4, maxY}} {
		if err := mem.WriteF32(w.at, w.v); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// pointsValue builds the Java-side pts list value.
func pointsValue(coords ...float64) value.Value {
	var elems []value.Value
	for i := 0; i+1 < len(coords); i += 2 {
		elems = append(elems, value.NewRecord(value.Real{V: coords[i]}, value.Real{V: coords[i+1]}))
	}
	return value.FromSlice(elems)
}

// TestPipelineFigure6 runs the paper's whole pipeline: parse both
// declarations, annotate, compare (equivalent), generate a stub, and call
// the C fitter from the Java side, getting a Line back.
func TestPipelineFigure6(t *testing.T) {
	s := fitterSession(t)

	verdict, err := s.Compare("java", "JavaIdeal", "c", "fitter")
	if err != nil {
		t.Fatal(err)
	}
	if verdict.Relation != RelEquivalent {
		t.Fatalf("relation = %s; %s", verdict.Relation, verdict.Explain)
	}

	binder := bind.NewC(s.Universe("c"), cmem.ILP32)
	target := NewCTarget(binder, s.Universe("c").Lookup("fitter"), cFitterImpl)

	for _, engine := range []Engine{EngineCompiled, EngineInterpreted} {
		stub, err := s.NewCallStub("java", "JavaIdeal", "c", "fitter", engine, target)
		if err != nil {
			t.Fatal(err)
		}
		out, err := stub.Invoke(value.NewRecord(pointsValue(1, 5, 3, 2, 2, 7)))
		if err != nil {
			t.Fatal(err)
		}
		// Java-side outputs: Record(Line) with Line = Record(start, end).
		rec, ok := out.(value.Record)
		if !ok || len(rec.Fields) != 1 {
			t.Fatalf("outputs = %s", out)
		}
		line, ok := rec.Fields[0].(value.Record)
		if !ok || len(line.Fields) != 2 {
			t.Fatalf("line = %s", rec.Fields[0])
		}
		wantStart := value.NewRecord(value.Real{V: 1}, value.Real{V: 2})
		wantEnd := value.NewRecord(value.Real{V: 3}, value.Real{V: 7})
		if !value.Equal(line.Fields[0], wantStart) || !value.Equal(line.Fields[1], wantEnd) {
			t.Errorf("engine %d: line = %s", engine, line)
		}
	}
}

// TestSection34MtypeString reproduces the §3.4 Mtype rendering for both
// declarations.
func TestSection34MtypeString(t *testing.T) {
	s := fitterSession(t)
	cTy, err := s.Mtype("c", "fitter")
	if err != nil {
		t.Fatal(err)
	}
	jTy, err := s.Mtype("java", "JavaIdeal")
	if err != nil {
		t.Fatal(err)
	}
	for _, rendered := range []string{cTy.String(), jTy.String()} {
		if !strings.HasPrefix(rendered, "port(record(μL1.choice(unit, record(record(real(24,8), real(24,8)), L1))") {
			t.Errorf("Mtype = %s", rendered)
		}
	}
}

// TestFitterOverNetwork runs the same pair as a network-enabled stub:
// the C side is exported on an orb server, the Java side invokes through
// a remote target with CDR marshaling in between.
func TestFitterOverNetwork(t *testing.T) {
	server := fitterSession(t)
	binder := bind.NewC(server.Universe("c"), cmem.ILP32)
	target := NewCTarget(binder, server.Universe("c").Lookup("fitter"), cFitterImpl)

	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := server.ExportCall(srv, "fitter", "c", "fitter", target); err != nil {
		t.Fatal(err)
	}

	client := fitterSession(t)
	conn, err := orb.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	remote, err := client.NewRemoteTarget(conn, "fitter", "c", "fitter")
	if err != nil {
		t.Fatal(err)
	}
	stub, err := client.NewCallStub("java", "JavaIdeal", "c", "fitter", EngineCompiled, remote)
	if err != nil {
		t.Fatal(err)
	}
	out, err := stub.Invoke(value.NewRecord(pointsValue(0, 0, 10, 10, 5, -3)))
	if err != nil {
		t.Fatal(err)
	}
	line := out.(value.Record).Fields[0].(value.Record)
	wantStart := value.NewRecord(value.Real{V: 0}, value.Real{V: -3})
	wantEnd := value.NewRecord(value.Real{V: 10}, value.Real{V: 10})
	if !value.Equal(line.Fields[0], wantStart) || !value.Equal(line.Fields[1], wantEnd) {
		t.Errorf("line = %s", line)
	}
}

// TestCompareWithIDL checks the Figure 3 interoperation path: both the
// C-friendly and Java-friendly IDLs match the Java ideal declaration.
func TestCompareWithIDL(t *testing.T) {
	s := fitterSession(t)
	const figure3a = `
interface JavaFriendly {
  struct Point { float x; float y; };
  struct Line { Point start; Point end; };
  typedef sequence<Point> PointVector;
  Line fitter(in PointVector pts);
};
`
	const figure3b = `
interface CFriendly {
  typedef float Point[2];
  typedef sequence<Point> pointseq;
  void fitter(in pointseq pts, in long count,
              out Point start, out Point end);
};
`
	if err := s.LoadIDL("idlJ", figure3a); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadIDL("idlC", figure3b); err != nil {
		t.Fatal(err)
	}
	// The C-friendly IDL passes a redundant count; consume it as the
	// sequence length so the shapes agree.
	if _, err := s.Annotate("idlC", "annotate CFriendly.fitter.pts length-from=count"); err != nil {
		t.Fatal(err)
	}

	v, err := s.Compare("java", "JavaIdeal", "idlJ", "JavaFriendly")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation != RelEquivalent {
		t.Errorf("JavaIdeal vs JavaFriendly: %s\n%s", v.Relation, v.Explain)
	}
	v, err = s.Compare("c", "fitter", "idlC", "CFriendly")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation != RelEquivalent {
		t.Errorf("fitter vs CFriendly: %s\n%s", v.Relation, v.Explain)
	}
	v, err = s.Compare("java", "JavaIdeal", "idlC", "CFriendly")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation != RelEquivalent {
		t.Errorf("JavaIdeal vs CFriendly: %s\n%s", v.Relation, v.Explain)
	}
}

func TestCompareMismatchExplains(t *testing.T) {
	s := NewSession()
	if err := s.LoadC("c", `void f(int x);`, cmem.ILP32); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadJava("java", `interface I { void f(double x); }`); err != nil {
		t.Fatal(err)
	}
	v, err := s.Compare("c", "f", "java", "I")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation != RelNone {
		t.Fatalf("relation = %s", v.Relation)
	}
	if v.Explain == "" || v.Explain == "no mismatch recorded" {
		t.Errorf("Explain = %q", v.Explain)
	}
}

// TestCompareUnboundRecursive: the RelNone path asks the comparer to
// explain itself, which used to dereference the nil an unbound μ unfolds
// to. Lowering never hands one out, so the test enters below it.
func TestCompareUnboundRecursive(t *testing.T) {
	v := NewSession().compareMtypes(mtype.NewRecursive(), mtype.Unit())
	if v.Relation != RelNone || v.Match != nil || v.Explain != "no mismatch recorded" {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestSubtypeVerdict(t *testing.T) {
	s := NewSession()
	if err := s.LoadC("a", `struct S { signed char v; };`, cmem.ILP32); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadC("b", `struct S { int v; };`, cmem.ILP32); err != nil {
		t.Fatal(err)
	}
	v, err := s.Compare("a", "S", "b", "S")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation != RelSubtypeAB {
		t.Errorf("relation = %s, want subtype", v.Relation)
	}
	v, err = s.Compare("b", "S", "a", "S")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation != RelSubtypeBA {
		t.Errorf("relation = %s, want supertype", v.Relation)
	}
}

func TestSessionErrors(t *testing.T) {
	s := NewSession()
	if err := s.LoadC("c", `void f(int x);`, cmem.ILP32); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadC("c", `void g(int x);`, cmem.ILP32); err == nil {
		t.Error("duplicate universe accepted")
	}
	if err := s.LoadC("", `void g(int x);`, cmem.ILP32); err == nil {
		t.Error("empty universe name accepted")
	}
	if _, err := s.Mtype("ghost", "f"); err == nil {
		t.Error("unknown universe accepted")
	}
	if _, err := s.Annotate("ghost", ""); err == nil {
		t.Error("annotate on unknown universe accepted")
	}
	if _, err := s.Compare("c", "ghost", "c", "f"); err == nil {
		t.Error("unknown decl accepted")
	}
	if err := s.LoadC("bad", `void f(`, cmem.ILP32); err == nil {
		t.Error("syntax error accepted")
	}
}

func TestDeclNames(t *testing.T) {
	s := fitterSession(t)
	names, err := s.DeclNames("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "fitter" || names[1] != "point" {
		t.Errorf("names = %v", names)
	}
}

func TestMethodDecl(t *testing.T) {
	s := fitterSession(t)
	name, err := s.MethodDecl("java", "JavaIdeal", "fitter")
	if err != nil {
		t.Fatal(err)
	}
	if name != "JavaIdeal::fitter" {
		t.Errorf("name = %q", name)
	}
	// Idempotent.
	again, err := s.MethodDecl("java", "JavaIdeal", "fitter")
	if err != nil || again != name {
		t.Errorf("second call = %q, %v", again, err)
	}
	// The synthesized function compares like the interface itself.
	v, err := s.Compare("java", name, "c", "fitter")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation != RelEquivalent {
		t.Errorf("relation = %s", v.Relation)
	}
	if _, err := s.MethodDecl("java", "JavaIdeal", "nosuch"); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestMessageStubLocal(t *testing.T) {
	s := NewSession()
	if err := s.LoadJava("java", `
		class ChatMsg { int seq; double ts; }
	`); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadC("c", `
		struct chat_msg { int seq; double ts; };
		struct chat_msg2 { double ts; int seq; };
	`, cmem.ILP32); err != nil {
		t.Fatal(err)
	}
	var received value.Value
	sink := TargetFunc(func(v value.Value) (value.Value, error) {
		received = v
		return value.Record{}, nil
	})
	stub, err := s.NewMessageStub("java", "ChatMsg", "c", "chat_msg2", EngineCompiled, sink)
	if err != nil {
		t.Fatal(err)
	}
	msg := value.NewRecord(value.NewInt(7), value.Real{V: 1.25})
	if err := stub.Send(msg); err != nil {
		t.Fatal(err)
	}
	// Fields commuted into the C declaration order.
	want := value.NewRecord(value.Real{V: 1.25}, value.NewInt(7))
	if !value.Equal(received, want) {
		t.Errorf("received = %s, want %s", received, want)
	}
}

func TestMessageOverNetwork(t *testing.T) {
	s := NewSession()
	if err := s.LoadJava("java", `class Ping { int seq; }`); err != nil {
		t.Fatal(err)
	}
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got := make(chan value.Value, 1)
	sink := TargetFunc(func(v value.Value) (value.Value, error) {
		got <- v
		return value.Record{}, nil
	})
	if err := s.ExportMessageSink(srv, "ping", "java", "Ping", sink); err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sender, err := s.NewRemoteMessageTarget(conn, "ping", "java", "Ping")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Invoke(value.NewRecord(value.NewInt(3))); err != nil {
		t.Fatal(err)
	}
	v := <-got
	if !value.Equal(v, value.NewRecord(value.NewInt(3))) {
		t.Errorf("received = %s", v)
	}
}

func TestRulesAffectSession(t *testing.T) {
	s := fitterSession(t)
	raw := compare.Rules{Cache: true} // no isomorphism rules
	s.SetRules(raw)
	v, err := s.Compare("java", "JavaIdeal", "c", "fitter")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation == RelEquivalent {
		t.Error("fitter pair matched without associativity — ablation broken")
	}
	s.SetRules(compare.DefaultRules())
	v, err = s.Compare("java", "JavaIdeal", "c", "fitter")
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation != RelEquivalent {
		t.Error("default rules no longer match")
	}
}

// TestLoadSourceNames: LoadSource reads a language through stype.Lang's
// text form and a data model through cmem.ParseModel, for every
// language; "" is ILP32, and a model it does not know ("LP64", "lp46")
// is an error, not ILP32 in silence.
func TestLoadSourceNames(t *testing.T) {
	srcs := map[string]string{"c": "typedef long L;", "java": "class L { long x; }"}
	for _, c := range []struct {
		model    string
		longBits string // the C long's range under the model, "" for an error
	}{
		{"", "-2147483648..2147483647"},
		{"ilp32", "-2147483648..2147483647"},
		{"lp64", "-9223372036854775808..9223372036854775807"},
		{"LP64", ""},
		{"lp46", ""},
	} {
		for _, lang := range []string{"c", "java"} {
			s := NewSession()
			err := s.LoadSource("u", lang, c.model, srcs[lang])
			if (err != nil) != (c.longBits == "") {
				t.Errorf("%s under model %q: %v", lang, c.model, err)
				continue
			}
			if err != nil {
				if !strings.Contains(err.Error(), "unknown C data model") {
					t.Errorf("%s under model %q: %v", lang, c.model, err)
				}
				continue
			}
			if lang != "c" {
				continue
			}
			m, err := s.Mtype("u", "L")
			if err != nil || !strings.Contains(m.String(), c.longBits) {
				t.Errorf("C long under model %q: %v, %v; want %s", c.model, m, err, c.longBits)
			}
		}
	}
	if err := NewSession().LoadSource("u", "cobol", "", ""); err == nil || err.Error() != `unknown language "cobol"` {
		t.Errorf("LoadSource of cobol: %v", err)
	}
}
