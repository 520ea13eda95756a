package fuse

import (
	"math"
	"testing"

	"repro/internal/cmem"
	"repro/internal/core"
)

// pair is one Java↔C declaration pair with a C implementation: the
// fixture every table in this package's tests is written over.
type pair struct {
	name             string
	c, java          string
	cScript, jScript string
	iface, method    string
	cfn              string
	impl             func(mem *cmem.Arena, args []uint64) (uint64, error)
}

// session loads and annotates both sides and synthesizes the method
// declaration; it returns the session and the Java declaration's name.
func (p pair) session(t testing.TB, model cmem.Model) (*core.Session, string) {
	t.Helper()
	s := core.NewSession()
	if err := s.LoadC("c", p.c, model); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadJava("java", p.java); err != nil {
		t.Fatal(err)
	}
	for universe, script := range map[string]string{"c": p.cScript, "java": p.jScript} {
		if script == "" {
			continue
		}
		if _, err := s.Annotate(universe, script); err != nil {
			t.Fatal(err)
		}
	}
	jFn, err := s.MethodDecl("java", p.iface, p.method)
	if err != nil {
		t.Fatal(err)
	}
	return s, jFn
}

// compile builds the fused stub for the pair.
func (p pair) compile(t testing.TB, model cmem.Model) (*core.Session, string, *Call) {
	t.Helper()
	s, jFn := p.session(t, model)
	call, err := CompileFromSession(s, "java", jFn, "c", p.cfn, model, p.impl)
	if err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	return s, jFn, call
}

func f32(w uint64) float32 { return math.Float32frombits(uint32(w)) }

// The pairs every tier must agree on. The C implementations are total
// functions of their inputs, so random arguments are fair game.
var (
	fitterPair = pair{name: "fitter", c: fitterC, java: figure1Java, cScript: cScript, jScript: jScript,
		iface: "JavaIdeal", method: "fitter", cfn: "fitter", impl: cFitterImpl}

	// A vector of integer-carrying elements; struct cell is tag@0, w@8,
	// size 16 under both models.
	totalPair = pair{name: "total",
		c: `struct cell { int tag; double w; };
		    double total(struct cell xs[], int n);`,
		cScript: "annotate total.xs length-from=n",
		java: `class Cell { int tag; double w; }
		       class Cells extends java.util.Vector;
		       interface I { double total(Cells xs); }`,
		jScript: "annotate Cells collection-of=Cell element-nonnull\nannotate I.total.xs nonnull",
		iface:   "I", method: "total", cfn: "total",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) {
			base, n, sum := cmem.Addr(args[0]), int(int32(args[1])), 0.0
			for i := 0; i < n; i++ {
				w, err := mem.ReadF64(base + cmem.Addr(16*i+8))
				if err != nil {
					return 0, err
				}
				tag, err := mem.ReadI(base+cmem.Addr(16*i), 4)
				if err != nil {
					return 0, err
				}
				sum += w * float64(tag)
			}
			return math.Float64bits(sum), nil
		}}

	// Java char is UCS-2, C char Latin-1: the §3.1 repertoire annotation
	// widens the C side so the return types match.
	gradePair = pair{name: "grade",
		c: `char grade(int score);`, cScript: "annotate grade.return repertoire=ucs2",
		java:  `interface I { char grade(int score); }`,
		iface: "I", method: "grade", cfn: "grade",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) {
			if int32(args[0]) >= 90 {
				return 'A', nil
			}
			return 'B', nil
		}}

	scalePair = pair{name: "scale",
		c: `float scale(float x, int k);`, java: `interface I { float scale(float x, int k); }`,
		iface: "I", method: "scale", cfn: "scale",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) {
			return uint64(math.Float32bits(f32(args[0]) * float32(int32(args[1])))), nil
		}}

	// A non-null pointer-to-struct input parameter.
	norm1Pair = pair{name: "norm1",
		c: `struct Pt { float x; float y; };
		    float norm1(struct Pt *p);`,
		cScript: "annotate norm1.p nonnull",
		java: `class Point { float x; float y; }
		       interface I { float norm1(Point p); }`,
		jScript: "annotate I.norm1.p nonnull noalias",
		iface:   "I", method: "norm1", cfn: "norm1",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) {
			x, err := mem.ReadF32(cmem.Addr(args[0]))
			if err != nil {
				return 0, err
			}
			y, err := mem.ReadF32(cmem.Addr(args[0]) + 4)
			if err != nil {
				return 0, err
			}
			return uint64(math.Float32bits(float32(math.Abs(float64(x)) + math.Abs(float64(y))))), nil
		}}

	// The three signedness rows: an unsigned return word, an unsigned
	// field of an out struct, and a C char above 0x7f in the return word.
	levelPair = pair{name: "level",
		c: `unsigned char level(int x);`, java: `interface I { int level(int x); }`,
		jScript: "annotate I.level.return range=0..255",
		iface:   "I", method: "level", cfn: "level",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) { return uint64(uint8(args[0])), nil }}

	gaugePair = pair{name: "gauge",
		c: `struct G { unsigned short v; int w; };
		    void gauge(int seed, struct G *out);`,
		cScript: "annotate gauge.out out nonnull",
		java: `class G { int v; int w; }
		       interface I { G gauge(int seed); }`,
		jScript: "annotate G.v range=0..65535\nannotate I.gauge.return nonnull",
		iface:   "I", method: "gauge", cfn: "gauge",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) {
			if err := mem.WriteU(cmem.Addr(args[1]), 2, uint64(uint16(args[0]))); err != nil {
				return 0, err
			}
			return 0, mem.WriteU(cmem.Addr(args[1])+4, 4, args[0])
		}}

	symPair = pair{name: "sym",
		c: `char sym(int x);`, cScript: "annotate sym.return repertoire=ucs2",
		java:  `interface I { char sym(int x); }`,
		iface: "I", method: "sym", cfn: "sym",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) { return uint64(uint8(args[0])), nil }}
)

// Pairs beyond the golden transcript: the shapes the move list must carry
// with no construct-specific code.
var (
	// A non-null pointer inside an out struct: the reply derefs it.
	unboxPair = pair{name: "unbox",
		c: `struct Box { int *p; };
		    void unbox(int seed, struct Box *out);`,
		cScript: "annotate unbox.out out nonnull\nannotate Box.p nonnull",
		java: `class IntBox { int v; }
		       class Box { IntBox p; }
		       interface I { Box unbox(int seed); }`,
		jScript: "annotate Box.p nonnull noalias\nannotate I.unbox.return nonnull",
		iface:   "I", method: "unbox", cfn: "unbox",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) {
			at := mem.Alloc(4, 4)
			if err := mem.WriteU(at, 4, args[0]*3); err != nil {
				return 0, err
			}
			return 0, mem.WritePtr(cmem.Addr(args[1]), cmem.ILP32, at)
		}}

	// The same inside an input struct: the request allocates the pointee.
	weighPair = pair{name: "weigh",
		c: `struct Box { int *p; short tag; };
		    int weigh(struct Box *b);`,
		cScript: "annotate weigh.b nonnull\nannotate Box.p nonnull",
		java: `class IntBox { int v; }
		       class Box { IntBox p; short tag; }
		       interface I { int weigh(Box b); }`,
		jScript: "annotate Box.p nonnull noalias\nannotate I.weigh.b nonnull noalias",
		iface:   "I", method: "weigh", cfn: "weigh",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) {
			p, err := mem.ReadPtr(cmem.Addr(args[0]), cmem.ILP32)
			if err != nil {
				return 0, err
			}
			v, err := mem.ReadI(p, 4)
			if err != nil {
				return 0, err
			}
			tag, err := mem.ReadI(cmem.Addr(args[0])+4, 2)
			return uint64(int32(v) ^ int32(tag)), err
		}}

	pokePair = pair{name: "poke",
		c: `void poke(int x);`, java: `interface I { void poke(int x); }`,
		iface: "I", method: "poke", cfn: "poke",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) { return 0, nil }}

	// Associativity across parameters: two Java objects feed four C words.
	distPair = pair{name: "dist",
		c: `float dist(float ax, float ay, float bx, float by);`,
		java: `class Point { float x; float y; }
		       interface I { float dist(Point a, Point b); }`,
		jScript: "annotate I.dist.a nonnull noalias\nannotate I.dist.b nonnull noalias",
		iface:   "I", method: "dist", cfn: "dist",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) {
			return uint64(math.Float32bits(f32(args[0]) - f32(args[2]) + 2*(f32(args[1])-f32(args[3])))), nil
		}}

	// Commutativity: the plan's permutation reorders the fields.
	mixPair = pair{name: "mix",
		c: `struct rec { double w; int tag; char c; };
		    double mix(struct rec *r);`,
		cScript: "annotate mix.r nonnull\nannotate rec.c repertoire=ucs2",
		java: `class Rec { char c; int tag; double w; }
		       interface I { double mix(Rec r); }`,
		jScript: "annotate I.mix.r nonnull noalias",
		iface:   "I", method: "mix", cfn: "mix",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) {
			at := cmem.Addr(args[0])
			w, err := mem.ReadF64(at)
			if err != nil {
				return 0, err
			}
			tag, err := mem.ReadI(at+8, 4)
			if err != nil {
				return 0, err
			}
			c, err := mem.ReadU(at+12, 1)
			return math.Float64bits(w*float64(tag) + float64(c)), err
		}}

	// A pointer annotated with a static length is a fixed array.
	spanPair = pair{name: "span",
		c: `float span(float *v);`, cScript: "annotate span.v length=3",
		java: `class V3 { float a; float b; float c; }
		       interface I { float span(V3 v); }`,
		jScript: "annotate I.span.v nonnull noalias",
		iface:   "I", method: "span", cfn: "span",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) {
			var v [3]float32
			for i := range v {
				f, err := mem.ReadF32(cmem.Addr(args[0]) + cmem.Addr(4*i))
				if err != nil {
					return 0, err
				}
				v[i] = f
			}
			return uint64(math.Float32bits(v[0] - 2*v[1] + 4*v[2])), nil
		}}

	// An ignored Java field shifts field indices against Mtype paths.
	skipPair = pair{name: "skip", c: totalPair.c, cScript: totalPair.cScript,
		java: `class Cell { int junk; int tag; double w; }
		       class Cells extends java.util.Vector;
		       interface I { double total(Cells xs); }`,
		jScript: totalPair.jScript + "\nannotate Cell.junk ignore",
		iface:   "I", method: "total", cfn: "total", impl: totalPair.impl}

	// Every integral width in argument words, unsigned included.
	widthsPair = pair{name: "widths",
		c:       `long long widths(short a, signed char b, long long c, unsigned int d);`,
		java:    `interface I { long widths(short a, byte b, long c, long d); }`,
		jScript: "annotate I.widths.d range=0..4294967295",
		iface:   "I", method: "widths", cfn: "widths",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) {
			return uint64(int64(int16(args[0]))*3 + int64(int8(args[1]))*5 + int64(args[2]) + int64(uint32(args[3]))), nil
		}}

	// bind.J's leniency: a char declared an integer and an int declared a
	// character take an integral or a character slot alike.
	codePair = pair{name: "code",
		c: `int code(unsigned short a, unsigned short b);`, cScript: "annotate code.b char",
		java:    `interface I { int code(char a, int b); }`,
		jScript: "annotate I.code.a int\nannotate I.code.b char repertoire=ucs2",
		iface:   "I", method: "code", cfn: "code",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) {
			return uint64(uint16(args[0]))<<8 ^ uint64(uint16(args[1])), nil
		}}

	// A list whose elements hold a pointer, after a struct parameter: every
	// element allocates its pointee while the array's window, and the
	// struct's before it, are live.
	cratesPair = pair{name: "crates",
		c: `struct Box { int *p; short tag; };
		    int crates(struct Box *first, struct Box xs[], int n);`,
		cScript: "annotate crates.first nonnull\nannotate crates.xs length-from=n\nannotate Box.p nonnull",
		java: `class IntBox { int v; }
		       class Box { IntBox p; short tag; }
		       class Boxes extends java.util.Vector;
		       interface I { int crates(Box first, Boxes xs); }`,
		jScript: "annotate Box.p nonnull noalias\nannotate Boxes collection-of=Box element-nonnull\n" +
			"annotate I.crates.first nonnull noalias\nannotate I.crates.xs nonnull",
		iface: "I", method: "crates", cfn: "crates",
		impl: func(mem *cmem.Arena, args []uint64) (uint64, error) {
			sum, err := weighPair.impl(mem, args[:1])
			for i := 0; i < int(int32(args[2])) && err == nil; i++ {
				var w uint64
				w, err = weighPair.impl(mem, []uint64{args[1] + uint64(8*i)})
				sum = sum*31 + w
			}
			return uint64(int32(sum)), err
		}}
)

// hashBytes is a C function of one list parameter of stride-byte
// elements: an FNV-1a hash of every byte of the array, padding included,
// so that a byte one tier writes differently from another, or that an
// earlier call left behind, changes the answer.
func hashBytes(stride int) func(mem *cmem.Arena, args []uint64) (uint64, error) {
	return func(mem *cmem.Arena, args []uint64) (uint64, error) {
		base, n, h := cmem.Addr(args[0]), int(int32(args[1])), uint64(14695981039346656037)
		for i := 0; i < n*stride; i++ {
			b, err := mem.ReadU(base+cmem.Addr(i), 1)
			if err != nil {
				return 0, err
			}
			h = (h ^ b) * 1099511628211
		}
		return h, nil
	}
}

// The list-kind pairs: lists whose flat elements hold, between them,
// every conversion a run of an element table carries. Each struct lays
// out the same under both data models.
var (
	// Signed integers of every width; struct si is a@0, b@2, c@4, d@8.
	signedPair = pair{name: "signed",
		c: `struct si { signed char a; short b; int c; long long d; };
		    long long signedSum(struct si xs[], int n);`,
		cScript: "annotate signedSum.xs length-from=n",
		java: `class SI { byte a; short b; int c; long d; }
		       class SIs extends java.util.Vector;
		       interface I { long signedSum(SIs xs); }`,
		jScript: "annotate SIs collection-of=SI element-nonnull\nannotate I.signedSum.xs nonnull",
		iface:   "I", method: "signedSum", cfn: "signedSum", impl: hashBytes(16)}

	// Unsigned integers of every width, each read as the Java integer its
	// range fits; the 64-bit one holds the range both languages share.
	unsignedPair = pair{name: "unsigned",
		c: `struct ui { unsigned char a; unsigned short b; unsigned int c; unsigned long long d; };
		    long long unsignedSum(struct ui xs[], int n);`,
		cScript: "annotate unsignedSum.xs length-from=n\nannotate ui.d range=0..9223372036854775807",
		java: `class UI { short a; int b; long c; long d; }
		       class UIs extends java.util.Vector;
		       interface I { long unsignedSum(UIs xs); }`,
		jScript: "annotate UIs collection-of=UI element-nonnull\nannotate I.unsignedSum.xs nonnull\n" +
			"annotate UI.a range=0..255\nannotate UI.b range=0..65535\nannotate UI.c range=0..4294967295\n" +
			"annotate UI.d range=0..9223372036854775807",
		iface: "I", method: "unsignedSum", cfn: "unsignedSum", impl: hashBytes(16)}

	// A bool, a char and both reals; struct mc is z@0, ch@1, f@4, g@8.
	scalarsPair = pair{name: "scalars",
		c: `struct mc { _Bool z; char ch; float f; double g; };
		    long long scalarSum(struct mc xs[], int n);`,
		cScript: "annotate scalarSum.xs length-from=n\nannotate mc.ch repertoire=ucs2",
		java: `class MC { boolean z; char ch; float f; double g; }
		       class MCs extends java.util.Vector;
		       interface I { long scalarSum(MCs xs); }`,
		jScript: "annotate MCs collection-of=MC element-nonnull\nannotate I.scalarSum.xs nonnull",
		iface:   "I", method: "scalarSum", cfn: "scalarSum", impl: hashBytes(16)}

	// An element that holds a by-value object: its leaves lie in a second
	// owner register, so the list runs the per-move loop. struct seg is
	// a.x@0, a.y@4, tag@8.
	segsPair = pair{name: "segs",
		c: `struct pt { float x; float y; };
		    struct seg { struct pt a; int tag; };
		    long long segSum(struct seg xs[], int n);`,
		cScript: "annotate segSum.xs length-from=n",
		java: `class Pt { float x; float y; }
		       class Seg { Pt a; int tag; }
		       class Segs extends java.util.Vector;
		       interface I { long segSum(Segs xs); }`,
		jScript: "annotate Seg.a nonnull noalias\nannotate Segs collection-of=Seg element-nonnull\nannotate I.segSum.xs nonnull",
		iface:   "I", method: "segSum", cfn: "segSum", impl: hashBytes(12)}
)

// listKindPairs are the pairs above.
var listKindPairs = []pair{signedPair, unsignedPair, scalarsPair, segsPair}

// tierPairs is every pair all execution tiers must agree on.
var tierPairs = append([]pair{fitterPair, totalPair, gradePair, scalePair, norm1Pair, levelPair, gaugePair, symPair,
	unboxPair, weighPair, pokePair, distPair, mixPair, spanPair, skipPair, widthsPair, codePair, cratesPair},
	listKindPairs...)
