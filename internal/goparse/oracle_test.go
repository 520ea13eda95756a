package goparse_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/goparse"
	"repro/internal/stype"
	"repro/internal/testutil"
)

// TestGoTypesOracle holds the frontend to Go's own type checker over the
// pin's sources that import nothing.
//
// Law 1: every source Parse accepts type-checks, so the frontend is never
// looser than Go.
//
// Law 2: whenever types.Implements(T, I) holds (for T or *T: a receiver
// method of either joins T's Stype method set), the comparer accepts T's
// object port where I's is wanted: the two ports are equivalent, or T's
// is a subtype of I's. T ranges over the struct and interface
// declarations, the ones that have a port.
func TestGoTypesOracle(t *testing.T) {
	checked, implemented := 0, 0
	for _, s := range append(pinSources(t), implementations...) {
		u, pkg, err := typeCheck(s)
		if u == nil || pkg == nil && err == nil {
			continue // refused by Parse, or it imports
		}
		if err != nil {
			t.Errorf("%s: Parse accepts what go/types refuses: %v", s.Label, err)
			continue
		}
		checked++
		implemented += checkImplements(t, s.Label, u, pkg, func(tn, in string, v *core.Verdict) {
			if v.Relation != core.RelEquivalent && v.Relation != core.RelSubtypeAB {
				t.Errorf("%s: %s implements %s, but the comparer says %s: %s", s.Label, tn, in, v.Relation, v.Explain)
			}
		})
	}
	if checked == 0 || implemented == 0 {
		t.Fatalf("%d sources type-checked, %d implementations compared: the laws ran on nothing", checked, implemented)
	}
	t.Logf("%d sources type-checked, %d implementations compared", checked, implemented)
}

// typeCheck parses s with Parse and, when it accepts and s imports
// nothing, type-checks it with go/types.
func typeCheck(s testutil.Source) (*stype.Universe, *types.Package, error) {
	u, err := goparse.Parse("oracle.go", s.Src)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "oracle.go", s.Src, parser.SkipObjectResolution)
	if err != nil || len(f.Imports) > 0 {
		return u, nil, err
	}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, nil)
	return u, pkg, err
}

// implementations are sources rich in (T, I) pairs: value and pointer
// receivers, promotion through an embedded struct or pointer, embedded
// and overlapping interfaces, renamed parameters, struct-typed
// parameters.
var implementations = []testutil.Source{
	{Label: "oracle receivers", Src: `package p
type Point struct{ X, Y float32 }
type Shape interface {
	Area() float64
}
type Mover interface {
	Move(dx, dy float32) Point
}
type Both interface {
	Shape
	Mover
}
type Square struct{ Side float64 }
func (s Square) Area() float64 { return s.Side * s.Side }
type Sprite struct{ At Point }
func (s *Sprite) Move(x, y float32) Point { s.At.X += x; s.At.Y += y; return s.At }
func (s Sprite) Area() float64 { return 1 }
type Service struct{}
func (Service) Area() float64 { return 0 }
func (*Service) Move(a, b float32) Point { return Point{} }
`},
	{Label: "oracle promotion", Src: `package p
type Reader interface {
	Read(n int32) []byte
}
type Closer interface {
	Close() bool
}
type ReadCloser interface {
	Reader
	Closer
}
type Base struct{ ID int64 }
func (b Base) Close() bool { return true }
type File struct {
	Base
	Name string
}
func (f *File) Read(n int32) []byte { return nil }
type Pipe struct {
	Closer
	Depth int32
}
`},
	{Label: "oracle promotion through an embedded pointer", Src: `package p
type Closer interface {
	Close() bool
}
type Base struct{ ID int64 }
func (b *Base) Close() bool { return true }
type File struct {
	*Base
	Name string
}
`},
}

// checkImplements compares every (T, I) pair go/types says implements,
// hands each verdict to check, and returns how many there were.
func checkImplements(t *testing.T, label string, u *stype.Universe, pkg *types.Package, check func(tn, in string, v *core.Verdict)) int {
	t.Helper()
	var ports, ifaces []string
	var script strings.Builder
	for _, d := range u.Decls() {
		switch d.Type.Kind {
		case stype.KInterface:
			ifaces = append(ifaces, d.Name)
		case stype.KClass:
			// A struct with fields lowers by value at the root; byref
			// asks for its object port.
			fmt.Fprintf(&script, "annotate %s byref\n", d.Name)
		default:
			continue
		}
		ports = append(ports, d.Name)
	}
	sess := core.NewSession()
	if err := sess.AddUniverse("go", u); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Annotate("go", script.String()); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	n := 0
	for _, tn := range ports {
		typ := pkg.Scope().Lookup(tn).Type()
		for _, in := range ifaces {
			iface := pkg.Scope().Lookup(in).Type().Underlying().(*types.Interface)
			if tn == in || !(types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface)) {
				continue
			}
			n++
			v, err := sess.Compare("go", tn, "go", in)
			if err != nil {
				t.Errorf("%s: %s implements %s, but the comparer cannot lower them: %v", label, tn, in, err)
				continue
			}
			check(tn, in, v)
		}
	}
	return n
}

// TestGoTypesDivergences pins where Law 2 fails today, each a Known
// divergences row of EXPERIMENTS.md: go/types says T implements I, and
// the comparer refuses T's port where I's is wanted. A row that starts
// to hold fails here, and moves to the implementations above.
func TestGoTypesDivergences(t *testing.T) {
	rows := []struct {
		testutil.Source
		t, i string // the pair where the law fails
	}{
		// A zero-method interface lowers to port(unit), which no port
		// with a method matches; in Go every type implements it.
		{testutil.Source{Label: "a declared empty interface", Src: `package p
type Empty interface{}
type Clock struct{ Ticks int64 }
func (c Clock) Now() int64 { return c.Ticks }
`}, "Clock", "Empty"},
	}
	for _, s := range rows {
		u, pkg, err := typeCheck(s.Source)
		if err != nil {
			t.Fatalf("%s: %v", s.Label, err)
		}
		met := false
		checkImplements(t, s.Label, u, pkg, func(tn, in string, v *core.Verdict) {
			accepted := v.Relation == core.RelEquivalent || v.Relation == core.RelSubtypeAB
			switch {
			case tn != s.t || in != s.i:
				if !accepted {
					t.Errorf("%s: %s implements %s, but the comparer says %s", s.Label, tn, in, v.Relation)
				}
			case accepted:
				t.Errorf("%s: %s now stands in for %s (%s); Law 2 holds here, so move the row to the implementations and out of Known divergences", s.Label, tn, in, v.Relation)
			default:
				met = true
			}
		})
		if !met {
			t.Errorf("%s: go/types no longer says %s implements %s", s.Label, s.t, s.i)
		}
	}
}
