package bind_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bind"
	"repro/internal/cmem"
	"repro/internal/jheap"
	"repro/internal/lower"
	"repro/internal/mtype"
	"repro/internal/stype"
	"repro/internal/synth"
	"repro/internal/value"
	"repro/internal/wire"
)

// inhabitant builds a seeded value of t: integers inside the range,
// reals exact in binary32, short lists, every alternative, and for a port
// a fresh heap object.
func inhabitant(t *mtype.Type, r *rand.Rand, h *jheap.Heap, depth int) value.Value {
	if elem, ok := mtype.ListElem(t); ok {
		vs := make([]value.Value, r.Intn(4))
		for i := range vs {
			vs[i] = inhabitant(elem, r, h, depth+1)
		}
		return value.FromSlice(vs)
	}
	u := wire.Unfold(t)
	switch u.Kind() {
	case mtype.KindInteger:
		lo, hi := u.IntegerRange()
		v := big.NewInt(r.Int63n(1<<16) - 1<<15)
		if v.Cmp(lo) < 0 || v.Cmp(hi) > 0 {
			v.Mod(v.Abs(v), new(big.Int).Add(new(big.Int).Sub(hi, lo), big.NewInt(1))).Add(v, lo)
		}
		return value.Int{V: v}
	case mtype.KindReal:
		return value.Real{V: float64(r.Intn(4096)-2048) / 4}
	case mtype.KindCharacter:
		return value.Char{R: rune('a' + r.Intn(26))}
	case mtype.KindRecord:
		fs := make([]value.Value, len(u.Fields()))
		for i, f := range u.Fields() {
			fs[i] = inhabitant(f.Type, r, h, depth+1)
		}
		return value.Record{Fields: fs}
	case mtype.KindChoice:
		alt := 0
		if depth < 6 {
			alt = r.Intn(len(u.Alts()))
		}
		return value.Choice{Alt: alt, V: inhabitant(u.Alts()[alt].Type, r, h, depth+1)}
	case mtype.KindPort:
		return value.Port{Ref: bind.PortRef(h.New("Object", 0))}
	}
	return value.Unit{}
}

// useMtype lowers one use of a type: the first field of a holder struct
// added to the universe for it.
func useMtype(u *stype.Universe, use *stype.Type) (*mtype.Type, error) {
	holder := fmt.Sprintf("law$%d", len(u.Names()))
	if _, err := u.Add(holder, &stype.Type{Kind: stype.KStruct, Name: holder, Fields: []stype.Field{{Name: "v", Type: use}}}); err != nil {
		return nil, err
	}
	mt, err := lower.New(u).Decl(holder)
	if err != nil {
		return nil, err
	}
	return mt.Fields()[0].Type, nil
}

// unbound are the constructs a binder turns down by design: a C union has
// no discriminant in memory, a function is not data, and a class body or
// an array length the layout cannot see has no storage to read.
var unbound = []string{"union", "cannot read C func", "cannot write C func", "cannot write Java", "cannot read Java", "has no C layout", "has no layout"}

func isUnbound(err error) bool {
	for _, s := range unbound {
		if strings.Contains(err.Error(), s) {
			return true
		}
	}
	return false
}

// lawJ holds a Java use to the law: every value of its Mtype is written,
// read back equal, and what is read inhabits the Mtype.
func lawJ(u *stype.Universe, use *stype.Type, r *rand.Rand) error {
	mt, err := useMtype(u, use)
	if err != nil {
		return nil // nothing was lowered, so there is nothing to inhabit
	}
	j, h := bind.NewJ(u), jheap.NewHeap()
	for i := 0; i < 8; i++ {
		v := inhabitant(mt, r, h, 0)
		slot, err := j.Write(use, h, v)
		if err != nil {
			if isUnbound(err) {
				return nil
			}
			return fmt.Errorf("J.Write %s of %s: %v", v, mt, err)
		}
		back, err := j.Read(use, h, slot)
		if err != nil {
			return fmt.Errorf("J.Read after J.Write %s of %s: %v", v, mt, err)
		}
		if _, err := wire.Marshal(mt, back); err != nil {
			return fmt.Errorf("J.Read %s does not inhabit %s: %v", back, mt, err)
		}
		if !value.Equal(back, v) {
			return fmt.Errorf("J.Read(J.Write(%s)) = %s under %s", v, back, mt)
		}
	}
	return nil
}

// lawC is lawJ for a C type stored in an arena, and for a function with a
// scalar result also through the return word of C.Call.
func lawC(u *stype.Universe, d *stype.Decl, r *rand.Rand) error {
	mt, err := lower.New(u).Decl(d.Name)
	if err != nil {
		return nil
	}
	c, h := bind.NewC(u, cmem.ILP32), jheap.NewHeap()
	if d.Type.Kind == stype.KFunc {
		res := result(mt)
		if res == nil || len(d.Type.Params) > 0 {
			return nil
		}
		for i := 0; i < 8; i++ {
			v := inhabitant(res, r, h, 0)
			mem := cmem.NewArena()
			at := mem.Alloc(8, 8)
			if err := c.Write(d.Type.Result, mem, at, v); err != nil {
				if isUnbound(err) {
					return nil
				}
				return fmt.Errorf("C.Write %s of %s: %v", v, res, err)
			}
			w, _ := mem.ReadU(at, 8)
			outs, err := c.Call(d, func(*cmem.Arena, []uint64) (uint64, error) { return w, nil }, mem, value.NewRecord())
			if err != nil {
				return fmt.Errorf("C.Call returning %s: %v", v, err)
			}
			back := outs.(value.Record).Fields[0]
			if _, err := wire.Marshal(res, back); err != nil {
				return fmt.Errorf("C.Call return %s does not inhabit %s: %v", back, res, err)
			}
			if !value.Equal(back, v) {
				return fmt.Errorf("C.Call returned %s for %s under %s", back, v, res)
			}
		}
		return nil
	}
	lay, err := c.Layouts().Of(d.Type)
	if err != nil {
		return nil
	}
	for i := 0; i < 8; i++ {
		v := inhabitant(mt, r, h, 0)
		mem := cmem.NewArena()
		at := mem.Alloc(lay.Size, lay.Align)
		if err := c.Write(d.Type, mem, at, v); err != nil {
			if isUnbound(err) {
				return nil
			}
			return fmt.Errorf("C.Write %s of %s: %v", v, mt, err)
		}
		back, err := c.Read(d.Type, mem, at, -1)
		if err != nil {
			return fmt.Errorf("C.Read after C.Write %s of %s: %v", v, mt, err)
		}
		if _, err := wire.Marshal(mt, back); err != nil {
			return fmt.Errorf("C.Read %s does not inhabit %s: %v", back, mt, err)
		}
		if !value.Equal(back, v) {
			return fmt.Errorf("C.Read(C.Write(%s)) = %s under %s", v, back, mt)
		}
	}
	return nil
}

// TestReadInhabitsLowered is the law between the two readers of an
// annotated declaration: what bind reads inhabits what lower built, and a
// written value reads back equal — over every declaration of the three
// synthesized suites and every cell of the scalar matrix of
// TestReadingTable.
func TestReadInhabitsLowered(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	checked := 0
	holds := func(name string, err error) {
		checked++
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	javaDecls := func(name string, u *stype.Universe) {
		for _, d := range u.Decls() {
			if d.Type.Kind != stype.KClass && d.Type.Kind != stype.KInterface {
				continue
			}
			for _, nonNull := range []bool{false, true} {
				use := stype.NewNamed(d.Name)
				use.Ann.NonNull = nonNull
				holds(fmt.Sprintf("%s %s (nonnull %v)", name, d.Name, nonNull), lawJ(u, use, r))
			}
		}
	}
	for _, cfg := range []struct {
		name string
		cfg  synth.Config
	}{{"VisualAgeMiniature", synth.VisualAgeMiniature()}, {"NotesAPI", synth.NotesAPI()}, {"Collab", synth.Collab()}} {
		suite := synth.Generate(cfg.cfg)
		ju, err := parseJava(suite.JavaSource, suite.JavaScript)
		if err != nil {
			t.Fatal(err)
		}
		javaDecls(cfg.name+" java", ju)
		cu, err := parseC(suite.CSource, suite.CScript)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range cu.Decls() {
			holds(fmt.Sprintf("%s c %s", cfg.name, d.Name), lawC(cu, d, r))
		}
	}
	for _, c := range cScalarCases() {
		u, err := parseC(c.source())
		if err != nil {
			continue // the row records the refusal
		}
		for _, decl := range []string{"S", "f"} {
			holds(c.name()+" "+decl, lawC(u, u.Lookup(decl), r))
		}
	}
	for _, ty := range jTypes {
		for _, a := range scalarAttrs {
			u, err := parseJava(jScalarSource(ty, a))
			if err != nil {
				continue
			}
			holds(fmt.Sprintf("java %s [%s]", ty, a), lawJ(u, u.Lookup("S").Type.Fields[0].Type, r))
		}
	}
	if checked < 500 {
		t.Errorf("the law ran on %d declarations; the suites and the matrix hold more than 500", checked)
	}
}
