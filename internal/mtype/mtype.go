// Package mtype implements the Mockingbird internal type system (the
// "Mtypes" of the paper, Table 1). Mtypes abstract over the type systems of
// C, C++, Java, and CORBA IDL so that declarations written in different
// languages can be compared structurally.
//
// An Mtype is a node in a possibly cyclic graph. Recursive declarations are
// represented by a Recursive (μ) node placed in the cycle; back-edges in the
// graph point at that node, exactly as in Figure 8 of the paper. All other
// nodes are trees of Record, Choice, and Port constructors over the
// primitive Mtypes (Integer, Character, Real, Unit).
//
// Node identity matters: the comparer keys its coinductive caches on node
// pointers, so a given declaration lowers to one shared graph rather than to
// structurally equal copies.
package mtype

import (
	"fmt"
	"math/big"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the Mtype constructors of Table 1 in the paper.
type Kind uint8

// The Mtype kinds. Values start at 1 so the zero Kind is invalid.
const (
	KindInteger   Kind = iota + 1 // integral types, parameterized by range
	KindCharacter                 // character types, parameterized by repertoire
	KindReal                      // floating point, parameterized by precision/exponent
	KindUnit                      // void and null
	KindRecord                    // ordered heterogeneous aggregates
	KindChoice                    // disjoint unions / alternatives
	KindRecursive                 // μ-binder placed in every cycle
	KindPort                      // addresses accepting values of the child Mtype
)

// String returns the lower-case constructor name.
func (k Kind) String() string {
	switch k {
	case KindInteger:
		return "integer"
	case KindCharacter:
		return "character"
	case KindReal:
		return "real"
	case KindUnit:
		return "unit"
	case KindRecord:
		return "record"
	case KindChoice:
		return "choice"
	case KindRecursive:
		return "recursive"
	case KindPort:
		return "port"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Repertoire identifies the glyph repertoire of a Character Mtype. The
// repertoires form a chain: ASCII ⊂ Latin-1 ⊂ UCS-2 ⊂ Unicode (UCS-4), which
// induces the Character subtype relation of §3.1.
type Repertoire uint8

// Supported glyph repertoires, smallest first.
const (
	RepASCII Repertoire = iota + 1
	RepLatin1
	RepUCS2
	RepUnicode
)

// String returns the conventional repertoire name.
func (r Repertoire) String() string {
	switch r {
	case RepASCII:
		return "ascii"
	case RepLatin1:
		return "latin1"
	case RepUCS2:
		return "ucs2"
	case RepUnicode:
		return "unicode"
	default:
		return fmt.Sprintf("repertoire(%d)", uint8(r))
	}
}

// Includes reports whether repertoire r contains repertoire s.
func (r Repertoire) Includes(s Repertoire) bool { return r >= s }

// Field is one named child of a Record. Names are carried for diagnostics
// and correspondence reporting only; they never influence type comparison.
type Field struct {
	Name string
	Type *Type
}

// Alt is one alternative of a Choice. As with record fields, names are
// cosmetic.
type Alt struct {
	Name string
	Type *Type
}

// Type is a node in an Mtype graph. Construct values with the New*
// constructors or the convenience builders; a zero Type is invalid.
type Type struct {
	kind Kind
	// size is the node count Validate recorded here, 0 before; it fills the
	// padding after kind, so a node stays 128 bytes.
	size atomic.Uint32

	// Integer: inclusive range bounds. Always non-nil for KindInteger.
	lo, hi *big.Int

	// Character.
	rep Repertoire

	// Real: precision is the significand width in bits (including the
	// implicit leading bit), exp the exponent field width in bits.
	precision int
	exponent  int

	// Record / Choice children.
	fields []Field
	alts   []Alt

	// Recursive body and Port element.
	body *Type
	elem *Type

	// tag is an optional label (e.g. the source declaration name) used in
	// printing and diagnostics.
	tag string
}

// Kind returns the node's constructor kind.
func (t *Type) Kind() Kind { return t.kind }

// Tag returns the diagnostic label attached to the node, if any.
func (t *Type) Tag() string { return t.tag }

// SetTag attaches a diagnostic label to the node and returns the node.
func (t *Type) SetTag(tag string) *Type {
	t.tag = tag
	return t
}

// NewInteger returns an Integer Mtype with the inclusive range [lo, hi].
// The bounds are copied. NewInteger panics if lo > hi: integer ranges come
// from language defaults or validated annotations, so a reversed range is a
// programming error, not an input error.
func NewInteger(lo, hi *big.Int) *Type {
	if lo == nil || hi == nil || lo.Cmp(hi) > 0 {
		panic("mtype: invalid integer range")
	}
	return &Type{kind: KindInteger, lo: new(big.Int).Set(lo), hi: new(big.Int).Set(hi)}
}

// bitBounds holds the bounds of every binary integer width, [lo, hi] by
// [bits][signed], shared by all the nodes NewIntegerBits returns: a node
// never modifies its bounds, and IntegerRange hands out copies.
var bitBounds [129][2][2]*big.Int

func init() {
	one := big.NewInt(1)
	for bits := uint(1); bits <= 128; bits++ {
		half, full := new(big.Int).Lsh(one, bits-1), new(big.Int).Lsh(one, bits)
		bitBounds[bits][0] = [2]*big.Int{new(big.Int), full.Sub(full, one)}
		bitBounds[bits][1] = [2]*big.Int{new(big.Int).Neg(half), new(big.Int).Sub(half, one)}
	}
}

// NewIntegerBits returns the Integer Mtype of a two's-complement (signed)
// or unsigned binary integer of the given width in bits.
func NewIntegerBits(bits int, signed bool) *Type {
	if bits <= 0 || bits > 128 {
		panic("mtype: invalid integer width")
	}
	b := &bitBounds[bits][0]
	if signed {
		b = &bitBounds[bits][1]
	}
	return &Type{kind: KindInteger, lo: b[0], hi: b[1]}
}

// NewBool returns the Integer Mtype 0..1, the conventional lowering of
// booleans (§3.1).
func NewBool() *Type { return NewIntegerBits(1, false) }

// NewEnum returns the Integer Mtype 0..n-1, the conventional lowering of an
// enumeration with n elements (§3.1). NewEnum panics if n < 1.
func NewEnum(n int) *Type {
	if n < 1 {
		panic("mtype: enum must have at least one element")
	}
	return NewInteger(big.NewInt(0), big.NewInt(int64(n-1)))
}

// IntegerRange returns copies of the inclusive bounds of an Integer Mtype.
func (t *Type) IntegerRange() (lo, hi *big.Int) {
	t.mustKind(KindInteger)
	return new(big.Int).Set(t.lo), new(big.Int).Set(t.hi)
}

// IntegerWords returns the bounds of an Integer Mtype as machine words,
// without the copies IntegerRange makes. A range with a negative lower
// bound is signed, and lo and hi are then int64 bit patterns. ok is false
// when a bound does not fit: outside int64 if signed, uint64 if not.
func (t *Type) IntegerWords() (lo, hi uint64, signed, ok bool) {
	t.mustKind(KindInteger)
	if t.lo.Sign() < 0 {
		return uint64(t.lo.Int64()), uint64(t.hi.Int64()), true, t.lo.IsInt64() && t.hi.IsInt64()
	}
	return t.lo.Uint64(), t.hi.Uint64(), false, t.hi.IsUint64()
}

// IntegerContains reports whether v lies within the bounds of an Integer
// Mtype, comparing in place.
func (t *Type) IntegerContains(v *big.Int) bool {
	t.mustKind(KindInteger)
	return v.Cmp(t.lo) >= 0 && v.Cmp(t.hi) <= 0
}

// CompareIntegerRange compares the bounds of two Integer Mtypes in place,
// without the copies IntegerRange makes: lo is the sign of t's lower bound
// minus u's, hi the sign of t's upper bound minus u's. Equal ranges give
// (0, 0); t's range lies inside u's when lo >= 0 and hi <= 0.
func (t *Type) CompareIntegerRange(u *Type) (lo, hi int) {
	t.mustKind(KindInteger)
	u.mustKind(KindInteger)
	return t.lo.Cmp(u.lo), t.hi.Cmp(u.hi)
}

// NewCharacter returns a Character Mtype with the given repertoire.
func NewCharacter(rep Repertoire) *Type {
	if rep < RepASCII || rep > RepUnicode {
		panic("mtype: invalid repertoire")
	}
	return &Type{kind: KindCharacter, rep: rep}
}

// Repertoire returns the glyph repertoire of a Character Mtype.
func (t *Type) Repertoire() Repertoire {
	t.mustKind(KindCharacter)
	return t.rep
}

// NewReal returns a Real Mtype with the given significand precision and
// exponent width, both in bits.
func NewReal(precision, exponent int) *Type {
	if precision <= 0 || exponent <= 0 {
		panic("mtype: invalid real parameters")
	}
	return &Type{kind: KindReal, precision: precision, exponent: exponent}
}

// Standard Real Mtypes for IEEE 754 binary32 and binary64.
func NewFloat32() *Type { return NewReal(24, 8) }

// NewFloat64 returns the Real Mtype of an IEEE 754 binary64 value.
func NewFloat64() *Type { return NewReal(53, 11) }

// RealParams returns the significand precision and exponent width of a Real
// Mtype, in bits.
func (t *Type) RealParams() (precision, exponent int) {
	t.mustKind(KindReal)
	return t.precision, t.exponent
}

// Unit returns a Unit Mtype, modelling void and null (§3.1).
//
// Each call returns a fresh node so callers may tag it independently; Unit
// nodes are compared by kind, never by identity.
func Unit() *Type { return &Type{kind: KindUnit} }

// NewRecord returns a Record Mtype over the given fields, in order.
// Field types must be non-nil.
func NewRecord(fields ...Field) *Type {
	for i, f := range fields {
		if f.Type == nil {
			panic(fmt.Sprintf("mtype: record field %d (%q) has nil type", i, f.Name))
		}
	}
	return &Type{kind: KindRecord, fields: append([]Field(nil), fields...)}
}

// RecordOf returns a Record over unnamed fields of the given types.
func RecordOf(types ...*Type) *Type {
	fields := make([]Field, len(types))
	for i, ty := range types {
		fields[i] = Field{Type: ty}
	}
	return NewRecord(fields...)
}

// Fields returns the record's fields. The returned slice is shared; callers
// must not modify it.
func (t *Type) Fields() []Field {
	t.mustKind(KindRecord)
	return t.fields
}

// NewChoice returns a Choice Mtype over the given alternatives, in order.
func NewChoice(alts ...Alt) *Type {
	for i, a := range alts {
		if a.Type == nil {
			panic(fmt.Sprintf("mtype: choice alternative %d (%q) has nil type", i, a.Name))
		}
	}
	return &Type{kind: KindChoice, alts: append([]Alt(nil), alts...)}
}

// ChoiceOf returns a Choice over unnamed alternatives of the given types.
func ChoiceOf(types ...*Type) *Type {
	alts := make([]Alt, len(types))
	for i, ty := range types {
		alts[i] = Alt{Type: ty}
	}
	return NewChoice(alts...)
}

// Alts returns the choice's alternatives. The returned slice is shared;
// callers must not modify it.
func (t *Type) Alts() []Alt {
	t.mustKind(KindChoice)
	return t.alts
}

// NewOptional returns Choice(Unit, elem): the lowering of a nullable pointer
// or reference (§3.2), where the Unit alternative is the null case.
func NewOptional(elem *Type) *Type {
	return NewChoice(Alt{Name: "null", Type: Unit()}, Alt{Name: "value", Type: elem})
}

// NewRecursive returns an unbound Recursive (μ) node. The caller must call
// SetBody before the node is used; back-edges in the body point directly at
// the returned node.
func NewRecursive() *Type { return &Type{kind: KindRecursive} }

// SetBody binds the body of a Recursive node. It panics if called twice or
// with a nil body.
func (t *Type) SetBody(body *Type) {
	t.mustKind(KindRecursive)
	if body == nil {
		panic("mtype: nil recursive body")
	}
	if t.body != nil {
		panic("mtype: recursive body already set")
	}
	t.body = body
}

// Body returns the body of a Recursive node, or nil if it is not yet bound.
func (t *Type) Body() *Type {
	t.mustKind(KindRecursive)
	return t.body
}

// NewPort returns port(elem): the Mtype of addresses to which values of the
// element Mtype may be sent (§3.3).
func NewPort(elem *Type) *Type {
	if elem == nil {
		panic("mtype: nil port element")
	}
	return &Type{kind: KindPort, elem: elem}
}

// Elem returns the element Mtype of a Port.
func (t *Type) Elem() *Type {
	t.mustKind(KindPort)
	return t.elem
}

// NewList returns the recursive list encoding of a homogeneous ordered
// collection of indefinite size (§3.2):
//
//	μL. Choice(Unit, Record(elem, L))
//
// Indefinite arrays, java.util.Vector, and linked lists all lower to this
// shape, which is why Mockingbird can adapt between them (Figure 8).
func NewList(elem *Type) *Type {
	rec := NewRecursive()
	cons := NewRecord(Field{Name: "head", Type: elem}, Field{Name: "tail", Type: rec})
	rec.SetBody(NewChoice(Alt{Name: "nil", Type: Unit()}, Alt{Name: "cons", Type: cons}))
	return rec
}

// NewFunction returns the lowering of a function or method reference
// (§3.3):
//
//	port(Record(inputs..., port(Record(outputs...))))
//
// The trailing field of the request record is the reply port.
func NewFunction(inputs, outputs []Field) *Type {
	reply := NewPort(NewRecord(outputs...)).SetTag("reply")
	request := make([]Field, 0, len(inputs)+1)
	request = append(request, inputs...)
	request = append(request, Field{Name: "reply", Type: reply})
	return NewPort(NewRecord(request...))
}

// Children returns the immediate successor nodes of t, in declaration
// order. The result is freshly allocated.
func (t *Type) Children() (out []*Type) {
	if n := t.arity(); n > 0 {
		out = make([]*Type, n)
	}
	for i := range out {
		out[i] = t.child(i)
	}
	return out
}

// arity and child give a node's successors without the copy Children
// makes; an unbound μ has none.
func (t *Type) arity() int {
	switch {
	case t.kind == KindRecord:
		return len(t.fields)
	case t.kind == KindChoice:
		return len(t.alts)
	case t.kind == KindPort, t.kind == KindRecursive && t.body != nil:
		return 1
	}
	return 0
}

func (t *Type) child(i int) *Type {
	switch t.kind {
	case KindRecord:
		return t.fields[i].Type
	case KindChoice:
		return t.alts[i].Type
	case KindRecursive:
		return t.body
	}
	return t.elem
}

func (t *Type) mustKind(k Kind) {
	if t.kind != k {
		panic(fmt.Sprintf("mtype: %s operation on %s node", k, t.kind))
	}
}

// Validate checks structural well-formedness of the graph rooted at t:
// every Recursive node must have a bound body, no child pointer may be nil,
// and every cycle must pass through at least one Recursive node and one
// structural (Record/Choice/Port) node, so that types are contractive in
// the Amadio–Cardelli sense. On success it records on t the number of
// nodes reachable from it (ValidatedSize); a root that has one passed
// before, and no constructor can change a graph that passed.
func Validate(t *Type) error {
	if t == nil {
		return fmt.Errorf("mtype: nil type")
	}
	if t.size.Load() != 0 {
		return nil
	}
	v := validators.Get().(*validator)
	defer v.release()
	if err := v.walk(t); err != nil {
		return err
	}
	t.size.Store(uint32(len(v.seen)))
	return nil
}

// validator is Validate's walk state: the nodes seen and the nodes the
// walk is inside. Validate takes one from validators and hands it back
// emptied, so a call allocates only when its graph outgrows every set
// before it.
type validator struct {
	seen map[*Type]struct{}
	path []*Type
}

var validators = sync.Pool{New: func() any { return &validator{seen: make(map[*Type]struct{}, 64)} }}

// maxPooledSeen bounds the sets that go back to the pool: clearing a set
// costs its capacity, which one huge graph must not leave to every small
// one after it.
const maxPooledSeen = 1 << 14

func (v *validator) release() {
	if len(v.seen) > maxPooledSeen {
		return
	}
	clear(v.seen)
	clear(v.path[:cap(v.path)]) // the pool keeps no graph alive
	v.path = v.path[:0]
	validators.Put(v)
}

func (v *validator) walk(n *Type) error {
	if n == nil {
		return fmt.Errorf("mtype: nil child reached")
	}
	if _, ok := v.seen[n]; ok {
		// If the walk is inside n, n closes the loop path[at:], which
		// must contain a Recursive node and a structural node.
		at := slices.Index(v.path, n)
		if at < 0 {
			return nil
		}
		hasRec, hasStruct := false, false
		for _, m := range v.path[at:] {
			switch m.kind {
			case KindRecursive:
				hasRec = true
			case KindRecord, KindChoice, KindPort:
				hasStruct = true
			}
		}
		if !hasRec {
			return fmt.Errorf("mtype: cycle without a recursive node (through %s)", n.kind)
		}
		if !hasStruct {
			return fmt.Errorf("mtype: non-contractive cycle (no structural node)")
		}
		return nil
	}
	v.seen[n] = struct{}{}
	if n.kind == KindRecursive && n.body == nil {
		return fmt.Errorf("mtype: recursive node %q has no body", n.tag)
	}
	if n.kind < KindInteger || n.kind > KindPort {
		return fmt.Errorf("mtype: invalid kind %d", n.kind)
	}
	v.path = append(v.path, n)
	for i := range n.arity() {
		if err := v.walk(n.child(i)); err != nil {
			return err
		}
	}
	v.path = v.path[:len(v.path)-1]
	return nil
}

// ValidatedSize returns the number of nodes reachable from t as Validate
// recorded it, or 0 if t was never validated.
func (t *Type) ValidatedSize() int { return int(t.size.Load()) }

// String renders the graph rooted at t in a compact notation with μ-binders
// for cycles, e.g. the Figure 8 list prints as
//
//	μL1.choice(unit, record(real(24,8), L1))
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	// A μ node gets a binder label when printing re-enters it inside its
	// own body. The first pass finds those by printing with every μ node a
	// binder: every cycle passes through one, so it stops. The second
	// prints with only those labelled, and up to where the first stopped it
	// makes the same moves, so it stops too.
	var labels map[*Type]string
	referenced := make(map[*Type]bool)
	opened := make(map[*Type]bool)
	var sb strings.Builder
	var render func(n *Type)
	render = func(n *Type) {
		if n == nil {
			sb.WriteString("<nil>")
			return
		}
		if opened[n] {
			referenced[n] = true
			sb.WriteString(labels[n])
			return
		}
		switch n.kind {
		case KindInteger:
			fmt.Fprintf(&sb, "integer[%s..%s]", n.lo, n.hi)
		case KindCharacter:
			fmt.Fprintf(&sb, "character(%s)", n.rep)
		case KindReal:
			fmt.Fprintf(&sb, "real(%d,%d)", n.precision, n.exponent)
		case KindUnit:
			sb.WriteString("unit")
		case KindRecord:
			sb.WriteString("record(")
			for i, f := range n.fields {
				if i > 0 {
					sb.WriteString(", ")
				}
				render(f.Type)
			}
			sb.WriteString(")")
		case KindChoice:
			sb.WriteString("choice(")
			for i, a := range n.alts {
				if i > 0 {
					sb.WriteString(", ")
				}
				render(a.Type)
			}
			sb.WriteString(")")
		case KindRecursive:
			lbl, ok := labels[n]
			if ok {
				sb.WriteString("μ" + lbl + ".")
			}
			opened[n] = ok || labels == nil
			render(n.body)
			opened[n] = false
		case KindPort:
			sb.WriteString("port(")
			render(n.elem)
			sb.WriteString(")")
		default:
			sb.WriteString("<invalid>")
		}
	}
	render(t)

	// Stable labels, in preorder.
	labels = make(map[*Type]string)
	for _, n := range Nodes(t) {
		if referenced[n] {
			labels[n] = fmt.Sprintf("L%d", len(labels)+1)
		}
	}
	sb.Reset()
	render(t)
	return sb.String()
}

// Nodes returns every node reachable from t, in a deterministic preorder.
func Nodes(t *Type) []*Type {
	var out []*Type
	seen := make(map[*Type]bool)
	var walk func(n *Type)
	walk = func(n *Type) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		out = append(out, n)
		for i := range n.arity() {
			walk(n.child(i))
		}
	}
	walk(t)
	return out
}

// Size returns the number of distinct nodes reachable from t: the count
// Validate recorded, or a fresh walk's.
func Size(t *Type) int {
	if t != nil && t.ValidatedSize() != 0 {
		return t.ValidatedSize()
	}
	return len(Nodes(t))
}

// ListElem recognizes the recursive list encoding of §3.2,
//
//	μL. Choice(Unit, Record(τ, L))
//
// and returns its element type τ. Wire encoding and value rendering use
// it to treat lists as sequences rather than cons chains.
func ListElem(t *Type) (elem *Type, ok bool) {
	if t == nil || t.kind != KindRecursive {
		return nil, false
	}
	body := t.body
	for body != nil && body.kind == KindRecursive {
		body = body.body
	}
	if body == nil || body.kind != KindChoice || len(body.alts) != 2 {
		return nil, false
	}
	nilAlt := body.alts[0].Type
	for nilAlt != nil && nilAlt.kind == KindRecursive {
		nilAlt = nilAlt.body
	}
	if nilAlt == nil || nilAlt.kind != KindUnit {
		return nil, false
	}
	cons := body.alts[1].Type
	for cons != nil && cons.kind == KindRecursive {
		cons = cons.body
	}
	if cons == nil || cons.kind != KindRecord || len(cons.fields) != 2 {
		return nil, false
	}
	if cons.fields[1].Type != t {
		return nil, false
	}
	return cons.fields[0].Type, true
}
