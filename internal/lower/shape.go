package lower

import (
	"fmt"
	"math/big"

	"repro/internal/mtype"
	"repro/internal/stype"
)

// Kind names how an annotated use is read.
type Kind uint8

// The readings of a use.
const (
	Unit      Kind = iota + 1 // void
	Bool                      // a truth value, 0 or 1
	Integer                   // Bits wide and Signed, or inside Lo..Hi under a range annotation
	Character                 // one glyph of repertoire Rep
	Real                      // binary32 or binary64, by Bits
	Enum                      // one of N elements, a 32-bit integer
	Record                    // Fields, in place or (Java) behind a reference
	Union                     // one of Fields
	Fixed                     // N of Elem
	List                      // any number of Elem: its length rides in a sibling parameter or, for a Java array, a sequence or a collection (Decl), in the representation
	Optional                  // a pointer or reference that may be null, else Inner
	Deref                     // a C pointer that is never null: Inner behind it
	Port                      // a reference to object Decl
	Func                      // a function, Type.Params to Type.Result
)

var kindNames = [...]string{"invalid", "unit", "bool", "integer", "character", "real", "enum", "record", "union",
	"fixed", "list", "optional", "deref", "port", "func"}

func (k Kind) String() string {
	if int(k) >= len(kindNames) {
		k = 0
	}
	return kindNames[k]
}

// Shape is the one reading of an annotated use: the typedef overlay
// applied, every annotation and language default decided. The Mtype
// builder of this package, bind.C, bind.J and fuse all switch on it, so
// the Mtype of a declaration and the code that moves its values cannot
// read it differently; what is left to a binder is representation — how
// to load Bits bits from an arena, a heap slot or a frame word, and how
// to allocate behind a pointer.
type Shape struct {
	Kind Kind
	// Type is the node the use resolved to through typedefs, for layouts
	// (its Kind tells a pointer from an array in place) and diagnostics.
	// Its annotations are the declaration's alone; the Shape has read them
	// together with the use's.
	Type *stype.Type

	// Scalars. Native is the reading the language gives the primitive
	// unannotated: the kind of storage that holds it, whatever Kind reads
	// from it.
	Bits   int
	Signed bool
	Native Kind
	Lo, Hi *big.Int         // Integer under a range annotation, else nil
	Rep    mtype.Repertoire // Character

	N      int         // Enum, Fixed
	Decl   *stype.Decl // the declaration a Record, Union, Port or collection List was named by
	Fields []Field     // Record, Union: ignored members dropped
	Elem   *stype.Type // Fixed, List: the element's use
	Inner  *Shape      // Optional, Deref
}

// Field is a member of a Record or Union shape; Index is its position in
// the declaration, which ignored members before it do not shift.
type Field struct {
	Name  string
	Index int
	Type  *stype.Type
}

// prims is the reading of each primitive with no annotation: its width,
// its signedness, what the language says it holds, and the repertoire of
// its character reading — none, for a primitive `char` says nothing about.
var prims = [...]struct {
	bits   int
	signed bool
	native Kind
	rep    mtype.Repertoire
}{
	stype.PVoid:   {native: Unit},
	stype.PBool:   {8, false, Bool, 0},
	stype.PI8:     {8, true, Integer, mtype.RepLatin1},
	stype.PU8:     {8, false, Integer, mtype.RepLatin1},
	stype.PI16:    {16, true, Integer, mtype.RepUCS2},
	stype.PU16:    {16, false, Integer, mtype.RepUCS2},
	stype.PI32:    {32, true, Integer, mtype.RepUnicode},
	stype.PU32:    {32, false, Integer, 0},
	stype.PI64:    {64, true, Integer, 0},
	stype.PU64:    {64, false, Integer, 0},
	stype.PF32:    {32, true, Real, 0},
	stype.PF64:    {64, true, Real, 0},
	stype.PChar8:  {8, true, Character, mtype.RepLatin1}, // plain C char holds characters by convention (§3.1)
	stype.PChar16: {16, false, Character, mtype.RepUCS2},
}

var repertoires = map[string]mtype.Repertoire{
	"ascii": mtype.RepASCII, "latin1": mtype.RepLatin1, "ucs2": mtype.RepUCS2, "unicode": mtype.RepUnicode,
}

// prim reads a primitive under range/char/repertoire annotations (§3.1).
// An explicit range wins and makes it an Integer; `char` and `int` choose
// between the readings the primitive has, and an annotation that asks for
// one it lacks — a character in 64 bits, a range of reals — says nothing.
func (s *Shape) prim(t *stype.Type, ann *stype.Ann) error {
	if int(t.Prim) >= len(prims) || prims[t.Prim].native == 0 {
		return fmt.Errorf("lower: unsupported primitive %s", t.Prim)
	}
	p := &prims[t.Prim]
	s.Kind, s.Bits, s.Signed, s.Native = p.native, p.bits, p.signed, p.native
	if p.native == Unit || p.native == Real {
		return nil
	}
	if ann.Range != nil {
		lo, ok1 := new(big.Int).SetString(ann.Range.Lo, 10)
		hi, ok2 := new(big.Int).SetString(ann.Range.Hi, 10)
		if !ok1 || !ok2 || lo.Cmp(hi) > 0 {
			return fmt.Errorf("lower: invalid range annotation %s..%s", ann.Range.Lo, ann.Range.Hi)
		}
		s.Kind, s.Lo, s.Hi = Integer, lo, hi
		return nil
	}
	char := p.native == Character
	if ann.AsChar != nil {
		char = *ann.AsChar
	}
	switch {
	case char && p.rep != 0:
		s.Kind, s.Rep = Character, p.rep
		if ann.Repertoire != "" {
			if s.Rep = repertoires[ann.Repertoire]; s.Rep == 0 {
				return fmt.Errorf("lower: unknown repertoire %q", ann.Repertoire)
			}
		}
	case p.native == Character:
		s.Kind = Integer
	}
	return nil
}

// maxTypedefs bounds a chain of typedefs, so that one naming itself fails
// cleanly.
const maxTypedefs = 1 << 10

// ShapeOf reads one use of a type in universe u: t's own annotations over
// those of the typedefs it names, then the language defaults. For a
// composite target the use-site annotations decide between containment,
// object reference and nullability (§3.2):
//
//   - structs and unions are values, with no reference semantics;
//   - a collection class is a List of references to its element class;
//   - byvalue at use or declaration, nonnull+noalias at use, or a class
//     of fields and no methods, is a Record (the §3.4 Line-contains-two-
//     Points conclusion); any other class or interface is a Port;
//   - and the reference is Optional unless nonnull.
//
// The shape is filled in place, by this function and the ones under it: a
// binder asks for one per value it moves.
func ShapeOf(u *stype.Universe, t *stype.Type) (s Shape, err error) {
	if t == nil {
		s.Kind = Unit
		return s, nil
	}
	ann := &t.Ann
	for hops := 0; t.Kind == stype.KNamed; hops++ {
		d := t.Target
		if d == nil {
			d = u.Lookup(t.Name)
		}
		if d == nil {
			return s, fmt.Errorf("lower: unresolved name %q", t.Name)
		}
		switch d.Type.Kind {
		case stype.KNamed, stype.KPrim, stype.KEnum, stype.KArray, stype.KSequence, stype.KPointer, stype.KFunc:
			// The typedef overlay: the target — itself a name, for a
			// typedef of a typedef — under the use's annotations laid
			// over its own.
			if hops > maxTypedefs {
				return s, fmt.Errorf("lower: typedef %s names itself", d.Name)
			}
			merged := d.Type.Ann.Merge(*ann)
			t, ann = d.Type, &merged
		case stype.KStruct, stype.KUnion:
			err = s.aggregate(u, d.Type, d)
			return s, err
		case stype.KClass, stype.KInterface:
			ref := &s
			if !ann.NonNull {
				s.Kind, s.Type, s.Inner = Optional, d.Type, new(Shape)
				ref = s.Inner
			}
			err = ref.classRef(u, d, ann)
			return s, err
		default:
			return s, fmt.Errorf("lower: cannot lower reference to %s", d.Type.Kind)
		}
	}
	switch s.Type = t; t.Kind {
	case stype.KPrim:
		err = s.prim(t, ann)
	case stype.KEnum:
		if len(t.EnumNames) == 0 {
			return s, fmt.Errorf("lower: enum %s has no elements", t.Name)
		}
		s.Kind, s.Bits, s.Signed, s.Native, s.N = Enum, 32, true, Enum, len(t.EnumNames)
	case stype.KStruct, stype.KUnion, stype.KClass, stype.KInterface:
		// An inline class node (anonymous composite) is read by value.
		err = s.aggregate(u, t, nil)
	case stype.KPointer:
		// With a length annotation a pointer is an array (§3.2); otherwise
		// it points at a single value and is nullable unless nonnull.
		if ann.FixedLen > 0 || ann.LengthFrom != "" {
			s.sequence(ann.FixedLen, ann.FixedLen > 0)
			break
		}
		if s.Kind = Optional; ann.NonNull {
			s.Kind = Deref
		}
		s.Inner = new(Shape)
		*s.Inner, err = ShapeOf(u, t.ElemType)
	case stype.KArray:
		// Fixed length is a Record of n elements, indefinite length the
		// list encoding; annotations can supply either form (§3.2).
		n := t.Len
		if ann.FixedLen > 0 {
			n = ann.FixedLen
		}
		s.sequence(n, n >= 0 && ann.LengthFrom == "")
	case stype.KSequence:
		s.sequence(0, false)
	case stype.KFunc:
		s.Kind = Func
	default:
		err = fmt.Errorf("lower: unsupported node kind %s", t.Kind)
	}
	return s, err
}

// sequence reads an array-like node as n elements or as a list.
func (s *Shape) sequence(n int, fixed bool) {
	if s.Kind, s.Elem = List, s.Type.ElemType; fixed {
		s.Kind, s.N = Fixed, n
	}
}

// aggregate reads composite t — the body of declaration d, if it was
// reached by name — as a Record, or a Union, of the members not ignored.
func (s *Shape) aggregate(u *stype.Universe, t *stype.Type, d *stype.Decl) (err error) {
	s.Kind, s.Type, s.Decl = Record, t, d
	fields := t.Fields
	if t.Kind == stype.KUnion {
		s.Kind = Union
	} else if fields, err = flattenFields(u, fields); err != nil {
		return err
	}
	s.Fields = make([]Field, 0, len(fields))
	for i, f := range fields {
		if f.Type == nil || !f.Type.Ann.Ignore {
			s.Fields = append(s.Fields, Field{f.Name, i, f.Type})
		}
	}
	return nil
}

// classRef reads the referent of a class/interface reference (without
// the nullability wrapper).
func (s *Shape) classRef(u *stype.Universe, d *stype.Decl, use *stype.Ann) error {
	switch {
	case use.CollectionOf != "" || isCollection(u, d):
		// Collections are lists regardless of by-value/by-ref.
		return s.collection(u, d, d.Type.Ann.Merge(*use))
	case !byValueOf(d, use):
		s.Kind, s.Type, s.Decl = Port, d.Type, d
		return nil
	case d.Type.Kind == stype.KInterface:
		return fmt.Errorf("lower: interface %s cannot be passed by value", d.Name)
	}
	return s.aggregate(u, d.Type, d)
}

// byValueOf decides whether a reference to d with the given use-site
// annotation is containment rather than an object port: an explicit
// byvalue/byref wins; nonnull+noalias implies containment (§3: "neither
// field is ever null and neither may introduce an alias" lets Mockingbird
// conclude every Line contains two different Points); and a pure data
// class (fields, no methods) defaults to by-value because it has no
// behavior to invoke remotely.
func byValueOf(d *stype.Decl, use *stype.Ann) bool {
	target := d.Type
	if use.ByValue != nil {
		return *use.ByValue
	}
	if target.Ann.ByValue != nil {
		return *target.Ann.ByValue
	}
	if use.NonNull && use.NoAlias {
		return true
	}
	return target.Kind == stype.KClass && len(target.Methods) == 0 && len(target.Fields) > 0
}

// collectionOf is the element type name of an ordered collection: the
// declaration's collection-of annotation or the nearest one up its super
// chain (the Vector rule of §3.4), "" for a class that is no collection.
func collectionOf(u *stype.Universe, d *stype.Decl) string {
	if d.Type.Ann.CollectionOf != "" || d.Type.Super == "" {
		return d.Type.Ann.CollectionOf // most classes extend nothing
	}
	seen := make(map[string]bool)
	for d != nil && !seen[d.Name] {
		seen[d.Name] = true
		if d.Type.Ann.CollectionOf != "" {
			return d.Type.Ann.CollectionOf
		}
		d = u.Lookup(d.Type.Super)
	}
	return ""
}

func isCollection(u *stype.Universe, d *stype.Decl) bool { return collectionOf(u, d) != "" }

// collection reads an ordered-collection class as a List of references to
// its element class, nonnull when element-nonnull is annotated; element
// containment follows the element class's own annotations.
func (s *Shape) collection(u *stype.Universe, d *stype.Decl, ann stype.Ann) error {
	elemName := ann.CollectionOf
	if elemName == "" {
		elemName = collectionOf(u, d)
	}
	if elemName == "" {
		return fmt.Errorf("lower: %s is a collection of unknown element type", d.Name)
	}
	if u.Lookup(elemName) == nil {
		return fmt.Errorf("lower: collection %s: unknown element type %q", d.Name, elemName)
	}
	s.Kind, s.Type, s.Decl, s.Elem = List, d.Type, d, stype.NewNamed(elemName)
	s.Elem.Ann.NonNull = ann.ElementNonNull
	return nil
}
