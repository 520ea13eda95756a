// Package stype defines the Stype: Mockingbird's abstract-syntax
// representation of a source-language declaration (§4 of the paper). The C,
// Java, and CORBA IDL parsers all produce Stypes; annotations (both language
// defaults and programmer-supplied ones) are recorded directly on Stype
// nodes; and the lowering pass translates annotated Stypes into Mtypes.
//
// Every syntactic occurrence of a type gets its own Stype node — a `Point`
// parameter and a `Point` field reference the same declaration but are
// distinct Named nodes — so annotations naturally apply per use-site.
package stype

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Lang identifies the source language of a declaration.
type Lang uint8

// Supported source languages.
const (
	LangC Lang = iota + 1
	LangJava
	LangIDL
	LangGo
)

// String returns the conventional language name.
func (l Lang) String() string { return nameOf(langNames[:], l, "lang") }

// MarshalText writes the language's name (the form a project file holds).
func (l Lang) MarshalText() ([]byte, error) { return text(langNames[:], l) }

// UnmarshalText reads a language name; an unknown one is an error.
func (l *Lang) UnmarshalText(b []byte) error { return parse(langNames[:], l, b, "language") }

// TKind discriminates Stype node constructors.
type TKind uint8

// Stype node kinds.
const (
	KPrim      TKind = iota + 1 // language primitive
	KNamed                      // reference to another declaration by name
	KStruct                     // C/IDL struct; aggregates passed by value
	KUnion                      // C/IDL union
	KClass                      // Java/C++ class: fields + methods
	KInterface                  // Java/IDL interface: methods only
	KEnum                       // enumeration
	KPointer                    // C pointer / Java-IDL object reference
	KArray                      // array (fixed or indefinite length)
	KSequence                   // ordered collection of indefinite size
	KFunc                       // function declaration
)

// String returns the lower-case node-kind name.
func (k TKind) String() string { return nameOf(kindNames[:], k, "tkind") }

// MarshalText writes the kind's name (the form a project file holds).
func (k TKind) MarshalText() ([]byte, error) { return text(kindNames[:], k) }

// UnmarshalText reads a kind name; an unknown one is an error.
func (k *TKind) UnmarshalText(b []byte) error { return parse(kindNames[:], k, b, "kind") }

// Prim identifies a language-neutral primitive type. The parsers map each
// language's primitives onto these (C int → I32 under the ILP32/LP64 data
// models we support, Java boolean → Bool, IDL long → I32, …).
type Prim uint8

// Primitive types.
const (
	PVoid Prim = iota + 1
	PBool
	PI8
	PU8
	PI16
	PU16
	PI32
	PU32
	PI64
	PU64
	PF32
	PF64
	PChar8  // narrow character (C char, IDL char)
	PChar16 // wide character (Java char, wchar_t, IDL wchar)
)

// String returns the primitive's name.
func (p Prim) String() string { return nameOf(primNames[:], p, "prim") }

// MarshalText writes the primitive's name (the form a project file holds).
func (p Prim) MarshalText() ([]byte, error) { return text(primNames[:], p) }

// UnmarshalText reads a primitive name; an unknown one is an error.
func (p *Prim) UnmarshalText(b []byte) error { return parse(primNames[:], p, b, "primitive") }

// The one name table of each of Lang, TKind and Prim: String and the text
// form a project file holds both read it.
var (
	langNames = [...]string{LangC: "c", LangJava: "java", LangIDL: "idl", LangGo: "go"}
	kindNames = [...]string{
		KPrim: "prim", KNamed: "named", KStruct: "struct", KUnion: "union",
		KClass: "class", KInterface: "interface", KEnum: "enum",
		KPointer: "pointer", KArray: "array", KSequence: "sequence", KFunc: "func",
	}
	primNames = [...]string{
		PVoid: "void", PBool: "bool",
		PI8: "int8", PU8: "uint8", PI16: "int16", PU16: "uint16",
		PI32: "int32", PU32: "uint32", PI64: "int64", PU64: "uint64",
		PF32: "float32", PF64: "float64",
		PChar8: "char8", PChar16: "char16",
	}
)

// nameOf returns v's name in names, or prefix(v) when it has none.
func nameOf[T ~uint8](names []string, v T, prefix string) string {
	if int(v) < len(names) && names[v] != "" {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", prefix, uint8(v))
}

// text returns v's name in names; a value with none has no text form.
func text[T ~uint8](names []string, v T) ([]byte, error) {
	if int(v) < len(names) && names[v] != "" {
		return []byte(names[v]), nil
	}
	return nil, fmt.Errorf("stype: %v has no name", v)
}

// parse sets *v to the value names calls b; a name it lacks is an error.
func parse[T ~uint8](names []string, v *T, b []byte, what string) error {
	for i, name := range names {
		if name != "" && name == string(b) {
			*v = T(i)
			return nil
		}
	}
	return fmt.Errorf("unknown %s %q", what, b)
}

// Mode is a parameter passing direction. The default (ModeUnset) means the
// language rule applies: all parameters are inputs and the return value is
// the single output (§3.3).
type Mode uint8

// Parameter modes.
const (
	ModeUnset Mode = iota
	ModeIn
	ModeOut
	ModeInOut
)

// String returns the IDL keyword for the mode.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return "unset"
}

var modeNames = [...]string{ModeUnset: "unset", ModeIn: "in", ModeOut: "out", ModeInOut: "inout"}

// RangeAnn is an integer range override, held as decimal strings so that
// ranges beyond int64 (e.g. 0..2^64-1) survive serialization.
type RangeAnn struct {
	Lo string `json:"lo"`
	Hi string `json:"hi"`
}

// Ann is the set of annotations attached to one Stype node. Zero values
// mean "no annotation"; lowering applies language defaults where no
// annotation is present. The vocabulary follows §3 of the paper.
type Ann struct {
	// NonNull states a pointer/reference is never null, eliding the
	// Choice(Unit, τ) lowering (§3.2).
	NonNull bool `json:"nonNull,omitempty"`
	// NoAlias states a reference never introduces an alias, so an
	// aggregate containing two such references contains two distinct
	// objects (§3 example: the two Points of every Line).
	NoAlias bool `json:"noAlias,omitempty"`
	// Mode is a parameter direction annotation (§3.3).
	Mode Mode `json:"mode,omitempty"`
	// FixedLen provides a static length for a pointer/array, lowering it
	// to a Record of that many elements (§3.2). Zero means unset.
	FixedLen int `json:"fixedLen,omitempty"`
	// LengthFrom names a sibling parameter that carries the runtime
	// length of this array (the fitter `count` convention). The array
	// lowers to the recursive list encoding and the named parameter is
	// consumed by the binding rather than appearing in the Mtype.
	LengthFrom string `json:"lengthFrom,omitempty"`
	// Range overrides the integer range (§3.1).
	Range *RangeAnn `json:"range,omitempty"`
	// AsChar forces an integral type to be a Character (true) or Integer
	// (false) Mtype; nil means the language convention applies (§3.1).
	AsChar *bool `json:"asChar,omitempty"`
	// Repertoire overrides the character repertoire ("ascii", "latin1",
	// "ucs2", "unicode").
	Repertoire string `json:"repertoire,omitempty"`
	// ByValue forces a class to lower as a Record of its fields (true) or
	// as an object reference port (false); nil means the language default
	// (Java classes by reference, C/IDL structs by value).
	ByValue *bool `json:"byValue,omitempty"`
	// CollectionOf states a class is a homogeneous ordered collection of
	// the named element type (e.g. PointVector contains only Point),
	// lowering to the recursive list encoding.
	CollectionOf string `json:"collectionOf,omitempty"`
	// ElementNonNull states collection elements are never null.
	ElementNonNull bool `json:"elementNonNull,omitempty"`
	// Ignore drops the node (a field or method) from the lowering.
	Ignore bool `json:"ignore,omitempty"`
}

// IsZero reports whether no annotation is set.
func (a Ann) IsZero() bool {
	return !a.NonNull && !a.NoAlias && a.Mode == ModeUnset && a.FixedLen == 0 &&
		a.LengthFrom == "" && a.Range == nil && a.AsChar == nil &&
		a.Repertoire == "" && a.ByValue == nil && a.CollectionOf == "" &&
		!a.ElementNonNull && !a.Ignore
}

// Merge overlays o on top of a: every annotation set in o wins.
func (a Ann) Merge(o Ann) Ann {
	out := a
	if o.NonNull {
		out.NonNull = true
	}
	if o.NoAlias {
		out.NoAlias = true
	}
	if o.Mode != ModeUnset {
		out.Mode = o.Mode
	}
	if o.FixedLen != 0 {
		out.FixedLen = o.FixedLen
	}
	if o.LengthFrom != "" {
		out.LengthFrom = o.LengthFrom
	}
	if o.Range != nil {
		out.Range = o.Range
	}
	if o.AsChar != nil {
		out.AsChar = o.AsChar
	}
	if o.Repertoire != "" {
		out.Repertoire = o.Repertoire
	}
	if o.ByValue != nil {
		out.ByValue = o.ByValue
	}
	if o.CollectionOf != "" {
		out.CollectionOf = o.CollectionOf
	}
	if o.ElementNonNull {
		out.ElementNonNull = true
	}
	if o.Ignore {
		out.Ignore = true
	}
	return out
}

// Field is a named member of a struct, union, or class.
type Field struct {
	Name string `json:"name"`
	Type *Type  `json:"type"`
	// Embedded marks a Go embedded (anonymous) field: the field is named
	// after its type, and lowering flattens the embedded struct's fields
	// into the outer record per Go's promotion rules.
	Embedded bool `json:"embedded,omitempty"`
}

// Param is a function or method parameter.
type Param struct {
	Name string `json:"name"`
	Type *Type  `json:"type"`
}

// Method is a named operation of a class or interface. Ann carries
// method-level annotations (only Ignore is meaningful at this level);
// parameter and result annotations live on their own type nodes.
type Method struct {
	Name   string  `json:"name"`
	Params []Param `json:"params,omitempty"`
	Result *Type   `json:"result,omitempty"` // nil means void
	Ann    Ann     `json:"ann"`
	// Oneway marks an IDL oneway operation: fire-and-forget message
	// passing with no reply port in the lowering (§3.3, §5's messaging
	// case study).
	Oneway bool `json:"oneway,omitempty"`
}

// Type is an Stype node. Exactly the fields relevant to Kind are set. Its
// JSON form, the one a project file holds, leaves out Target: a loaded
// universe's Resolve binds it again.
type Type struct {
	Kind TKind `json:"kind"`
	Ann  Ann   `json:"ann"`

	// KPrim.
	Prim Prim `json:"prim,omitempty"`

	// KNamed: the referenced declaration name. Resolve fills Target.
	Name   string `json:"name,omitempty"`
	Target *Decl  `json:"-"`

	// Composites (KStruct, KUnion, KClass, KInterface).
	Fields  []Field  `json:"fields,omitempty"`
	Methods []Method `json:"methods,omitempty"`
	Super   string   `json:"super,omitempty"` // single inheritance parent, "" if none
	// Embeds lists additional method-set contributors beyond Super: Go
	// embedded interfaces, Java implements/multi-extends lists, IDL
	// secondary interface bases. Method collection walks Super and Embeds
	// breadth-first; same-depth collisions are a typed lowering error.
	Embeds []string `json:"embeds,omitempty"`

	// KEnum.
	EnumNames []string `json:"enumNames,omitempty"`

	// KPointer, KArray, KSequence element.
	ElemType *Type `json:"elem,omitempty"`

	// KArray length: >= 0 fixed, -1 indefinite (size unknown until runtime).
	Len int `json:"len,omitempty"`

	// KFunc.
	Params []Param `json:"params,omitempty"`
	Result *Type   `json:"result,omitempty"` // nil means void
}

// NewPrim returns a primitive Stype node.
func NewPrim(p Prim) *Type { return &Type{Kind: KPrim, Prim: p} }

// NewNamed returns an unresolved reference to the named declaration.
func NewNamed(name string) *Type { return &Type{Kind: KNamed, Name: name} }

// Clone returns a copy of t and of every node below it up to the names
// that reference other declarations, so that each use of a type carries
// its own annotations on every node a path reaches (Clone(nil) is nil).
func (t *Type) Clone() *Type {
	if t == nil {
		return nil
	}
	c := *t
	c.Fields, c.Methods = slices.Clone(t.Fields), slices.Clone(t.Methods)
	for i := range c.Fields {
		c.Fields[i].Type = t.Fields[i].Type.Clone()
	}
	for i, m := range t.Methods {
		c.Methods[i].Params, c.Methods[i].Result = cloneParams(m.Params), m.Result.Clone()
	}
	c.ElemType, c.Params, c.Result = t.ElemType.Clone(), cloneParams(t.Params), t.Result.Clone()
	return &c
}

func cloneParams(ps []Param) []Param {
	out := slices.Clone(ps)
	for i := range out {
		out[i].Type = ps[i].Type.Clone()
	}
	return out
}

// NewPointer returns a pointer/reference to elem.
func NewPointer(elem *Type) *Type { return &Type{Kind: KPointer, ElemType: elem} }

// NewArray returns an array of elem; length -1 means indefinite.
func NewArray(elem *Type, length int) *Type {
	return &Type{Kind: KArray, ElemType: elem, Len: length}
}

// NewSequence returns an ordered collection of indefinite size.
func NewSequence(elem *Type) *Type { return &Type{Kind: KSequence, ElemType: elem} }

// Decl is a named top-level declaration in a Universe.
type Decl struct {
	Name string
	Lang Lang
	Type *Type
}

// Universe is an ordered set of declarations loaded from one source (one
// language). Named references resolve within their universe.
type Universe struct {
	lang  Lang
	order []string
	decls map[string]*Decl
}

// NewUniverse returns an empty universe for the given language.
func NewUniverse(lang Lang) *Universe {
	return &Universe{lang: lang, decls: make(map[string]*Decl)}
}

// Lang returns the universe's source language.
func (u *Universe) Lang() Lang { return u.lang }

// Add inserts a declaration. It fails if the name is already declared.
func (u *Universe) Add(name string, ty *Type) (*Decl, error) {
	if name == "" {
		return nil, fmt.Errorf("stype: empty declaration name")
	}
	if ty == nil {
		return nil, fmt.Errorf("stype: declaration %q has nil type", name)
	}
	if _, dup := u.decls[name]; dup {
		return nil, fmt.Errorf("stype: duplicate declaration %q", name)
	}
	d := &Decl{Name: name, Lang: u.lang, Type: ty}
	u.decls[name] = d
	u.order = append(u.order, name)
	return d, nil
}

// Lookup returns the declaration with the given name, or nil.
func (u *Universe) Lookup(name string) *Decl { return u.decls[name] }

// Names returns the declaration names in insertion order.
func (u *Universe) Names() []string { return append([]string(nil), u.order...) }

// Decls returns all declarations in insertion order.
func (u *Universe) Decls() []*Decl {
	out := make([]*Decl, 0, len(u.order))
	for _, name := range u.order {
		out = append(out, u.decls[name])
	}
	return out
}

// Resolve binds every Named node reachable from the universe's declarations
// to its target declaration, in one walk of them all. Unresolvable names
// are reported together. The walk also refuses a node that lacks a child
// its kind requires (see lacks), so a universe read from a file is held
// to the shape a parser's has.
func (u *Universe) Resolve() error { return u.resolve(false) }

// ResolveScoped is Resolve for IDL's scoped names. A reference to C
// written inside scope A::B is recorded as "A::B" + ScopeMark + "C" and
// binds to A::B::C, A::C or C, the first declared; one written at the
// top level, or from the global scope as "::C", binds to C. Each
// reference, and each interface's Super, is rewritten to the name it
// binds to; the first that binds to nothing is the error.
func (u *Universe) ResolveScoped() error { return u.resolve(true) }

// ScopeMark separates a scoped reference's scope from its name.
const ScopeMark = "\x00"

func (u *Universe) resolve(scoped bool) error {
	var missing []string
	seen, seenMissing := make(map[*Type]bool), make(map[string]bool)
	for _, name := range u.order {
		d := u.decls[name]
		var err error
		walk(d.Type, seen, func(n *Type) {
			if err != nil {
				return
			}
			if what := lacks(n); what != "" {
				err = fmt.Errorf("stype: declaration %s: %s", d.Name, what)
				return
			}
			if n.Kind != KNamed {
				return
			}
			var written string
			if n.Target, written = u.bind(&n.Name, scoped); n.Target != nil {
				return
			}
			if scoped {
				err = fmt.Errorf("unresolved name %q in %s", written, d.Name)
			} else if !seenMissing[n.Name] {
				seenMissing[n.Name] = true
				missing = append(missing, n.Name)
			}
		})
		if err != nil {
			return err
		}
		if scoped && d.Type.Super != "" {
			if target, written := u.bind(&d.Type.Super, true); target == nil {
				return fmt.Errorf("unresolved base interface %q of %s", written, d.Name)
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("stype: unresolved type names: %s", strings.Join(missing, ", "))
	}
	return nil
}

// lacks names what n lacks that its kind requires: a kind, the element
// of a pointer, array or sequence, or the type of a field or parameter.
// It returns "" for a well-formed node; a nil result is void.
func lacks(n *Type) string {
	switch {
	case n.Kind == 0 || n.Kind > KFunc:
		return "a node has no kind"
	case n.ElemType == nil && (n.Kind == KPointer || n.Kind == KArray || n.Kind == KSequence):
		return n.Kind.String() + " has no element"
	}
	for _, f := range n.Fields {
		if f.Type == nil {
			return fmt.Sprintf("field %s has no type", f.Name)
		}
	}
	for _, p := range n.Params {
		if p.Type == nil {
			return fmt.Sprintf("parameter %s has no type", p.Name)
		}
	}
	for _, m := range n.Methods {
		for _, p := range m.Params {
			if p.Type == nil {
				return fmt.Sprintf("parameter %s of method %s has no type", p.Name, m.Name)
			}
		}
	}
	return ""
}

// bind returns the declaration the reference *ref names and the name as
// written in it. A scoped reference (see ResolveScoped) is rewritten to
// the full name it binds to.
func (u *Universe) bind(ref *string, scoped bool) (*Decl, string) {
	if !scoped {
		return u.decls[*ref], *ref
	}
	scope, name, found := strings.Cut(*ref, ScopeMark)
	if !found {
		scope, name = "", *ref
	}
	name = strings.TrimPrefix(name, "::")
	for {
		full := name
		if scope != "" {
			full = scope + "::" + name
		}
		if d := u.decls[full]; d != nil {
			*ref = full
			return d, name
		}
		if scope == "" {
			return nil, name
		}
		scope = scope[:max(strings.LastIndex(scope, "::"), 0)]
	}
}

// walk calls fn on every Stype node reachable from n, in preorder. It
// visits each node with children once, recording it in seen, and does
// not follow Named targets (which would cross into other declarations).
// A leaf two such nodes share is visited under each: checking a leaf
// costs as much as visiting it, and so the set stays small.
func walk(n *Type, seen map[*Type]bool, fn func(*Type)) {
	if n == nil {
		return
	}
	if n.Kind != KPrim && n.Kind != KNamed {
		if seen[n] {
			return
		}
		seen[n] = true
	}
	fn(n)
	for _, f := range n.Fields {
		walk(f.Type, seen, fn)
	}
	for _, m := range n.Methods {
		for _, p := range m.Params {
			walk(p.Type, seen, fn)
		}
		walk(m.Result, seen, fn)
	}
	walk(n.ElemType, seen, fn)
	for _, p := range n.Params {
		walk(p.Type, seen, fn)
	}
	walk(n.Result, seen, fn)
}

// String renders the node for diagnostics (shallow for composites).
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case KPrim:
		return t.Prim.String()
	case KNamed:
		return t.Name
	case KStruct, KUnion, KClass, KInterface, KEnum:
		return t.Kind.String() + " " + t.Name
	case KPointer:
		return t.ElemType.String() + "*"
	case KArray:
		if t.Len < 0 {
			return t.ElemType.String() + "[]"
		}
		return fmt.Sprintf("%s[%d]", t.ElemType, t.Len)
	case KSequence:
		return "sequence<" + t.ElemType.String() + ">"
	case KFunc:
		var sb strings.Builder
		sb.WriteString("func(")
		for i, p := range t.Params {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(p.Type.String())
			if p.Name != "" {
				sb.WriteString(" " + p.Name)
			}
		}
		sb.WriteString(")")
		if t.Result != nil {
			sb.WriteString(" " + t.Result.String())
		}
		return sb.String()
	default:
		return "<invalid>"
	}
}

// Signature renders a method for diagnostics.
func (m Method) Signature() string {
	var sb strings.Builder
	sb.WriteString(m.Name)
	sb.WriteString("(")
	for i, p := range m.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.Type.String())
	}
	sb.WriteString(")")
	if m.Result != nil {
		sb.WriteString(" " + m.Result.String())
	}
	return sb.String()
}
