// Package lower translates annotated Stype declarations into Mtypes,
// implementing §3 of the paper:
//
//   - integral types become Integer Mtypes with language-default ranges,
//     booleans 0..1, enums 0..n-1 (§3.1);
//   - char types become Character Mtypes unless annotated `int` (§3.1);
//   - floats become Real Mtypes (§3.1);
//   - structs, by-value classes, and fixed-size arrays become Records
//     (§3.2);
//   - unions become Choices; nullable pointers and references become
//     Choice(Unit, τ) unless annotated nonnull (§3.2);
//   - indefinite arrays, sequences, Vectors, and recursive declarations
//     become recursive list encodings / cyclic Mtype graphs (§3.2);
//   - functions become port(Record(I, port(O))) and object references
//     port(Choice(invocations)) (§3.3).
//
// The package owns the reading of an annotated declaration. ShapeOf
// decides once what a use is — typedef overlay, annotations, language
// defaults — and the Mtype builder here is a switch on that Shape, as are
// bind.C, bind.J and fuse's leaf enumerators: no other package reads an
// annotation's meaning (TestLOCLedger counts the sites). DESIGN.md §3
// has the table from use to shape to each representation.
//
// Lowering is memoized per declaration variant, so a declaration used in
// many places lowers to one shared (possibly cyclic) Mtype graph, and a
// universe has one node per leaf: every use of an Integer, Character,
// Real or Unit of one value and tag is the same node.
package lower

import (
	"errors"
	"fmt"
	"math/big"
	"unicode"
	"unicode/utf8"

	"repro/internal/limits"
	"repro/internal/mtype"
	"repro/internal/stype"
)

// ErrAmbiguous reports that two embedded types promote the same member
// name at the same depth, so no single declaration owns it. Go makes the
// colliding selector a compile error at the use site; a wire contract has
// no use site, so the collision is an error at lowering time. Reachable
// from Go embedding and from Java classes implementing two interfaces
// that declare the same method.
var ErrAmbiguous = errors.New("ambiguous promotion")

// Lowerer lowers declarations of one universe. It is not safe for
// concurrent use.
type Lowerer struct {
	u *stype.Universe
	// memo maps (decl, variant) to finished or in-progress Mtypes; an
	// in-progress entry is a Recursive node that becomes a back-edge when
	// re-entered, which is exactly how cyclic declarations produce the
	// cyclic graphs of Figure 8.
	memo map[memoKey]*memoEntry
	// roots memoizes finished, validated root lowerings by declaration
	// name, so a hot Decl is a single map probe instead of a re-walk
	// plus re-validation of the whole graph. Annotation invalidates by
	// replacing the Lowerer wholesale (core.Session.Annotate), so
	// entries can never go stale.
	roots map[string]*mtype.Type
	// fixed counts the elements of the fixed-length records built so
	// far: a universe lowers into at most limits.DefaultMaxTokens of
	// them, as many as one source may hold tokens, so a hostile length
	// is a budget error rather than an allocation that ends the process.
	fixed int
	// leaves holds the universe's one node per leaf value. Nothing tags or
	// changes a leaf once built, so all its uses may share it. The table
	// is the universe's own: shared across universes, a Java int and an
	// IDL long would be one node, and their pair a same-node pair.
	leaves map[leafKey]*mtype.Type
}

// leafKey is the value of a leaf Mtype: its kind, an integer's bounds as
// machine words (as mtype.IntegerWords gives them), a character's
// repertoire or a real's width in lo, and its tag.
type leafKey struct {
	kind   mtype.Kind
	signed bool
	lo, hi uint64
	tag    string
}

type memoKey struct {
	decl    *stype.Decl
	byValue bool
}

type memoEntry struct {
	rec  *mtype.Type // μ placeholder handed to re-entrant references
	done *mtype.Type // final result; nil while in progress
	used bool        // whether the placeholder was referenced
}

// New returns a Lowerer for the universe.
func New(u *stype.Universe) *Lowerer {
	return &Lowerer{
		u:      u,
		memo:   make(map[memoKey]*memoEntry),
		roots:  make(map[string]*mtype.Type),
		leaves: make(map[leafKey]*mtype.Type),
	}
}

// leaf returns the universe's node for the leaf value k, which mk builds
// the first time.
func (l *Lowerer) leaf(k leafKey, mk func() *mtype.Type) *mtype.Type {
	t := l.leaves[k]
	if t == nil {
		t = mtype.Intern(mk())
		l.leaves[k] = t
	}
	return t
}

// unit returns the universe's Unit node.
func (l *Lowerer) unit() *mtype.Type { return l.leaf(leafKey{kind: mtype.KindUnit}, mtype.Unit) }

// integer returns the universe's node for the range [lo, hi]. A range
// wider than a machine word gets a node of its own.
func (l *Lowerer) integer(lo, hi *big.Int) *mtype.Type {
	k := leafKey{kind: mtype.KindInteger, signed: lo.Sign() < 0}
	fits := hi.IsUint64()
	if k.signed {
		k.lo, k.hi, fits = uint64(lo.Int64()), uint64(hi.Int64()), lo.IsInt64() && hi.IsInt64()
	} else if fits {
		k.lo, k.hi = lo.Uint64(), hi.Uint64()
	}
	if !fits {
		return mtype.NewInteger(lo, hi)
	}
	return l.leaf(k, func() *mtype.Type { return mtype.NewInteger(lo, hi) })
}

// bits returns the universe's node for a binary integer of the width.
func (l *Lowerer) bits(bits int, signed bool) *mtype.Type {
	if bits > 64 {
		return mtype.NewIntegerBits(bits, signed)
	}
	k := leafKey{kind: mtype.KindInteger, signed: signed, hi: ^uint64(0) >> (64 - bits)}
	if signed {
		k.hi >>= 1
		k.lo = ^k.hi
	}
	return l.leaf(k, func() *mtype.Type { return mtype.NewIntegerBits(bits, signed) })
}

// Decl lowers the named declaration to its Mtype.
func (l *Lowerer) Decl(name string) (*mtype.Type, error) {
	if ty, ok := l.roots[name]; ok {
		return ty, nil
	}
	d := l.u.Lookup(name)
	if d == nil {
		return nil, fmt.Errorf("lower: no declaration %q", name)
	}
	ty, err := l.lowerRoot(d)
	if err != nil {
		return nil, err
	}
	if err := mtype.Validate(ty); err != nil {
		return nil, fmt.Errorf("lower: %s: %w", name, err)
	}
	l.roots[name] = ty
	return ty, nil
}

// lowerRoot lowers a declaration presented directly to the tool (the types
// a programmer selects in the Comparer).
func (l *Lowerer) lowerRoot(d *stype.Decl) (*mtype.Type, error) {
	t := d.Type
	switch t.Kind {
	case stype.KFunc:
		return l.lowerFunc(t.Params, t.Result)
	case stype.KInterface:
		return l.lowerObjectPort(d)
	case stype.KClass:
		// A class decl at the root is inspected as a value shape when it
		// has fields (the §2 Point/Line usage) and as an object port when
		// it only has methods, unless byvalue/byref says otherwise.
		byValue := len(t.Fields) > 0
		switch {
		case t.Ann.ByValue != nil:
			byValue = *t.Ann.ByValue
		case isCollection(l.u, d):
			var s Shape
			if err := s.collection(l.u, d, t.Ann); err != nil {
				return nil, err
			}
			return l.lowerShape(&s)
		}
		if !byValue {
			return l.lowerObjectPort(d)
		}
	}
	return l.lowerDeclValue(d)
}

// memoized builds the lowering of a declaration variant once, so that
// recursive declarations become cyclic graphs: a re-entrant reference gets
// the variant's μ node, which build's result then becomes the body of.
func (l *Lowerer) memoized(key memoKey, build func() (*mtype.Type, error)) (*mtype.Type, error) {
	if e, ok := l.memo[key]; ok {
		if e.done != nil {
			return e.done, nil
		}
		// Re-entered while in progress: hand out the μ node.
		e.used = true
		return e.rec, nil
	}
	e := &memoEntry{rec: mtype.NewRecursive().SetTag(key.decl.Name)}
	l.memo[key] = e
	body, err := build()
	if err != nil {
		delete(l.memo, key)
		return nil, err
	}
	if e.used {
		e.rec.SetBody(body)
		e.done = e.rec
	} else {
		e.done = body
	}
	return e.done, nil
}

// lowerDeclValue lowers a declaration's content by value.
func (l *Lowerer) lowerDeclValue(d *stype.Decl) (*mtype.Type, error) {
	return l.memoized(memoKey{decl: d, byValue: true}, func() (*mtype.Type, error) { return l.lowerValue(d.Type) })
}

// lowerObjectPort lowers a class/interface declaration as an object
// reference target: port(Choice(invocation Mtypes)), collapsing a
// single-method object to port(invocation) (§3.3, §3.4). Methods of base
// interfaces/classes are included, innermost last.
func (l *Lowerer) lowerObjectPort(d *stype.Decl) (*mtype.Type, error) {
	return l.memoized(memoKey{decl: d}, func() (*mtype.Type, error) {
		methods, err := l.collectMethods(d, nil)
		if err != nil {
			return nil, err
		}
		var alts []mtype.Alt
		for _, m := range methods {
			if m.Ann.Ignore {
				continue
			}
			inv, err := l.lowerInvocation(m)
			if err != nil {
				return nil, fmt.Errorf("method %s.%s: %w", d.Name, m.Name, err)
			}
			alts = append(alts, mtype.Alt{Name: m.Name, Type: inv})
		}
		var elem *mtype.Type
		switch len(alts) {
		case 0:
			elem = l.unit()
		case 1:
			elem = alts[0].Type
		default:
			elem = mtype.NewChoice(alts...)
		}
		return mtype.NewPort(elem).SetTag(d.Name), nil
	})
}

// collectMethods gathers the method set of d: its own methods, the Super
// chain, the Embeds list, and (for Go) value-embedded struct fields,
// walked breadth-first per Go's promotion rules. A name at a shallower
// depth shadows deeper declarations (an override); two distinct
// contributors promoting one name at the same depth wrap ErrAmbiguous.
// Methods are emitted deepest level first, preserving the old
// super-chain ordering (base methods first, own methods last).
func (l *Lowerer) collectMethods(d *stype.Decl, seen map[string]bool) ([]stype.Method, error) {
	if seen == nil {
		seen = make(map[string]bool)
	}
	type claim struct {
		depth int
		owner string
	}
	claimed := make(map[string]claim)
	var levels [][]stype.Method
	level := []*stype.Decl{d}
	seen[d.Name] = true
	for depth := 0; len(level) > 0; depth++ {
		var kept []stype.Method
		var next []*stype.Decl
		for _, decl := range level {
			for _, m := range decl.Type.Methods {
				if unexported(l.u, m.Name) {
					continue
				}
				if c, ok := claimed[m.Name]; ok {
					if c.depth < depth {
						continue // shadowed by a shallower declaration
					}
					if c.owner != decl.Name {
						return nil, fmt.Errorf(
							"lower: %w: method %s of %s promoted by both %s and %s at depth %d",
							ErrAmbiguous, m.Name, d.Name, c.owner, decl.Name, depth)
					}
					// Same declaration, same depth: an overload set.
				} else {
					claimed[m.Name] = claim{depth: depth, owner: decl.Name}
				}
				kept = append(kept, m)
			}
			for _, b := range l.methodBases(decl) {
				base := l.u.Lookup(b)
				if base == nil {
					// Unknown bases (e.g. external library classes)
					// contribute no methods; java.util.Vector is
					// registered, so this only skips classes outside the
					// loaded set.
					continue
				}
				if seen[base.Name] {
					continue // diamond (or cycle): the first visit wins
				}
				seen[base.Name] = true
				next = append(next, base)
			}
		}
		levels = append(levels, kept)
		level = next
	}
	var out []stype.Method
	for i := len(levels) - 1; i >= 0; i-- {
		out = append(out, levels[i]...)
	}
	return out, nil
}

// methodBases lists the method-set contributors one level below decl: the
// single-inheritance Super, the Embeds list, and Go's embedded struct
// fields, T or *T.
func (l *Lowerer) methodBases(decl *stype.Decl) []string {
	var bases []string
	if decl.Type.Super != "" {
		bases = append(bases, decl.Type.Super)
	}
	bases = append(bases, decl.Type.Embeds...)
	for _, f := range decl.Type.Fields {
		t := f.Type
		if f.Embedded && t != nil && t.Kind == stype.KPointer {
			t = t.ElemType
		}
		if f.Embedded && t != nil && t.Kind == stype.KNamed {
			bases = append(bases, t.Name)
		}
	}
	return bases
}

// unexported reports that a Go member name is unexported and therefore
// not part of the wire contract. Other languages encode visibility in
// modifiers, which their parsers already honor.
func unexported(u *stype.Universe, name string) bool {
	if u.Lang() != stype.LangGo {
		return false
	}
	r, _ := utf8.DecodeRuneInString(name)
	return !unicode.IsUpper(r)
}

// lowerInvocation lowers one method to its invocation Mtype:
// Record(inputs..., port(Record(outputs...))), or Record(inputs...) for
// oneway methods (§3.3).
func (l *Lowerer) lowerInvocation(m stype.Method) (*mtype.Type, error) {
	if m.Oneway {
		inputs, _, err := l.lowerParams(m.Params, nil)
		if err != nil {
			return nil, err
		}
		return mtype.NewRecord(inputs...).SetTag(m.Name), nil
	}
	port, err := l.lowerFunc(m.Params, m.Result)
	if err != nil {
		return nil, err
	}
	// lowerFunc returns port(Record(...)); an invocation is the record
	// itself (the object port carries the outer port).
	return port.Elem(), nil
}

// lowerFunc lowers a function to port(Record(I..., port(Record(O...)))).
// Parameters annotated out contribute only to O; inout to both; the result
// is always an output. Parameters named by a sibling's length-from are
// consumed by the length relationship and appear in neither record.
func (l *Lowerer) lowerFunc(params []stype.Param, result *stype.Type) (*mtype.Type, error) {
	sig, err := SignatureOf(params, result)
	if err != nil {
		return nil, err
	}
	inputs, outputs, err := l.lowerParams(params, &sig)
	if err != nil {
		return nil, err
	}
	reply := mtype.NewPort(mtype.NewRecord(outputs...)).SetTag("reply")
	request := append(inputs, mtype.Field{Name: "reply", Type: reply})
	return mtype.NewPort(mtype.NewRecord(request...)), nil
}

// lowerParams lowers parameters into input and output fields. sig may be
// nil for oneway methods (all inputs).
func (l *Lowerer) lowerParams(params []stype.Param, sig *Signature) ([]mtype.Field, []mtype.Field, error) {
	var inputs, outputs []mtype.Field
	for _, p := range params {
		role := RoleIn
		if sig != nil {
			role = sig.Roles[p.Name]
		}
		if role == RoleLength {
			continue
		}
		ty, err := l.lowerValue(p.Type)
		if err != nil {
			return nil, nil, fmt.Errorf("parameter %s: %w", p.Name, err)
		}
		f := mtype.Field{Name: p.Name, Type: ty}
		switch role {
		case RoleIn:
			inputs = append(inputs, f)
		case RoleOut:
			outputs = append(outputs, f)
		case RoleInOut:
			inputs = append(inputs, f)
			outputs = append(outputs, f)
		}
	}
	if sig != nil && sig.Result != nil {
		ty, err := l.lowerValue(sig.Result)
		if err != nil {
			return nil, nil, fmt.Errorf("result: %w", err)
		}
		outputs = append(outputs, mtype.Field{Name: "return", Type: ty})
	}
	return inputs, outputs, nil
}

// lowerValue lowers a type use to its Mtype: the Mtype of its Shape.
func (l *Lowerer) lowerValue(t *stype.Type) (*mtype.Type, error) {
	s, err := ShapeOf(l.u, t)
	if err != nil {
		return nil, err
	}
	return l.lowerShape(&s)
}

// lowerShape is the first consumer of a Shape, so the Mtype and the shape
// cannot part ways: scalars by their width or range (§3.1), records,
// choices and the list encoding (§3.2), ports (§3.3).
func (l *Lowerer) lowerShape(s *Shape) (*mtype.Type, error) {
	switch s.Kind {
	case Unit:
		return l.unit(), nil
	case Bool:
		return l.bits(1, false), nil
	case Integer:
		if s.Lo != nil {
			return l.integer(s.Lo, s.Hi), nil
		}
		return l.bits(s.Bits, s.Signed), nil
	case Character:
		return l.leaf(leafKey{kind: mtype.KindCharacter, lo: uint64(s.Rep)}, func() *mtype.Type { return mtype.NewCharacter(s.Rep) }), nil
	case Real:
		if s.Bits == 32 {
			return l.leaf(leafKey{kind: mtype.KindReal, lo: 32}, mtype.NewFloat32), nil
		}
		return l.leaf(leafKey{kind: mtype.KindReal, lo: 64}, mtype.NewFloat64), nil
	case Enum:
		tag := s.Type.Name
		return l.leaf(leafKey{kind: mtype.KindInteger, hi: uint64(s.N - 1), tag: tag}, func() *mtype.Type { return mtype.NewEnum(s.N).SetTag(tag) }), nil
	case Record, Union:
		if s.Decl != nil {
			return l.memoized(memoKey{decl: s.Decl, byValue: true}, func() (*mtype.Type, error) { return l.lowerMembers(s) })
		}
		return l.lowerMembers(s)
	case Fixed:
		if s.N > limits.DefaultMaxTokens-l.fixed {
			return nil, limits.Exceededf("lower: fixed-length arrays of %s exceed %d elements", s.Type, limits.DefaultMaxTokens)
		}
		l.fixed += s.N
		elem, err := l.lowerValue(s.Elem)
		if err != nil {
			return nil, err
		}
		fields := make([]mtype.Field, s.N)
		for i := range fields {
			fields[i] = mtype.Field{Type: elem}
		}
		return mtype.NewRecord(fields...), nil
	case List:
		elem, err := l.lowerValue(s.Elem)
		if err != nil && s.Decl != nil {
			err = fmt.Errorf("lower: collection %s: %w", s.Decl.Name, err)
		}
		if err != nil {
			return nil, err
		}
		// mtype.NewList's encoding, over the universe's Unit node.
		list := mtype.NewRecursive()
		cons := mtype.NewRecord(mtype.Field{Name: "head", Type: elem}, mtype.Field{Name: "tail", Type: list})
		list.SetBody(mtype.NewChoice(mtype.Alt{Name: "nil", Type: l.unit()}, mtype.Alt{Name: "cons", Type: cons}))
		if s.Decl != nil {
			list.SetTag(s.Decl.Name)
		}
		return list, nil
	case Optional, Deref:
		inner, err := l.lowerShape(s.Inner)
		if err != nil || s.Kind == Deref {
			return inner, err
		}
		// mtype.NewOptional's encoding, over the universe's Unit node.
		return mtype.NewChoice(mtype.Alt{Name: "null", Type: l.unit()}, mtype.Alt{Name: "value", Type: inner}), nil
	case Port:
		return l.lowerObjectPort(s.Decl)
	default: // Func
		return l.lowerFunc(s.Type.Params, s.Type.Result)
	}
}

// lowerMembers lowers the members of a Record or Union shape.
func (l *Lowerer) lowerMembers(s *Shape) (*mtype.Type, error) {
	what := "field"
	if s.Kind == Union {
		if what = "union member"; len(s.Fields) == 0 {
			return nil, fmt.Errorf("lower: union %s has no members", s.Type.Name)
		}
	}
	fields := make([]mtype.Field, len(s.Fields))
	for i, f := range s.Fields {
		ty, err := l.lowerValue(f.Type)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", what, f.Name, err)
		}
		fields[i] = mtype.Field{Name: f.Name, Type: ty}
	}
	if s.Kind == Union {
		alts := make([]mtype.Alt, len(fields))
		for i, f := range fields {
			alts[i] = mtype.Alt(f)
		}
		return mtype.NewChoice(alts...).SetTag(s.Type.Name), nil
	}
	return mtype.NewRecord(fields...).SetTag(s.Type.Name), nil
}

// flattenFields applies Go's field-promotion rules to embedded struct
// fields: the embedded struct's fields are spliced into the outer record
// in place of the embedded field, recursively. Shadowing follows depth —
// a name declared at a shallower depth hides deeper promotions of the
// same name (the hidden field is dropped from the contract, exactly as
// the promoted selector is inaccessible in Go) — and two distinct
// embedded types promoting one name at the same depth wrap ErrAmbiguous.
// Unexported fields are skipped. Non-Go universes pass through untouched
// (only goparse sets Field.Embedded).
func flattenFields(u *stype.Universe, fields []stype.Field) ([]stype.Field, error) {
	if u.Lang() != stype.LangGo {
		return fields, nil
	}
	needs := false
	for _, f := range fields {
		if f.Embedded || unexported(u, f.Name) {
			needs = true
			break
		}
	}
	if !needs {
		return fields, nil
	}
	// Pass 1: claim each promoted name by (depth, owner), erroring on
	// same-depth claims — a second claim at one depth is either a second
	// embedded type or a diamond, and both make the selector ambiguous.
	// The owner at depth 0 is "" (the outer struct itself). Embedding
	// cycles are caught against each group's ancestor path; diamonds
	// re-expand, bounded by maxEmbedGroups.
	type claim struct {
		depth int
		owner string
	}
	claimed := make(map[string]claim)
	type group struct {
		owner  string
		fields []stype.Field
		path   []string
	}
	level := []group{{fields: fields}}
	expanded := 0
	for depth := 0; len(level) > 0; depth++ {
		var next []group
		for _, g := range level {
			for _, f := range g.fields {
				if unexported(u, f.Name) {
					continue
				}
				if target := embedTarget(u, f); target != nil {
					for _, anc := range g.path {
						if anc == target.Name {
							return nil, fmt.Errorf("lower: embedding cycle through %s", target.Name)
						}
					}
					if expanded++; expanded > maxEmbedGroups {
						return nil, fmt.Errorf("lower: embedding expands to more than %d structs", maxEmbedGroups)
					}
					path := append(append([]string(nil), g.path...), target.Name)
					next = append(next, group{owner: target.Name, fields: target.Type.Fields, path: path})
					continue
				}
				if c, ok := claimed[f.Name]; ok {
					if c.depth < depth {
						continue // shadowed by a shallower declaration
					}
					return nil, fmt.Errorf(
						"lower: %w: field %s promoted by both %s and %s at depth %d",
						ErrAmbiguous, f.Name, claimOwner(c.owner), claimOwner(g.owner), depth)
				}
				claimed[f.Name] = claim{depth: depth, owner: g.owner}
			}
		}
		level = next
	}
	// Pass 2: emit in declaration order, splicing embedded structs in
	// place and keeping only each name's claiming occurrence.
	var emit func(fs []stype.Field, depth int, owner string) []stype.Field
	emit = func(fs []stype.Field, depth int, owner string) []stype.Field {
		var out []stype.Field
		for _, f := range fs {
			if unexported(u, f.Name) {
				continue
			}
			if target := embedTarget(u, f); target != nil {
				out = append(out, emit(target.Type.Fields, depth+1, target.Name)...)
				continue
			}
			if c := claimed[f.Name]; c.depth == depth && c.owner == owner {
				out = append(out, f)
			}
		}
		return out
	}
	return emit(fields, 0, ""), nil
}

// maxEmbedGroups bounds diamond re-expansion during field flattening, so
// adversarial embedding lattices cannot blow up exponentially.
const maxEmbedGroups = 1 << 12

func claimOwner(owner string) string {
	if owner == "" {
		return "the outer struct"
	}
	return owner
}

// embedTarget resolves an embedded field to the struct declaration it
// splices in, following typedef chains. Embedded interfaces (and embedded
// names resolving to non-structs) stay ordinary fields.
func embedTarget(u *stype.Universe, f stype.Field) *stype.Decl {
	if !f.Embedded || f.Type == nil || f.Type.Kind != stype.KNamed {
		return nil
	}
	d := f.Type.Target
	if d == nil {
		d = u.Lookup(f.Type.Name)
	}
	seen := make(map[string]bool)
	for d != nil && d.Type.Kind == stype.KNamed && !seen[d.Name] {
		seen[d.Name] = true
		d = u.Lookup(d.Type.Name)
	}
	if d == nil || d.Type.Kind != stype.KClass {
		return nil
	}
	return d
}
