// Package cparse parses C declarations into Stypes. It replaces the
// modified IBM compiler front end of the paper with a self-contained parser
// for the declaration subset Mockingbird consumes: typedefs, struct/union
// definitions, enums, and function declarations, with full declarator
// syntax (pointers, fixed and indefinite arrays, parenthesized declarators,
// bit-fields). Function bodies and expressions are out of scope; the tool
// bridges interfaces, not implementations.
package cparse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/limits"
	"repro/internal/scan"
	"repro/internal/stype"
)

// DataModel selects the sizes of int/long/pointers, which determine the
// default integer ranges of §3.1 ("defaults based on … the implementation
// (for C/C++)").
type DataModel uint8

// Supported data models.
const (
	// ModelILP32 is the 32-bit model of the paper's AIX/Win95 platforms:
	// int, long, and pointers are 32 bits.
	ModelILP32 DataModel = iota + 1
	// ModelLP64 is the common 64-bit Unix model: long and pointers are 64
	// bits.
	ModelLP64
)

// Config controls parsing.
type Config struct {
	// Model is the data model; the zero value means ModelILP32.
	Model DataModel
	// Budget caps input size, token count, and nesting depth; zero fields
	// take the limits package defaults, so untrusted sources are always
	// bounded. Violations return an error wrapping limits.ErrBudget.
	Budget limits.Budget
}

// Parse parses a C declaration source into a universe. file is used in
// error messages.
func Parse(file, src string, cfg Config) (*stype.Universe, error) {
	if cfg.Model == 0 {
		cfg.Model = ModelILP32
	}
	p := &parser{
		s:   scan.NewBudget(file, src, cfg.Budget),
		cfg: cfg,
		u:   stype.NewUniverse(stype.LangC),
	}
	if err := p.s.Parse(p.declaration); err != nil {
		return nil, err
	}
	if err := p.u.Resolve(); err != nil {
		return nil, err
	}
	return p.u, nil
}

var cKeywords = map[string]bool{
	"typedef": true, "struct": true, "union": true, "enum": true,
	"const": true, "volatile": true, "signed": true, "unsigned": true,
	"short": true, "long": true, "int": true, "char": true, "float": true,
	"double": true, "void": true, "extern": true, "static": true,
	"register": true, "auto": true, "inline": true, "_Bool": true,
	"bool": true, "wchar_t": true, "restrict": true,
}

type parser struct {
	s    *scan.Scanner
	cfg  Config
	u    *stype.Universe
	anon int
}

// declaration parses one top-level declaration.
func (p *parser) declaration() error {
	// Storage-class keywords are accepted and ignored.
	for p.s.AcceptIdent("extern") || p.s.AcceptIdent("static") || p.s.AcceptIdent("inline") {
	}
	if p.s.AcceptIdent("typedef") {
		return p.typedefDecl()
	}
	base, err := p.specifier()
	if err != nil {
		return err
	}
	// A bare `struct X {...};` or `enum E {...};` definition.
	if p.s.Accept(";") {
		return nil
	}
	// Otherwise: one or more declarators (function or variable decls).
	for {
		name, ty, err := p.declarator(base)
		if err != nil {
			return err
		}
		if name == "" {
			return p.s.Errorf(p.s.Peek(), "declaration requires a name")
		}
		if ty.Kind == stype.KFunc {
			if _, err := p.u.Add(name, ty); err != nil {
				return p.s.Errorf(p.s.Peek(), "%v", err)
			}
		} else {
			// Global variable declarations carry no interface information;
			// they are parsed and dropped.
		}
		if p.s.Accept(",") {
			continue
		}
		if _, err := p.s.Expect(";"); err != nil {
			return err
		}
		return nil
	}
}

func (p *parser) typedefDecl() error {
	base, err := p.specifier()
	if err != nil {
		return err
	}
	for {
		name, ty, err := p.declarator(base)
		if err != nil {
			return err
		}
		if name == "" {
			return p.s.Errorf(p.s.Peek(), "typedef requires a name")
		}
		// The C idiom `typedef struct Point {...} Point;` re-declares the
		// tag name; treat it as the same declaration.
		if !(ty.Kind == stype.KNamed && ty.Name == name) {
			if _, err := p.u.Add(name, ty); err != nil {
				return p.s.Errorf(p.s.Peek(), "%v", err)
			}
		}
		if p.s.Accept(",") {
			// Each subsequent declarator restarts from the same base type:
			// `typedef int a, *b;`.
			continue
		}
		if _, err := p.s.Expect(";"); err != nil {
			return err
		}
		return nil
	}
}

// specifier parses a declaration specifier: qualifiers plus exactly one
// base type (builtin combination, struct/union/enum, or typedef name).
func (p *parser) specifier() (*stype.Type, error) {
	var (
		sawUnsigned, sawSigned bool
		longs, shorts          int
		base                   string
		result                 *stype.Type
	)
	at := p.s.Peek()
	if err := p.s.Enter(at); err != nil {
		return nil, err
	}
	defer p.s.Leave()
	for {
		t := p.s.Peek()
		if t.Kind != scan.TokIdent {
			break
		}
		switch t.Text {
		case "const", "volatile", "restrict":
			p.s.Next()
		case "unsigned":
			p.s.Next()
			sawUnsigned = true
		case "signed":
			p.s.Next()
			sawSigned = true
		case "long":
			p.s.Next()
			longs++
		case "short":
			p.s.Next()
			shorts++
		case "int", "char", "float", "double", "void", "_Bool", "bool", "wchar_t":
			p.s.Next()
			if base != "" {
				return nil, p.s.Errorf(t, "multiple base types (%s and %s)", base, t.Text)
			}
			base = t.Text
		case "struct", "union":
			p.s.Next()
			ty, err := p.structSpec(t.Text == "union")
			if err != nil {
				return nil, err
			}
			result = ty
		case "enum":
			p.s.Next()
			ty, err := p.enumSpec()
			if err != nil {
				return nil, err
			}
			result = ty
		default:
			if cKeywords[t.Text] {
				return nil, p.s.Errorf(t, "unexpected keyword %q", t.Text)
			}
			// A typedef name is only consumed when no builtin base has
			// been seen; this keeps `unsigned x;` (x the declarator)
			// working.
			if base == "" && result == nil && !sawUnsigned && !sawSigned && longs == 0 && shorts == 0 {
				p.s.Next()
				result = stype.NewNamed(t.Text)
			}
			goto done
		}
		if result != nil {
			// struct/union/enum/typedef base does not combine with more
			// base keywords; qualifiers afterwards are still allowed.
			for p.s.AcceptIdent("const") || p.s.AcceptIdent("volatile") {
			}
			goto done
		}
	}
done:
	if result != nil {
		return result, nil
	}
	prim, err := p.primFor(base, sawUnsigned, sawSigned, longs, shorts, at)
	if err != nil {
		return nil, err
	}
	return stype.NewPrim(prim), nil
}

func (p *parser) primFor(base string, uns, sgn bool, longs, shorts int, at scan.Token) (stype.Prim, error) {
	if uns && sgn {
		return 0, p.s.Errorf(at, "both signed and unsigned")
	}
	if longs > 0 && shorts > 0 {
		return 0, p.s.Errorf(at, "both long and short")
	}
	if longs > 2 {
		return 0, p.s.Errorf(at, "too many 'long'")
	}
	switch base {
	case "void":
		return stype.PVoid, nil
	case "_Bool", "bool":
		return stype.PBool, nil
	case "char":
		switch {
		case uns:
			return stype.PU8, nil
		case sgn:
			return stype.PI8, nil
		default:
			// Plain char holds characters by programming convention
			// (§3.1); lowering maps PChar8 to a Character Mtype unless
			// annotated otherwise.
			return stype.PChar8, nil
		}
	case "wchar_t":
		return stype.PChar16, nil
	case "float":
		return stype.PF32, nil
	case "double":
		// long double is mapped to binary64; the paper's platforms used
		// 64-bit long double.
		return stype.PF64, nil
	case "int", "":
		if base == "" && longs == 0 && shorts == 0 && !uns && !sgn {
			return 0, p.s.Errorf(at, "expected type")
		}
		switch {
		case shorts > 0:
			if uns {
				return stype.PU16, nil
			}
			return stype.PI16, nil
		case longs == 2:
			if uns {
				return stype.PU64, nil
			}
			return stype.PI64, nil
		case longs == 1:
			if p.cfg.Model == ModelLP64 {
				if uns {
					return stype.PU64, nil
				}
				return stype.PI64, nil
			}
			if uns {
				return stype.PU32, nil
			}
			return stype.PI32, nil
		default:
			if uns {
				return stype.PU32, nil
			}
			return stype.PI32, nil
		}
	default:
		return 0, p.s.Errorf(at, "unsupported base type %q", base)
	}
}

// structSpec parses `struct tag? { members }?`. A definition with a tag is
// registered as a declaration and referenced by name; an anonymous
// definition yields an inline node.
func (p *parser) structSpec(isUnion bool) (*stype.Type, error) {
	kind := stype.KStruct
	word := "struct"
	if isUnion {
		kind = stype.KUnion
		word = "union"
	}
	var tag string
	if t := p.s.Peek(); t.Kind == scan.TokIdent && !cKeywords[t.Text] {
		p.s.Next()
		tag = t.Text
	}
	if !p.s.Accept("{") {
		if tag == "" {
			return nil, p.s.Errorf(p.s.Peek(), "%s requires a tag or a body", word)
		}
		return stype.NewNamed(tag), nil
	}
	node := &stype.Type{Kind: kind, Name: tag}
	for !p.s.Accept("}") {
		if p.s.Peek().Kind == scan.TokEOF {
			return nil, p.s.Errorf(p.s.Peek(), "unterminated %s body", word)
		}
		base, err := p.specifier()
		if err != nil {
			return nil, err
		}
		for {
			name, ty, err := p.declarator(base)
			if err != nil {
				return nil, err
			}
			// Bit-field: `int flags : 3;` — record the width as a range
			// annotation so the Mtype gets the precise value set.
			if p.s.Accept(":") {
				widthTok := p.s.Next()
				width, werr := strconv.Atoi(widthTok.Text)
				if werr != nil || width <= 0 || width > 64 {
					return nil, p.s.Errorf(widthTok, "invalid bit-field width %q", widthTok.Text)
				}
				ty = p.bitfieldType(ty, width)
			}
			if name == "" {
				return nil, p.s.Errorf(p.s.Peek(), "member requires a name")
			}
			node.Fields = append(node.Fields, stype.Field{Name: name, Type: ty})
			if p.s.Accept(",") {
				continue
			}
			if _, err := p.s.Expect(";"); err != nil {
				return nil, err
			}
			break
		}
	}
	if tag == "" {
		return node, nil
	}
	if _, err := p.u.Add(tag, node); err != nil {
		return nil, p.s.Errorf(p.s.Peek(), "%v", err)
	}
	return stype.NewNamed(tag), nil
}

// bitfieldType narrows an integer member type to the declared width via a
// range annotation.
func (p *parser) bitfieldType(ty *stype.Type, width int) *stype.Type {
	signed := true
	if ty.Kind == stype.KPrim {
		switch ty.Prim {
		case stype.PU8, stype.PU16, stype.PU32, stype.PU64, stype.PBool:
			signed = false
		}
	}
	out := ty.Clone()
	if signed {
		lo := -(int64(1) << (width - 1))
		hi := (int64(1) << (width - 1)) - 1
		out.Ann.Range = &stype.RangeAnn{Lo: strconv.FormatInt(lo, 10), Hi: strconv.FormatInt(hi, 10)}
	} else {
		var hi uint64
		if width == 64 {
			hi = ^uint64(0)
		} else {
			hi = (uint64(1) << width) - 1
		}
		out.Ann.Range = &stype.RangeAnn{Lo: "0", Hi: strconv.FormatUint(hi, 10)}
	}
	return out
}

// enumSpec parses `enum tag? { A, B = 3, C }?`.
func (p *parser) enumSpec() (*stype.Type, error) {
	var tag string
	if t := p.s.Peek(); t.Kind == scan.TokIdent && !cKeywords[t.Text] {
		p.s.Next()
		tag = t.Text
	}
	if !p.s.Accept("{") {
		if tag == "" {
			return nil, p.s.Errorf(p.s.Peek(), "enum requires a tag or a body")
		}
		return stype.NewNamed(tag), nil
	}
	node := &stype.Type{Kind: stype.KEnum, Name: tag}
	for !p.s.Accept("}") {
		nameTok, err := p.s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		node.EnumNames = append(node.EnumNames, nameTok.Text)
		if p.s.Accept("=") {
			// Enumerator values are parsed (sign + literal) and ignored:
			// §3.1 lowers an n-element enum to Integer 0..n-1 regardless.
			p.s.Accept("-")
			v := p.s.Next()
			if v.Kind != scan.TokNumber && v.Kind != scan.TokIdent && v.Kind != scan.TokChar {
				return nil, p.s.Errorf(v, "invalid enumerator value %s", v)
			}
		}
		if !p.s.Accept(",") {
			if _, err := p.s.Expect("}"); err != nil {
				return nil, err
			}
			break
		}
	}
	if tag == "" {
		p.anon++
		tag = fmt.Sprintf("enum$%d", p.anon)
		node.Name = tag
	}
	if _, err := p.u.Add(tag, node); err != nil {
		return nil, p.s.Errorf(p.s.Peek(), "%v", err)
	}
	return stype.NewNamed(tag), nil
}

// declarator parses a (possibly abstract) C declarator applied to base,
// returning the declared name ("" for abstract declarators) and the full
// type. The base node is cloned so every declaration site gets its own
// node for per-use annotation (`float x, y;` yields two float nodes).
func (p *parser) declarator(base *stype.Type) (string, *stype.Type, error) {
	return p.declaratorNoClone(base.Clone())
}

// declaratorNoClone is declarator without the defensive copy; the paren
// declarator branch needs the base pointer preserved for hole
// substitution.
func (p *parser) declaratorNoClone(base *stype.Type) (string, *stype.Type, error) {
	for stars := 1; p.s.Accept("*"); stars++ {
		if err := p.s.Chain(stars, "pointer chain exceeds depth budget of %d"); err != nil {
			return "", nil, err
		}
		for p.s.AcceptIdent("const") || p.s.AcceptIdent("volatile") || p.s.AcceptIdent("restrict") {
		}
		base = stype.NewPointer(base)
	}
	return p.directDeclarator(base)
}

// directDeclarator handles names, parenthesized declarators, and the
// array/function suffixes, with standard C inside-out application.
func (p *parser) directDeclarator(base *stype.Type) (string, *stype.Type, error) {
	var (
		name  string
		inner func(*stype.Type) (string, *stype.Type, error)
	)
	t := p.s.Peek()
	if err := p.s.Enter(t); err != nil {
		return "", nil, err
	}
	defer p.s.Leave()
	switch {
	case t.Kind == scan.TokIdent && !cKeywords[t.Text]:
		p.s.Next()
		name = t.Text
	case t.Kind == scan.TokPunct && t.Text == "(" && p.isParenDeclarator():
		p.s.Next()
		// Capture the inner declarator's tokens by re-parsing: parse it
		// against a placeholder now and re-apply later. We parse the inner
		// declarator eagerly against a hole type and substitute.
		hole := &stype.Type{Kind: stype.KPrim, Prim: stype.PVoid}
		innerName, innerTy, err := p.declaratorNoClone(hole)
		if err != nil {
			return "", nil, err
		}
		if _, err := p.s.Expect(")"); err != nil {
			return "", nil, err
		}
		inner = func(actual *stype.Type) (string, *stype.Type, error) {
			substituted := substituteHole(innerTy, hole, actual)
			return innerName, substituted, nil
		}
	}

	// Parse suffixes in source order.
	type suffix struct {
		isArray bool
		length  int
		params  []stype.Param
	}
	var suffixes []suffix
	for {
		if err := p.s.Chain(len(suffixes), "declarator suffixes exceed depth budget of %d"); err != nil {
			return "", nil, err
		}
		if p.s.Accept("[") {
			length := -1
			if !p.s.Accept("]") {
				numTok := p.s.Next()
				n, err := strconv.Atoi(numTok.Text)
				if err != nil || n < 0 {
					return "", nil, p.s.Errorf(numTok, "invalid array length %q", numTok.Text)
				}
				length = n
				if _, err := p.s.Expect("]"); err != nil {
					return "", nil, err
				}
			}
			suffixes = append(suffixes, suffix{isArray: true, length: length})
			continue
		}
		if p.s.Peek().Kind == scan.TokPunct && p.s.Peek().Text == "(" {
			p.s.Next()
			params, err := p.paramList()
			if err != nil {
				return "", nil, err
			}
			suffixes = append(suffixes, suffix{params: params})
			continue
		}
		break
	}

	// Apply suffixes right-to-left so the leftmost binds outermost:
	// T D[2][3] is array 2 of array 3 of T.
	ty := base
	for i := len(suffixes) - 1; i >= 0; i-- {
		sfx := suffixes[i]
		if sfx.isArray {
			ty = stype.NewArray(ty, sfx.length)
		} else {
			result := ty
			if result.Kind == stype.KPrim && result.Prim == stype.PVoid && result.Ann.IsZero() {
				result = nil
			}
			ty = &stype.Type{Kind: stype.KFunc, Params: sfx.params, Result: result}
		}
	}
	if inner != nil {
		return inner(ty)
	}
	return name, ty, nil
}

// isParenDeclarator distinguishes a parenthesized declarator `(*f)` from a
// function suffix `(int x)` by looking at the token after "(".
func (p *parser) isParenDeclarator() bool {
	next := p.s.Peek2()
	if next.Kind == scan.TokPunct && (next.Text == "*" || next.Text == "(") {
		return true
	}
	// `(name)` where name is not a type keyword is a paren declarator.
	return next.Kind == scan.TokIdent && !cKeywords[next.Text] && !p.looksLikeTypeName(next.Text)
}

// looksLikeTypeName reports whether the identifier names an
// already-declared type, which makes `(name ...)` a parameter list.
func (p *parser) looksLikeTypeName(name string) bool {
	return p.u.Lookup(name) != nil
}

// substituteHole rebuilds ty with every occurrence of hole replaced by
// actual. Inner declarators are small, so a recursive copy is fine.
func substituteHole(ty, hole, actual *stype.Type) *stype.Type {
	if ty == hole {
		return actual
	}
	out := ty.Clone()
	if ty.ElemType != nil {
		out.ElemType = substituteHole(ty.ElemType, hole, actual)
	}
	if ty.Result != nil {
		out.Result = substituteHole(ty.Result, hole, actual)
	}
	if len(ty.Params) > 0 {
		out.Params = make([]stype.Param, len(ty.Params))
		for i, prm := range ty.Params {
			out.Params[i] = stype.Param{Name: prm.Name, Type: substituteHole(prm.Type, hole, actual)}
		}
	}
	return out
}

// paramList parses a function parameter list after "(" up to and including
// ")".
func (p *parser) paramList() ([]stype.Param, error) {
	if p.s.Accept(")") {
		return nil, nil
	}
	// `(void)` means no parameters.
	if t := p.s.Peek(); t.Kind == scan.TokIdent && t.Text == "void" {
		if n := p.s.Peek2(); n.Kind == scan.TokPunct && n.Text == ")" {
			p.s.Next()
			p.s.Next()
			return nil, nil
		}
	}
	var params []stype.Param
	for {
		t := p.s.Peek()
		if t.Kind == scan.TokPunct && t.Text == "..." {
			return nil, p.s.Errorf(t, "variadic functions cannot be stubbed")
		}
		base, err := p.specifier()
		if err != nil {
			return nil, err
		}
		name, ty, err := p.declarator(base)
		if err != nil {
			return nil, err
		}
		// A parameter declared with array syntax decays to an array of
		// indefinite size at the interface level; we keep the KArray node
		// (rather than a pointer) because that is what the programmer
		// wrote and what annotation targets.
		params = append(params, stype.Param{Name: name, Type: ty})
		if p.s.Accept(",") {
			continue
		}
		if _, err := p.s.Expect(")"); err != nil {
			return nil, err
		}
		return params, nil
	}
}

// MustParse is a test helper: it parses src and panics on error.
func MustParse(src string) *stype.Universe {
	u, err := Parse("<test>", src, Config{})
	if err != nil {
		panic(fmt.Sprintf("cparse.MustParse: %v\nsource:\n%s", err, strings.TrimSpace(src)))
	}
	return u
}
