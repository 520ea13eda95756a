// Package idlparse parses CORBA 2.0 IDL declarations into Stypes. It
// covers the subset the paper exercises: modules, interfaces with
// operations and attributes, structs, discriminated unions, enums,
// typedefs, sequences, arrays, strings, and the basic types, with explicit
// in/out/inout parameter modes (which become Mode annotations, §3.3).
//
// The CORBA `any` type is rejected with a clear error: the paper lists Any
// support as incomplete in the prototype (§6), and we match that scope.
package idlparse

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/limits"
	"repro/internal/scan"
	"repro/internal/stype"
)

// Parse parses IDL source into a universe with the default input budget.
// file is used in error messages.
//
// Names declared inside modules and interfaces are scoped with "::" (e.g.
// "Geo::Point"); references may use scoped names or unqualified names,
// which resolve innermost-scope-first.
func Parse(file, src string) (*stype.Universe, error) {
	return ParseBudget(file, src, limits.Budget{})
}

// ParseBudget is Parse with an explicit input budget (zero fields take
// limits defaults). Violations return an error wrapping limits.ErrBudget.
func ParseBudget(file, src string, b limits.Budget) (*stype.Universe, error) {
	p := &parser{s: scan.NewBudget(file, src, b), u: stype.NewUniverse(stype.LangIDL)}
	if err := p.s.Parse(p.definition); err != nil {
		return nil, err
	}
	if err := p.u.ResolveScoped(); err != nil {
		return nil, fmt.Errorf("idlparse: %w", err)
	}
	return p.u, nil
}

var idlKeywords = map[string]bool{
	"module": true, "interface": true, "struct": true, "union": true,
	"enum": true, "typedef": true, "sequence": true, "string": true,
	"wstring": true, "short": true, "long": true, "unsigned": true,
	"float": true, "double": true, "char": true, "wchar": true,
	"boolean": true, "octet": true, "void": true, "any": true,
	"in": true, "out": true, "inout": true, "oneway": true,
	"attribute": true, "readonly": true, "raises": true, "context": true,
	"switch": true, "case": true, "default": true, "const": true,
	"exception": true, "fixed": true, "Object": true,
}

type parser struct {
	s     *scan.Scanner
	u     *stype.Universe
	scope []string
}

// scopedName returns name qualified by the current scope.
func (p *parser) scopedName(name string) string {
	if len(p.scope) == 0 {
		return name
	}
	return strings.Join(p.scope, "::") + "::" + name
}

func (p *parser) addDecl(at scan.Token, name string, ty *stype.Type) error {
	if _, err := p.u.Add(p.scopedName(name), ty); err != nil {
		return p.s.Errorf(at, "%v", err)
	}
	return nil
}

// definition parses one IDL definition at the current scope. It and
// typeSpec guard the descent against the depth budget: between them they
// are on every recursion cycle (module bodies, interface members, nested
// struct/union definitions, sequence element types).
func (p *parser) definition() error {
	t := p.s.Peek()
	if err := p.s.Enter(t); err != nil {
		return err
	}
	defer p.s.Leave()
	if t.Kind != scan.TokIdent {
		return p.s.Errorf(t, "expected definition, found %s", t)
	}
	switch t.Text {
	case "module":
		return p.module()
	case "interface":
		return p.interfaceDef()
	case "struct":
		p.s.Next()
		_, err := p.structDef()
		if err != nil {
			return err
		}
		_, err = p.s.Expect(";")
		return err
	case "union":
		p.s.Next()
		_, err := p.unionDef()
		if err != nil {
			return err
		}
		_, err = p.s.Expect(";")
		return err
	case "enum":
		p.s.Next()
		_, err := p.enumDef()
		if err != nil {
			return err
		}
		_, err = p.s.Expect(";")
		return err
	case "typedef":
		return p.typedefDef()
	case "const":
		return p.constDef()
	case "exception":
		return p.s.Errorf(t, "exceptions are not supported (incomplete in the prototype, paper §6)")
	default:
		return p.s.Errorf(t, "unexpected %s", t)
	}
}

func (p *parser) module() error {
	p.s.Next() // module
	nameTok, err := p.s.ExpectIdent()
	if err != nil {
		return err
	}
	if _, err := p.s.Expect("{"); err != nil {
		return err
	}
	p.scope = append(p.scope, nameTok.Text)
	for !p.s.Accept("}") {
		if p.s.Peek().Kind == scan.TokEOF {
			return p.s.Errorf(nameTok, "unterminated module %s", nameTok.Text)
		}
		if err := p.definition(); err != nil {
			return err
		}
	}
	p.scope = p.scope[:len(p.scope)-1]
	_, err = p.s.Expect(";")
	return err
}

func (p *parser) interfaceDef() error {
	p.s.Next() // interface
	nameTok, err := p.s.ExpectIdent()
	if err != nil {
		return err
	}
	node := &stype.Type{Kind: stype.KInterface, Name: p.scopedName(nameTok.Text)}
	// A forward declaration (`interface X;`) registers an empty interface
	// node; the full definition later fills the same node in.
	if existing := p.u.Lookup(p.scopedName(nameTok.Text)); existing != nil {
		if existing.Type.Kind == stype.KInterface && len(existing.Type.Methods) == 0 {
			node = existing.Type
		} else {
			return p.s.Errorf(nameTok, "duplicate declaration %q", nameTok.Text)
		}
	}
	if p.s.Accept(";") {
		if p.u.Lookup(p.scopedName(nameTok.Text)) == nil {
			return p.addDecl(nameTok, nameTok.Text, node)
		}
		return nil
	}
	if p.s.Accept(":") {
		base, err := p.scopedRef()
		if err != nil {
			return err
		}
		node.Super = base
		// Additional bases are recorded only through the first; multiple
		// inheritance of interfaces is beyond the prototype's scope.
		for p.s.Accept(",") {
			if _, err := p.scopedRef(); err != nil {
				return err
			}
		}
	}
	if _, err := p.s.Expect("{"); err != nil {
		return err
	}
	if p.u.Lookup(p.scopedName(nameTok.Text)) == nil {
		if err := p.addDecl(nameTok, nameTok.Text, node); err != nil {
			return err
		}
	}
	p.scope = append(p.scope, nameTok.Text)
	defer func() { p.scope = p.scope[:len(p.scope)-1] }()
	for !p.s.Accept("}") {
		if p.s.Peek().Kind == scan.TokEOF {
			return p.s.Errorf(nameTok, "unterminated interface %s", nameTok.Text)
		}
		if err := p.interfaceMember(node); err != nil {
			return err
		}
	}
	if _, err := p.s.Expect(";"); err != nil {
		return err
	}
	return nil
}

// interfaceMember parses one member of an interface body: a nested type
// definition, an attribute, or an operation.
func (p *parser) interfaceMember(node *stype.Type) error {
	t := p.s.Peek()
	if t.Kind == scan.TokIdent {
		switch t.Text {
		case "struct", "union", "enum", "typedef", "const", "module", "interface", "exception":
			return p.definition()
		case "readonly", "attribute":
			return p.attribute(node)
		case "oneway":
			p.s.Next()
			return p.operation(node, true)
		}
	}
	return p.operation(node, false)
}

// attribute parses `[readonly] attribute TYPE name {, name};` into getter
// (and, if writable, setter) methods, which is how IDL compilers present
// attributes.
func (p *parser) attribute(node *stype.Type) error {
	readonly := p.s.AcceptIdent("readonly")
	if !p.s.AcceptIdent("attribute") {
		return p.s.Errorf(p.s.Peek(), "expected attribute")
	}
	ty, err := p.typeSpec()
	if err != nil {
		return err
	}
	for {
		nameTok, err := p.s.ExpectIdent()
		if err != nil {
			return err
		}
		node.Methods = append(node.Methods, stype.Method{
			Name:   "_get_" + nameTok.Text,
			Result: ty.Clone(),
		})
		if !readonly {
			node.Methods = append(node.Methods, stype.Method{
				Name:   "_set_" + nameTok.Text,
				Params: []stype.Param{{Name: "value", Type: ty.Clone()}},
			})
		}
		if p.s.Accept(",") {
			continue
		}
		_, err = p.s.Expect(";")
		return err
	}
}

func (p *parser) operation(node *stype.Type, oneway bool) error {
	resultTy, err := p.typeSpec()
	if err != nil {
		return err
	}
	nameTok, err := p.s.ExpectIdent()
	if err != nil {
		return err
	}
	if _, err := p.s.Expect("("); err != nil {
		return err
	}
	m := stype.Method{Name: nameTok.Text, Oneway: oneway}
	if !(resultTy.Kind == stype.KPrim && resultTy.Prim == stype.PVoid) {
		if oneway {
			return p.s.Errorf(nameTok, "oneway operation %s must return void", nameTok.Text)
		}
		m.Result = resultTy
	}
	if !p.s.Accept(")") {
		for {
			mode := stype.ModeIn
			switch {
			case p.s.AcceptIdent("in"):
				mode = stype.ModeIn
			case p.s.AcceptIdent("out"):
				mode = stype.ModeOut
			case p.s.AcceptIdent("inout"):
				mode = stype.ModeInOut
			default:
				return p.s.Errorf(p.s.Peek(), "parameter requires in/out/inout")
			}
			ty, err := p.typeSpec()
			if err != nil {
				return err
			}
			pn, err := p.s.ExpectIdent()
			if err != nil {
				return err
			}
			ty.Ann.Mode = mode
			m.Params = append(m.Params, stype.Param{Name: pn.Text, Type: ty})
			if p.s.Accept(",") {
				continue
			}
			if _, err := p.s.Expect(")"); err != nil {
				return err
			}
			break
		}
	}
	if p.s.AcceptIdent("raises") {
		return p.s.Errorf(nameTok, "raises clauses are not supported (paper §6)")
	}
	if p.s.AcceptIdent("context") {
		return p.s.Errorf(nameTok, "context clauses are not supported")
	}
	node.Methods = append(node.Methods, m)
	_, err = p.s.Expect(";")
	return err
}

func (p *parser) structDef() (*stype.Type, error) {
	nameTok, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.s.Expect("{"); err != nil {
		return nil, err
	}
	node := &stype.Type{Kind: stype.KStruct, Name: p.scopedName(nameTok.Text)}
	for !p.s.Accept("}") {
		if p.s.Peek().Kind == scan.TokEOF {
			return nil, p.s.Errorf(nameTok, "unterminated struct %s", nameTok.Text)
		}
		ty, err := p.typeSpec()
		if err != nil {
			return nil, err
		}
		for {
			fieldName, fieldTy, err := p.declarator(ty.Clone())
			if err != nil {
				return nil, err
			}
			node.Fields = append(node.Fields, stype.Field{Name: fieldName, Type: fieldTy})
			if p.s.Accept(",") {
				continue
			}
			if _, err := p.s.Expect(";"); err != nil {
				return nil, err
			}
			break
		}
	}
	if err := p.addDecl(nameTok, nameTok.Text, node); err != nil {
		return nil, err
	}
	return stype.NewNamed(p.scopedName(nameTok.Text)), nil
}

// unionDef parses `union U switch (TYPE) { case LABEL: TYPE decl; ... }`.
// Case labels select alternatives; labels are recorded as alternative
// names and the discriminant type is not part of the Choice lowering.
func (p *parser) unionDef() (*stype.Type, error) {
	nameTok, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if !p.s.AcceptIdent("switch") {
		return nil, p.s.Errorf(p.s.Peek(), "expected switch")
	}
	if _, err := p.s.Expect("("); err != nil {
		return nil, err
	}
	if _, err := p.typeSpec(); err != nil {
		return nil, err
	}
	if _, err := p.s.Expect(")"); err != nil {
		return nil, err
	}
	if _, err := p.s.Expect("{"); err != nil {
		return nil, err
	}
	node := &stype.Type{Kind: stype.KUnion, Name: p.scopedName(nameTok.Text)}
	for !p.s.Accept("}") {
		if p.s.Peek().Kind == scan.TokEOF {
			return nil, p.s.Errorf(nameTok, "unterminated union %s", nameTok.Text)
		}
		var label string
		for {
			t := p.s.Peek()
			if t.Kind == scan.TokIdent && t.Text == "case" {
				p.s.Next()
				lt := p.s.Next()
				label = lt.Text
				if _, err := p.s.Expect(":"); err != nil {
					return nil, err
				}
				continue
			}
			if t.Kind == scan.TokIdent && t.Text == "default" {
				p.s.Next()
				label = "default"
				if _, err := p.s.Expect(":"); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		ty, err := p.typeSpec()
		if err != nil {
			return nil, err
		}
		fieldName, fieldTy, err := p.declarator(ty)
		if err != nil {
			return nil, err
		}
		if label == "" {
			label = fieldName
		}
		node.Fields = append(node.Fields, stype.Field{Name: fieldName, Type: fieldTy})
		if _, err := p.s.Expect(";"); err != nil {
			return nil, err
		}
	}
	if err := p.addDecl(nameTok, nameTok.Text, node); err != nil {
		return nil, err
	}
	return stype.NewNamed(p.scopedName(nameTok.Text)), nil
}

func (p *parser) enumDef() (*stype.Type, error) {
	nameTok, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.s.Expect("{"); err != nil {
		return nil, err
	}
	node := &stype.Type{Kind: stype.KEnum, Name: p.scopedName(nameTok.Text)}
	for {
		id, err := p.s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		node.EnumNames = append(node.EnumNames, id.Text)
		if p.s.Accept(",") {
			continue
		}
		if _, err := p.s.Expect("}"); err != nil {
			return nil, err
		}
		break
	}
	if err := p.addDecl(nameTok, nameTok.Text, node); err != nil {
		return nil, err
	}
	return stype.NewNamed(p.scopedName(nameTok.Text)), nil
}

func (p *parser) typedefDef() error {
	p.s.Next() // typedef
	base, err := p.typeSpec()
	if err != nil {
		return err
	}
	for {
		name, ty, err := p.declarator(base.Clone())
		if err != nil {
			return err
		}
		at := p.s.Peek()
		if err := p.addDecl(at, name, ty); err != nil {
			return err
		}
		if p.s.Accept(",") {
			continue
		}
		_, err = p.s.Expect(";")
		return err
	}
}

// constDef parses and discards a const definition: constants carry no
// interface structure.
func (p *parser) constDef() error {
	p.s.Next() // const
	for {
		t := p.s.Next()
		if t.Kind == scan.TokEOF {
			return p.s.Errorf(t, "unterminated const")
		}
		if t.Kind == scan.TokPunct && t.Text == ";" {
			return nil
		}
	}
}

// declarator parses an IDL declarator: a name with optional fixed-size
// array suffixes.
func (p *parser) declarator(base *stype.Type) (string, *stype.Type, error) {
	nameTok, err := p.s.ExpectIdent()
	if err != nil {
		return "", nil, err
	}
	var lengths []int
	for p.s.Accept("[") {
		if err := p.s.Chain(len(lengths)+1, "array suffixes exceed depth budget of %d"); err != nil {
			return "", nil, err
		}
		numTok := p.s.Next()
		n, err := strconv.Atoi(numTok.Text)
		if err != nil || n < 0 {
			return "", nil, p.s.Errorf(numTok, "invalid array length %q", numTok.Text)
		}
		lengths = append(lengths, n)
		if _, err := p.s.Expect("]"); err != nil {
			return "", nil, err
		}
	}
	ty := base
	for i := len(lengths) - 1; i >= 0; i-- {
		ty = stype.NewArray(ty, lengths[i])
	}
	return nameTok.Text, ty, nil
}

// typeSpec parses a type use.
func (p *parser) typeSpec() (*stype.Type, error) {
	t := p.s.Peek()
	if err := p.s.Enter(t); err != nil {
		return nil, err
	}
	defer p.s.Leave()
	if t.Kind != scan.TokIdent && !(t.Kind == scan.TokPunct && t.Text == "::") {
		return nil, p.s.Errorf(t, "expected type, found %s", t)
	}
	switch t.Text {
	case "void":
		p.s.Next()
		return stype.NewPrim(stype.PVoid), nil
	case "boolean":
		p.s.Next()
		return stype.NewPrim(stype.PBool), nil
	case "octet":
		p.s.Next()
		return stype.NewPrim(stype.PU8), nil
	case "char":
		p.s.Next()
		return stype.NewPrim(stype.PChar8), nil
	case "wchar":
		p.s.Next()
		return stype.NewPrim(stype.PChar16), nil
	case "float":
		p.s.Next()
		return stype.NewPrim(stype.PF32), nil
	case "double":
		p.s.Next()
		return stype.NewPrim(stype.PF64), nil
	case "short":
		p.s.Next()
		return stype.NewPrim(stype.PI16), nil
	case "long":
		p.s.Next()
		if p.s.AcceptIdent("long") {
			return stype.NewPrim(stype.PI64), nil
		}
		if p.s.AcceptIdent("double") {
			return stype.NewPrim(stype.PF64), nil
		}
		return stype.NewPrim(stype.PI32), nil
	case "unsigned":
		p.s.Next()
		switch {
		case p.s.AcceptIdent("short"):
			return stype.NewPrim(stype.PU16), nil
		case p.s.AcceptIdent("long"):
			if p.s.AcceptIdent("long") {
				return stype.NewPrim(stype.PU64), nil
			}
			return stype.NewPrim(stype.PU32), nil
		default:
			return nil, p.s.Errorf(p.s.Peek(), "unsigned requires short or long")
		}
	case "string":
		p.s.Next()
		if p.s.Accept("<") {
			// Bounded strings: the bound is parsed and dropped; bounds do
			// not change the Mtype (an ordered collection).
			p.s.Next()
			if _, err := p.s.Expect(">"); err != nil {
				return nil, err
			}
		}
		return stype.NewSequence(stype.NewPrim(stype.PChar8)), nil
	case "wstring":
		p.s.Next()
		if p.s.Accept("<") {
			p.s.Next()
			if _, err := p.s.Expect(">"); err != nil {
				return nil, err
			}
		}
		return stype.NewSequence(stype.NewPrim(stype.PChar16)), nil
	case "sequence":
		p.s.Next()
		if _, err := p.s.Expect("<"); err != nil {
			return nil, err
		}
		elem, err := p.typeSpec()
		if err != nil {
			return nil, err
		}
		if p.s.Accept(",") {
			// Bounded sequence; the bound does not change the Mtype.
			p.s.Next()
		}
		if _, err := p.s.Expect(">"); err != nil {
			return nil, err
		}
		return stype.NewSequence(elem), nil
	case "any":
		return nil, p.s.Errorf(t, "the any type is not supported (incomplete in the prototype, paper §6)")
	case "fixed":
		return nil, p.s.Errorf(t, "fixed-point types are not supported")
	case "Object":
		p.s.Next()
		return stype.NewNamed("Object"), nil
	case "struct":
		p.s.Next()
		return p.structDef()
	case "union":
		p.s.Next()
		return p.unionDef()
	case "enum":
		p.s.Next()
		return p.enumDef()
	default:
		name, err := p.scopedRef()
		if err != nil {
			return nil, err
		}
		return stype.NewNamed(name), nil
	}
}

// scopedRef parses a possibly scoped name reference (A::B::C or ::A::B).
// The returned name is recorded with the scope it is written in, which
// ResolveScoped searches innermost first for the declaration's full
// scoped name.
func (p *parser) scopedRef() (string, error) {
	var parts []string
	if p.s.Accept("::") {
		parts = append(parts, "")
	}
	for {
		t, err := p.s.ExpectIdent()
		if err != nil {
			return "", err
		}
		if idlKeywords[t.Text] {
			return "", p.s.Errorf(t, "keyword %q cannot be used as a name", t.Text)
		}
		parts = append(parts, t.Text)
		if !p.s.Accept("::") {
			break
		}
	}
	ref := strings.Join(parts, "::")
	if len(p.scope) > 0 && !strings.HasPrefix(ref, "::") {
		return strings.Join(p.scope, "::") + stype.ScopeMark + ref, nil
	}
	return ref, nil
}

// MustParse is a test helper: it parses src and panics on error.
func MustParse(src string) *stype.Universe {
	u, err := Parse("<test>", src)
	if err != nil {
		panic(fmt.Sprintf("idlparse.MustParse: %v\nsource:\n%s", err, strings.TrimSpace(src)))
	}
	return u
}
