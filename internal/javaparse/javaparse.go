// Package javaparse parses Java class and interface declarations into
// Stypes. The paper's prototype extracted declarations from compiled
// .class files; this parser reads the same information (fields, method
// signatures, inheritance) from Java source, covering the pre-generics
// language of the paper's era.
//
// Method bodies and field initializers are skipped with brace/semicolon
// matching: only declarations matter to stub compilation. Static members
// are ignored (they are not part of instance state or the remote
// interface); constructors are ignored likewise.
//
// The parser pre-registers the standard classes the paper relies on:
// java.lang.Object, java.lang.String, and java.util.Vector, the last with
// its default "ordered collection of indefinite size" annotation (§3.4).
package javaparse

import (
	"fmt"
	"strings"

	"repro/internal/limits"
	"repro/internal/scan"
	"repro/internal/stype"
)

// Parse parses Java source into a universe with the default input budget.
// file is used in error messages.
func Parse(file, src string) (*stype.Universe, error) {
	return ParseBudget(file, src, limits.Budget{})
}

// ParseBudget is Parse with an explicit input budget (zero fields take
// limits defaults). Violations return an error wrapping limits.ErrBudget.
func ParseBudget(file, src string, b limits.Budget) (*stype.Universe, error) {
	p := &parser{s: scan.NewBudget(file, src, b), u: stype.NewUniverse(stype.LangJava)}
	p.registerBuiltins()
	if err := p.s.Parse(p.topLevel); err != nil {
		return nil, err
	}
	if err := p.u.Resolve(); err != nil {
		return nil, err
	}
	return p.u, nil
}

var javaModifiers = map[string]bool{
	"public": true, "private": true, "protected": true, "static": true,
	"final": true, "abstract": true, "native": true, "synchronized": true,
	"transient": true, "volatile": true, "strictfp": true,
}

var javaPrims = map[string]stype.Prim{
	"boolean": stype.PBool,
	"byte":    stype.PI8,
	"short":   stype.PI16,
	"int":     stype.PI32,
	"long":    stype.PI64,
	"char":    stype.PChar16,
	"float":   stype.PF32,
	"double":  stype.PF64,
	"void":    stype.PVoid,
}

type parser struct {
	s *scan.Scanner
	u *stype.Universe
}

// registerBuiltins installs the predefined standard classes. Each is
// registered under both its qualified and simple name, sharing one Stype
// node so annotations and lowering agree.
func (p *parser) registerBuiltins() {
	object := &stype.Type{Kind: stype.KClass, Name: "java.lang.Object"}
	str := &stype.Type{Kind: stype.KSequence, ElemType: stype.NewPrim(stype.PChar16)}
	vector := &stype.Type{Kind: stype.KClass, Name: "java.util.Vector"}
	// §3.4: "Vector is treated automatically as an ordered collection of
	// indefinite size." The default element type is Object; programmers
	// narrow it with a collection-of annotation.
	vector.Ann.CollectionOf = "java.lang.Object"
	for _, b := range []struct {
		qualified, simple string
		ty                *stype.Type
	}{
		{"java.lang.Object", "Object", object},
		{"java.lang.String", "String", str},
		{"java.util.Vector", "Vector", vector},
	} {
		// Errors are impossible on a fresh universe with distinct names.
		_, _ = p.u.Add(b.qualified, b.ty)
		_, _ = p.u.Add(b.simple, b.ty)
	}
}

// topLevel parses a package clause, an import, a stray semicolon or a
// type declaration.
func (p *parser) topLevel() error {
	switch {
	case p.s.AcceptIdent("package"):
		if _, err := p.qualifiedName(); err != nil {
			return err
		}
		_, err := p.s.Expect(";")
		return err
	case p.s.AcceptIdent("import"):
		// Imports may end in ".*"; consume tokens to the semicolon.
		for {
			tok := p.s.Next()
			if tok.Kind == scan.TokEOF {
				return p.s.Errorf(tok, "unterminated import")
			}
			if tok.Is(";") {
				return nil
			}
		}
	case p.s.Accept(";"):
		return nil
	}
	return p.typeDecl()
}

// typeDecl parses one class or interface declaration.
func (p *parser) typeDecl() error {
	for {
		t := p.s.Peek()
		if t.Kind == scan.TokIdent && javaModifiers[t.Text] {
			p.s.Next()
			continue
		}
		break
	}
	t := p.s.Next()
	if t.Kind != scan.TokIdent || (t.Text != "class" && t.Text != "interface") {
		return p.s.Errorf(t, "expected class or interface, found %s", t)
	}
	isInterface := t.Text == "interface"
	nameTok, err := p.s.ExpectIdent()
	if err != nil {
		return err
	}
	node := &stype.Type{Kind: stype.KClass, Name: nameTok.Text}
	if isInterface {
		node.Kind = stype.KInterface
	}
	if p.s.AcceptIdent("extends") {
		super, err := p.qualifiedName()
		if err != nil {
			return err
		}
		node.Super = super
		// An interface may extend several interfaces; the first is the
		// Super chain head, the rest join the method set via Embeds.
		for isInterface && p.s.Accept(",") {
			extra, err := p.qualifiedName()
			if err != nil {
				return err
			}
			node.Embeds = append(node.Embeds, extra)
		}
	}
	if p.s.AcceptIdent("implements") {
		// Implemented interfaces contribute their method sets to the
		// class's object port (recorded as Embeds); marshaling by value
		// still follows fields only.
		for {
			iface, err := p.qualifiedName()
			if err != nil {
				return err
			}
			node.Embeds = append(node.Embeds, iface)
			if !p.s.Accept(",") {
				break
			}
		}
	}
	// `class PointVector extends java.util.Vector;` — the paper's Figure 1
	// uses this declaration-only shorthand; accept it alongside a body.
	if p.s.Accept(";") {
		_, err := p.u.Add(node.Name, node)
		if err != nil {
			return p.s.Errorf(nameTok, "%v", err)
		}
		return nil
	}
	if _, err := p.s.Expect("{"); err != nil {
		return err
	}
	if err := p.members(node); err != nil {
		return err
	}
	if _, err := p.u.Add(node.Name, node); err != nil {
		return p.s.Errorf(nameTok, "%v", err)
	}
	return nil
}

// members parses the class body up to and including the closing brace.
func (p *parser) members(node *stype.Type) error {
	for {
		if p.s.Accept("}") {
			return nil
		}
		if p.s.Peek().Kind == scan.TokEOF {
			return p.s.Errorf(p.s.Peek(), "unterminated body of %s", node.Name)
		}
		if p.s.Accept(";") {
			continue
		}
		var isStatic bool
		for {
			t := p.s.Peek()
			if t.Kind == scan.TokIdent && javaModifiers[t.Text] {
				if t.Text == "static" {
					isStatic = true
				}
				p.s.Next()
				continue
			}
			break
		}
		// Static initializer block: `static { ... }`.
		if isStatic && p.s.Peek().Is("{") {
			if err := p.s.Skip("{", "}", "block"); err != nil {
				return err
			}
			continue
		}
		// Constructor: `Name(...)`.
		t := p.s.Peek()
		if t.Kind == scan.TokIdent && t.Text == node.Name {
			if p.s.Peek2().Is("(") {
				p.s.Next()
				if err := p.s.Skip("(", ")", "parameter list"); err != nil {
					return err
				}
				if err := p.skipThrowsAndBody(); err != nil {
					return err
				}
				continue
			}
		}
		ty, err := p.typeRef()
		if err != nil {
			return err
		}
		nameTok, err := p.s.ExpectIdent()
		if err != nil {
			return err
		}
		if p.s.Accept("(") {
			// Method.
			params, err := p.paramList()
			if err != nil {
				return err
			}
			if err := p.skipThrowsAndBody(); err != nil {
				return err
			}
			if isStatic {
				continue
			}
			m := stype.Method{Name: nameTok.Text, Params: params}
			if !(ty.Kind == stype.KPrim && ty.Prim == stype.PVoid) {
				m.Result = ty
			}
			node.Methods = append(node.Methods, m)
			continue
		}
		// Field(s): `float x, y;` with optional trailing `[]` per name and
		// optional initializers.
		for {
			fieldTy, err := p.dims(ty.Clone())
			if err != nil {
				return err
			}
			if !isStatic {
				node.Fields = append(node.Fields, stype.Field{Name: nameTok.Text, Type: fieldTy})
			}
			if p.s.Accept("=") {
				if err := p.s.Skip("([{", ")]}", "initializer"); err != nil {
					return err
				}
			}
			if p.s.Accept(",") {
				nameTok, err = p.s.ExpectIdent()
				if err != nil {
					return err
				}
				continue
			}
			if _, err := p.s.Expect(";"); err != nil {
				return err
			}
			break
		}
	}
}

// typeRef parses a type use: primitive or qualified class name, with any
// number of `[]` suffixes.
func (p *parser) typeRef() (*stype.Type, error) {
	t, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	var ty *stype.Type
	if prim, ok := javaPrims[t.Text]; ok {
		ty = stype.NewPrim(prim)
	} else {
		name := t.Text
		for p.s.Accept(".") {
			part, err := p.s.ExpectIdent()
			if err != nil {
				return nil, err
			}
			name += "." + part.Text
		}
		ty = stype.NewNamed(name)
	}
	if t := p.s.Peek(); t.Is("<") {
		return nil, p.s.Errorf(t, "generics are not supported (pre-Java-5 declarations only)")
	}
	for dims := 1; p.s.Peek().Is("[") && p.s.Peek2().Is("]"); dims++ {
		if err := p.s.Chain(dims, "array dimensions exceed depth budget of %d"); err != nil {
			return nil, err
		}
		p.s.Next()
		p.s.Next()
		ty = stype.NewArray(ty, -1)
	}
	return ty, nil
}

// dims parses the `[]` pairs after a declared name, each a dimension of
// an indefinite array of ty.
func (p *parser) dims(ty *stype.Type) (*stype.Type, error) {
	for dims := 1; p.s.Accept("["); dims++ {
		if err := p.s.Chain(dims, "array dimensions exceed depth budget of %d"); err != nil {
			return nil, err
		}
		if _, err := p.s.Expect("]"); err != nil {
			return nil, err
		}
		ty = stype.NewArray(ty, -1)
	}
	return ty, nil
}

func (p *parser) paramList() ([]stype.Param, error) {
	if p.s.Accept(")") {
		return nil, nil
	}
	var params []stype.Param
	for {
		p.s.AcceptIdent("final")
		ty, err := p.typeRef()
		if err != nil {
			return nil, err
		}
		nameTok, err := p.s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		if ty, err = p.dims(ty); err != nil {
			return nil, err
		}
		params = append(params, stype.Param{Name: nameTok.Text, Type: ty})
		if p.s.Accept(",") {
			continue
		}
		if _, err := p.s.Expect(")"); err != nil {
			return nil, err
		}
		return params, nil
	}
}

// qualifiedName parses a dotted name, allowing a trailing `.*`.
func (p *parser) qualifiedName() (string, error) {
	t, err := p.s.ExpectIdent()
	if err != nil {
		return "", err
	}
	name := t.Text
	for p.s.Accept(".") {
		if p.s.Accept("*") {
			name += ".*"
			break
		}
		part, err := p.s.ExpectIdent()
		if err != nil {
			return "", err
		}
		name += "." + part.Text
	}
	return name, nil
}

// skipThrowsAndBody consumes an optional throws clause and then either a
// semicolon (abstract/native) or a brace-balanced body.
func (p *parser) skipThrowsAndBody() error {
	if p.s.AcceptIdent("throws") {
		for {
			if _, err := p.qualifiedName(); err != nil {
				return err
			}
			if !p.s.Accept(",") {
				break
			}
		}
	}
	if p.s.Accept(";") {
		return nil
	}
	return p.s.Skip("{", "}", "block")
}

// MustParse is a test helper: it parses src and panics on error.
func MustParse(src string) *stype.Universe {
	u, err := Parse("<test>", src)
	if err != nil {
		panic(fmt.Sprintf("javaparse.MustParse: %v\nsource:\n%s", err, strings.TrimSpace(src)))
	}
	return u
}
