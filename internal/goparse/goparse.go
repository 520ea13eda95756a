// Package goparse parses Go struct and interface declarations into
// Stypes, making Go the fourth declaration frontend next to C, Java, and
// CORBA IDL. The subset is the declaration language a Go service already
// has: a package of struct and interface type declarations. The standard
// library's go/parser reads the file; this package walks its go/ast and
// holds only the mapping decisions, Go type → Stype.
//
//   - Struct fields carry the basic types, fixed arrays ([N]T), slices
//     ([]T, the indefinite-size ordered collection), maps (lowered as an
//     annotated sequence of Key/Value records), and pointers (nullable
//     references, per §3.2's Choice(Unit, τ)).
//   - A bare struct-typed field is a value: the parser stamps such uses
//     nonnull+noalias, so lowering concludes containment exactly as §3.4
//     concludes every Line contains two Points.
//   - Struct embedding is recorded (Field.Embedded) and flattened by the
//     lowering pass per Go's promotion rules; embedded interfaces join
//     the method set breadth-first, and same-depth promotions of one name
//     are a typed lowering error rather than silent first-wins.
//   - Interfaces are object ports: port(Choice(invocations)), the
//     dictionary-passing reading of an interface value. An
//     interface-typed field is a nullable reference to that dictionary.
//   - `mbird:"..."` struct tags carry the shared annotation vocabulary
//     (nonnull, length=N, range=LO..HI, char, collection-of=T, ignore, …)
//     so Go needs no side-car annotation script.
//   - Receiver methods (func (r T) Name(…)) join T's method set; their
//     bodies must be valid Go and are otherwise ignored. Plain functions
//     become KFunc declarations like the C frontend's.
//
// Deliberately rejected, with clear errors: const/var declarations,
// generics, channels, function-typed fields, the empty interface,
// qualified (imported) type names, multiple return values, and unnamed
// parameters. Unexported fields and methods are parsed but skipped by
// lowering — they are not part of the wire contract.
package goparse

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/annotate"
	"repro/internal/limits"
	"repro/internal/scan"
	"repro/internal/stype"
)

// Parse parses Go declarations into a universe with the default input
// budget. file is used in error messages.
func Parse(file, src string) (*stype.Universe, error) {
	return ParseBudget(file, src, limits.Budget{})
}

// ParseBudget is Parse with an explicit input budget (zero fields take
// limits defaults). Violations return an error wrapping limits.ErrBudget.
func ParseBudget(file, src string, b limits.Budget) (*stype.Universe, error) {
	b = b.WithDefaults()
	if len(src) > b.MaxBytes {
		return nil, limits.Exceededf("%s: input is %d bytes, budget is %d", file, len(src), b.MaxBytes)
	}
	if err := countTokens(file, src, b.MaxTokens); err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, syntaxError(err)
	}
	w := &walker{fset: fset, file: file, src: src, maxDepth: b.MaxDepth, u: stype.NewUniverse(stype.LangGo)}
	if err := w.walk(f); err != nil {
		return nil, err
	}
	if err := w.u.Resolve(); err != nil {
		return nil, err
	}
	if err := w.checkEmbeds(); err != nil {
		return nil, err
	}
	w.applyValueSemantics()
	return w.u, nil
}

// MustParse parses or panics; for tests and examples.
func MustParse(src string) *stype.Universe {
	u, err := Parse("test.go", src)
	if err != nil {
		panic(err)
	}
	return u
}

// countTokens spends the token budget with go/scanner before parsing.
// Every Go token but the final inserted ";" spends at least one byte, so
// a source shorter than the budget cannot exhaust it and is not scanned
// twice.
func countTokens(file, src string, max int) error {
	if len(src)+1 < max {
		return nil
	}
	fset := token.NewFileSet()
	var s scanner.Scanner
	s.Init(fset.AddFile(file, -1, len(src)), []byte(src), nil, 0)
	for n := 0; ; n++ {
		pos, tok, _ := s.Scan()
		if tok == token.EOF {
			return nil
		}
		if n == max {
			p := fset.Position(pos)
			return limits.Exceededf("%s:%d:%d: token budget of %d exhausted", file, p.Line, p.Column, max)
		}
	}
}

// syntaxError reports go/parser's first error in the file:line:col: form
// the other frontends use; its nesting bailout is a budget violation.
func syntaxError(err error) error {
	var list scanner.ErrorList
	if !errors.As(err, &list) || len(list) == 0 {
		return err
	}
	for _, e := range list {
		if e.Msg == "exceeded max nesting depth" {
			return limits.Exceededf("%s: nesting exceeds go/parser's depth limit", e.Pos)
		}
	}
	e := list[0]
	return &scan.Error{File: e.Pos.Filename, Line: e.Pos.Line, Col: e.Pos.Column, Msg: e.Msg}
}

// goPrims maps Go's predeclared numeric/boolean identifiers onto the
// language-neutral primitives. int and uint follow the LP64 convention
// documented for the C frontend. rune and string are handled separately
// (character and text semantics).
var goPrims = map[string]stype.Prim{
	"bool":    stype.PBool,
	"int8":    stype.PI8,
	"uint8":   stype.PU8,
	"byte":    stype.PU8,
	"int16":   stype.PI16,
	"uint16":  stype.PU16,
	"int32":   stype.PI32,
	"uint32":  stype.PU32,
	"int64":   stype.PI64,
	"uint64":  stype.PU64,
	"int":     stype.PI64,
	"uint":    stype.PU64,
	"float32": stype.PF32,
	"float64": stype.PF64,
}

// rejected maps the words that begin type forms outside the declaration
// subset to the reason they are rejected.
var rejected = map[string]string{
	"func":       "function-typed fields are not supported (declare the operation on an interface)",
	"chan":       "channel types have no wire representation",
	"any":        "the empty interface has no declared structure to compare",
	"error":      "error values are not part of the declaration subset",
	"complex64":  "complex numbers have no Mtype; declare a two-field struct",
	"complex128": "complex numbers have no Mtype; declare a two-field struct",
	"uintptr":    "uintptr is not portable across endpoints",
}

type pendingMethod struct {
	recv string
	at   token.Pos
	m    stype.Method
}

// walker lowers one parsed file into a universe. A refusal deep in the
// walk unwinds to walk as a panic carrying the error, the way go/parser
// bails out, so each lowering rule reads as the Stype it builds.
type walker struct {
	fset     *token.FileSet
	file     string
	src      string
	maxDepth int
	u        *stype.Universe
	pending  []pendingMethod
	named    []*stype.Type // every use of a declared name, for applyValueSemantics
}

// refusal is the panic value of a failed walk.
type refusal struct{ err error }

// walk lowers the file's declarations and attaches receiver methods,
// returning the first refusal.
func (w *walker) walk(f *ast.File) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ref, ok := r.(refusal)
			if !ok {
				panic(r)
			}
			err = ref.err
		}
	}()
	w.decls(f)
	w.attachMethods()
	return nil
}

func (w *walker) errorf(at token.Pos, format string, args ...interface{}) error {
	p := w.fset.Position(at)
	return &scan.Error{File: w.file, Line: p.Line, Col: p.Column, Msg: fmt.Sprintf(format, args...)}
}

// fail refuses the file with a positioned error.
func (w *walker) fail(at token.Pos, format string, args ...interface{}) {
	panic(refusal{w.errorf(at, format, args...)})
}

// tokenAt returns the text of the source token at pos, which refusals
// quote.
func (w *walker) tokenAt(pos token.Pos) string {
	rest := w.src[w.fset.Position(pos).Offset:]
	var s scanner.Scanner
	s.Init(token.NewFileSet().AddFile("", -1, len(rest)), []byte(rest), nil, 0)
	_, tok, lit := s.Scan()
	if lit == "" {
		return tok.String()
	}
	return lit
}

func (w *walker) decls(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.GenDecl:
			switch d.Tok {
			case token.CONST, token.VAR:
				w.fail(d.TokPos, "%s declarations are outside the declaration subset (only type and func declarations are read)", d.Tok)
			case token.TYPE:
				for _, s := range d.Specs {
					w.typeSpec(s.(*ast.TypeSpec))
				}
			}
		case *ast.FuncDecl:
			w.funcDecl(d)
		}
	}
}

func (w *walker) typeSpec(s *ast.TypeSpec) {
	if s.TypeParams != nil {
		w.fail(s.TypeParams.Opening, "generic type declarations are not supported")
	}
	var ty *stype.Type
	switch t := s.Type.(type) {
	case *ast.StructType:
		ty = &stype.Type{Kind: stype.KClass, Name: s.Name.Name}
		w.fields(ty, t.Fields, 0)
	case *ast.InterfaceType:
		ty = &stype.Type{Kind: stype.KInterface, Name: s.Name.Name}
		w.interfaceBody(ty, t.Methods)
	default:
		ty = w.typeRef(s.Type, 0)
	}
	w.addDecl(s.Name, ty)
}

func (w *walker) addDecl(id *ast.Ident, ty *stype.Type) {
	if _, err := w.u.Add(id.Name, ty); err != nil {
		w.fail(id.Pos(), "%v", err)
	}
}

// fields lowers a struct's fields into node.Fields. Each name of a group
// lowers the group's type again, so every use-site is its own node.
func (w *walker) fields(node *stype.Type, list *ast.FieldList, depth int) {
	seen := make(map[string]bool)
	add := func(at token.Pos, fld stype.Field, tag *ast.BasicLit) {
		w.applyTag(fld.Type, tag)
		if seen[fld.Name] {
			w.fail(at, "duplicate field %s in %s", fld.Name, node.Name)
		}
		seen[fld.Name] = true
		node.Fields = append(node.Fields, fld)
	}
	for _, f := range list.List {
		if len(f.Names) == 0 {
			add(f.Type.Pos(), w.embedded(f.Type), f.Tag)
		}
		for _, id := range f.Names {
			add(id.Pos(), stype.Field{Name: id.Name, Type: w.typeRef(f.Type, depth)}, f.Tag)
		}
	}
}

// embedded lowers an embedded field, marked Embedded. The lowering
// flattens an embedded T's fields into the record; *T stays an optional
// reference (fields promoted through a nullable pointer would make the
// record's shape depend on runtime state) but promotes T's methods.
func (w *walker) embedded(e ast.Expr) stype.Field {
	if star, ok := e.(*ast.StarExpr); ok {
		name := w.typeName(star.X)
		return stype.Field{Name: name, Type: stype.NewPointer(w.use(name)), Embedded: true}
	}
	name := w.typeName(e)
	return stype.Field{Name: name, Type: w.use(name), Embedded: true}
}

// use returns a new reference to a declared name.
func (w *walker) use(name string) *stype.Type {
	n := stype.NewNamed(name)
	w.named = append(w.named, n)
	return n
}

// typeName reads a bare type name: an embedded field or interface, or a
// receiver's base type.
func (w *walker) typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		w.qualified(e)
	case *ast.IndexExpr, *ast.IndexListExpr:
		w.fail(e.Pos(), "generic type instantiations are not supported")
	}
	w.fail(e.Pos(), "expected type name, found %q", w.tokenAt(e.Pos()))
	return ""
}

func (w *walker) qualified(e *ast.SelectorExpr) {
	w.fail(e.Pos(), "qualified type name %s.…: imported types are not supported; declare the shape locally", e.X)
}

// applyTag merges the attributes of a struct tag's mbird key, if any,
// into the node's annotations.
func (w *walker) applyTag(ty *stype.Type, tag *ast.BasicLit) {
	if tag == nil {
		return
	}
	raw, _ := strconv.Unquote(tag.Value) // go/parser has checked the literal
	val, ok := reflect.StructTag(raw).Lookup("mbird")
	if !ok {
		return // tags for other tools (json:, xml:, …) are fine
	}
	var words []string
	for _, word := range strings.Split(val, ",") {
		if word = strings.TrimSpace(word); word != "" {
			words = append(words, word)
		}
	}
	if len(words) == 0 {
		return
	}
	ann, err := annotate.ParseAttrs(words)
	if err != nil {
		w.fail(tag.Pos(), "struct tag: %v", err)
	}
	ty.Ann = ty.Ann.Merge(ann)
}

// interfaceBody lowers an interface's method signatures and embedded
// interface names.
func (w *walker) interfaceBody(node *stype.Type, list *ast.FieldList) {
	for _, f := range list.List {
		if len(f.Names) == 0 {
			node.Embeds = append(node.Embeds, w.typeName(f.Type))
			continue
		}
		id := f.Names[0]
		params, result := w.signature(f.Type.(*ast.FuncType))
		for _, m := range node.Methods {
			if m.Name == id.Name {
				w.fail(id.Pos(), "duplicate method %s in interface %s", id.Name, node.Name)
			}
		}
		node.Methods = append(node.Methods, stype.Method{Name: id.Name, Params: params, Result: result})
	}
}

// signature lowers parameters and result. Parameter names are required
// (the lowering's length-from relationships are by name); results are
// limited to one (no error channel on the wire — reject (T, error)).
func (w *walker) signature(ft *ast.FuncType) ([]stype.Param, *stype.Type) {
	params := make([]stype.Param, 0, ft.Params.NumFields())
	for _, f := range ft.Params.List {
		if len(f.Names) == 0 {
			if _, ok := f.Type.(*ast.Ident); ok {
				w.fail(f.Type.Pos(), "parameter names are required (types-only parameter lists are not supported)")
			}
			w.fail(f.Type.Pos(), "parameter names are required (found %q)", w.tokenAt(f.Type.Pos()))
		}
		for _, id := range f.Names {
			params = append(params, stype.Param{Name: id.Name, Type: w.typeRef(f.Type, 0)})
		}
	}
	if ft.Results == nil {
		return params, nil
	}
	if ft.Results.Opening.IsValid() {
		w.fail(ft.Results.Opening, "multiple return values are not supported (declare an out-parameter struct; (T, error) has no wire mapping)")
	}
	return params, w.typeRef(ft.Results.List[0].Type, 0)
}

// typeRef lowers a type use, checking the depth budget as it descends.
func (w *walker) typeRef(e ast.Expr, depth int) *stype.Type {
	if depth > w.maxDepth {
		p := w.fset.Position(e.Pos())
		panic(refusal{limits.Exceededf("%d:%d: type nesting exceeds depth budget of %d", p.Line, p.Column, w.maxDepth)})
	}
	switch e := e.(type) {
	case *ast.StarExpr:
		return stype.NewPointer(w.typeRef(e.X, depth+1))
	case *ast.ArrayType:
		if e.Len == nil {
			return stype.NewSequence(w.typeRef(e.Elt, depth+1))
		}
		n := w.arrayLen(e.Len)
		return stype.NewArray(w.typeRef(e.Elt, depth+1), n)
	case *ast.MapType:
		// A map is an annotated sequence of Key/Value pairs: its wire
		// form is the list of entries (iteration order is the sender's;
		// the contract carries the multiset).
		key := w.typeRef(e.Key, depth+1)
		return stype.NewSequence(&stype.Type{Kind: stype.KStruct, Fields: []stype.Field{
			{Name: "Key", Type: key},
			{Name: "Value", Type: w.typeRef(e.Value, depth+1)},
		}})
	case *ast.StructType:
		node := &stype.Type{Kind: stype.KStruct}
		w.fields(node, e.Fields, depth+1)
		return node
	case *ast.InterfaceType:
		w.fail(e.Pos(), "inline interface types are not supported; declare a named interface")
	case *ast.FuncType:
		w.fail(e.Pos(), "func: %s", rejected["func"])
	case *ast.ChanType:
		if e.Arrow == e.Begin { // <-chan T
			w.fail(e.Pos(), "%s", rejected["chan"])
		}
		w.fail(e.Pos(), "chan: %s", rejected["chan"])
	case *ast.SelectorExpr:
		w.qualified(e)
	case *ast.IndexExpr, *ast.IndexListExpr:
		w.fail(e.Pos(), "generic type instantiations are not supported")
	case *ast.Ident:
		if reason, bad := rejected[e.Name]; bad {
			w.fail(e.Pos(), "%s: %s", e.Name, reason)
		}
		switch e.Name {
		case "rune":
			ty := stype.NewPrim(stype.PI32)
			yes := true
			ty.Ann.AsChar = &yes
			return ty
		case "string":
			// Text: a sequence of narrow characters, matching the IDL
			// string lowering (Go source text is byte-oriented UTF-8; use
			// []rune or a char-tagged integer for wide repertoires).
			return stype.NewSequence(stype.NewPrim(stype.PChar8))
		}
		if prim, ok := goPrims[e.Name]; ok {
			return stype.NewPrim(prim)
		}
		return w.use(e.Name)
	}
	w.fail(e.Pos(), "expected type, found %q", w.tokenAt(e.Pos()))
	return nil
}

// arrayLen reads a fixed array length, which must be a literal.
func (w *walker) arrayLen(e ast.Expr) int {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind == token.STRING || lit.Kind == token.CHAR {
		w.fail(e.Pos(), "array length must be an integer literal, found %q", w.tokenAt(e.Pos()))
	}
	n, err := strconv.ParseInt(lit.Value, 0, 32)
	if err != nil || n < 0 {
		w.fail(e.Pos(), "invalid array length %q", lit.Value)
	}
	return int(n)
}

// funcDecl lowers a top-level function: receiver methods join their
// type's method set, plain functions become KFunc declarations.
func (w *walker) funcDecl(d *ast.FuncDecl) {
	var recv string
	if d.Recv != nil {
		if len(d.Recv.List) != 1 || len(d.Recv.List[0].Names) > 1 {
			w.fail(d.Recv.Opening, "a method has exactly one receiver")
		}
		// The receiver's base type: T or *T, and a generic one is refused.
		e := d.Recv.List[0].Type
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		switch e.(type) {
		case *ast.IndexExpr, *ast.IndexListExpr:
			w.fail(e.Pos(), "generic receivers are not supported")
		}
		recv = w.typeName(e)
	}
	if d.Type.TypeParams != nil {
		w.fail(d.Type.TypeParams.Opening, "generic functions are not supported")
	}
	params, result := w.signature(d.Type)
	if recv == "" {
		w.addDecl(d.Name, &stype.Type{Kind: stype.KFunc, Params: params, Result: result})
		return
	}
	w.pending = append(w.pending, pendingMethod{
		recv: recv, at: d.Name.Pos(),
		m: stype.Method{Name: d.Name.Name, Params: params, Result: result},
	})
}

// attachMethods appends receiver methods to their declarations.
func (w *walker) attachMethods() {
	for _, pm := range w.pending {
		d := w.u.Lookup(pm.recv)
		if d == nil {
			w.fail(pm.at, "method %s declared on undeclared type %s", pm.m.Name, pm.recv)
		}
		if d.Type.Kind == stype.KInterface {
			w.fail(pm.at, "cannot declare method %s on interface %s", pm.m.Name, pm.recv)
		}
		for _, ex := range d.Type.Methods {
			if ex.Name == pm.m.Name {
				w.fail(pm.at, "method %s redeclared on %s", pm.m.Name, pm.recv)
			}
		}
		d.Type.Methods = append(d.Type.Methods, pm.m)
	}
	w.pending = nil
}

// checkEmbeds verifies every embedded interface name resolves: unlike
// Java's external supers, Go embeds always live in the parsed package.
func (w *walker) checkEmbeds() error {
	for _, d := range w.u.Decls() {
		for _, e := range d.Type.Embeds {
			if w.u.Lookup(e) == nil {
				return w.errorf(token.NoPos, "interface %s embeds undeclared interface %s", d.Name, e)
			}
		}
	}
	return nil
}

// applyValueSemantics stamps every use of a struct-declared name
// nonnull+noalias: a Go value of struct type is the struct, so lowering
// concludes by-value containment (§3.4) with no Choice(Unit, τ) wrapper.
// Interface-typed uses stay nullable references to the method dictionary.
func (w *walker) applyValueSemantics() {
	isValue := make(map[string]bool)
	for _, n := range w.named {
		v, ok := isValue[n.Name]
		if !ok {
			t := w.underlying(n.Name)
			v = t != nil && t.Kind == stype.KClass
			isValue[n.Name] = v
		}
		if v {
			n.Ann.NonNull = true
			n.Ann.NoAlias = true
		}
	}
}

// underlying resolves a declared name through typedef-like chains to its
// defining Stype node.
func (w *walker) underlying(name string) *stype.Type {
	seen := make(map[string]bool)
	for !seen[name] {
		seen[name] = true
		d := w.u.Lookup(name)
		if d == nil {
			return nil
		}
		if d.Type.Kind == stype.KNamed {
			name = d.Type.Name
			continue
		}
		return d.Type
	}
	return nil
}
