// Package project saves and restores tool sessions: "the programmer can
// save the current state of the parsed and annotated declarations in a
// project file for later use" (§3). The file is JSON holding every loaded
// universe with all annotations; loading re-resolves name references.
package project

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/stype"
)

// File is the serialized session.
type File struct {
	// Format identifies the file format version.
	Format    int        `json:"format"`
	Universes []Universe `json:"universes"`
}

// Universe is one serialized declaration set.
type Universe struct {
	Name  string `json:"name"`
	Lang  string `json:"lang"`
	Decls []Decl `json:"decls"`
}

// Decl is one serialized declaration. A declaration whose type node an
// earlier declaration of its universe holds (javaparse's
// java.util.Vector/Vector) names that declaration as its Alias instead,
// and loads sharing the node; a file without aliases loads as before.
type Decl struct {
	Name  string `json:"name"`
	Type  *Type  `json:"type,omitempty"`
	Alias string `json:"alias,omitempty"`
}

// Type mirrors stype.Type for serialization; Named targets are stored by
// name only and re-resolved on load.
type Type struct {
	Kind      string    `json:"kind"`
	Ann       stype.Ann `json:"ann,omitempty"`
	Prim      string    `json:"prim,omitempty"`
	Name      string    `json:"name,omitempty"`
	Fields    []Field   `json:"fields,omitempty"`
	Methods   []Method  `json:"methods,omitempty"`
	Super     string    `json:"super,omitempty"`
	Embeds    []string  `json:"embeds,omitempty"`
	EnumNames []string  `json:"enumNames,omitempty"`
	Elem      *Type     `json:"elem,omitempty"`
	Len       int       `json:"len,omitempty"`
	Params    []Param   `json:"params,omitempty"`
	Result    *Type     `json:"result,omitempty"`
}

// Field mirrors stype.Field.
type Field struct {
	Name     string `json:"name"`
	Type     *Type  `json:"type"`
	Embedded bool   `json:"embedded,omitempty"`
}

// Param mirrors stype.Param.
type Param struct {
	Name string `json:"name"`
	Type *Type  `json:"type"`
}

// Method mirrors stype.Method.
type Method struct {
	Name   string    `json:"name"`
	Params []Param   `json:"params,omitempty"`
	Result *Type     `json:"result,omitempty"`
	Ann    stype.Ann `json:"ann,omitempty"`
	Oneway bool      `json:"oneway,omitempty"`
}

var kindNames = map[stype.TKind]string{
	stype.KPrim: "prim", stype.KNamed: "named", stype.KStruct: "struct",
	stype.KUnion: "union", stype.KClass: "class", stype.KInterface: "interface",
	stype.KEnum: "enum", stype.KPointer: "pointer", stype.KArray: "array",
	stype.KSequence: "sequence", stype.KFunc: "func",
}

var kindValues = invertKinds()

func invertKinds() map[string]stype.TKind {
	out := make(map[string]stype.TKind, len(kindNames))
	for k, v := range kindNames {
		out[v] = k
	}
	return out
}

var primNames = map[stype.Prim]string{
	stype.PVoid: "void", stype.PBool: "bool",
	stype.PI8: "int8", stype.PU8: "uint8", stype.PI16: "int16", stype.PU16: "uint16",
	stype.PI32: "int32", stype.PU32: "uint32", stype.PI64: "int64", stype.PU64: "uint64",
	stype.PF32: "float32", stype.PF64: "float64",
	stype.PChar8: "char8", stype.PChar16: "char16",
}

var primValues = invertPrims()

func invertPrims() map[string]stype.Prim {
	out := make(map[string]stype.Prim, len(primNames))
	for k, v := range primNames {
		out[v] = k
	}
	return out
}

var langNames = map[stype.Lang]string{
	stype.LangC: "c", stype.LangJava: "java", stype.LangIDL: "idl",
	stype.LangGo: "go",
}

var langValues = map[string]stype.Lang{
	"c": stype.LangC, "java": stype.LangJava, "idl": stype.LangIDL,
	"go": stype.LangGo,
}

// Save serializes a session to JSON.
func Save(s *core.Session) ([]byte, error) {
	f := File{Format: 1}
	for _, name := range s.Universes() {
		u := s.Universe(name)
		fu := Universe{Name: name, Lang: langNames[u.Lang()]}
		first := map[*stype.Type]string{}
		for _, d := range u.Decls() {
			if alias, ok := first[d.Type]; ok {
				fu.Decls = append(fu.Decls, Decl{Name: d.Name, Alias: alias})
				continue
			}
			first[d.Type] = d.Name
			fu.Decls = append(fu.Decls, Decl{Name: d.Name, Type: encodeType(d.Type)})
		}
		f.Universes = append(f.Universes, fu)
	}
	return json.MarshalIndent(f, "", "  ")
}

func encodeType(t *stype.Type) *Type {
	if t == nil {
		return nil
	}
	out := &Type{
		Kind:      kindNames[t.Kind],
		Ann:       t.Ann,
		Name:      t.Name,
		Super:     t.Super,
		Embeds:    t.Embeds,
		EnumNames: t.EnumNames,
		Elem:      encodeType(t.ElemType),
		Len:       t.Len,
		Result:    encodeType(t.Result),
	}
	if t.Kind == stype.KPrim {
		out.Prim = primNames[t.Prim]
	}
	for _, f := range t.Fields {
		out.Fields = append(out.Fields, Field{Name: f.Name, Type: encodeType(f.Type), Embedded: f.Embedded})
	}
	for _, p := range t.Params {
		out.Params = append(out.Params, Param{Name: p.Name, Type: encodeType(p.Type)})
	}
	for _, m := range t.Methods {
		fm := Method{Name: m.Name, Result: encodeType(m.Result), Ann: m.Ann, Oneway: m.Oneway}
		for _, p := range m.Params {
			fm.Params = append(fm.Params, Param{Name: p.Name, Type: encodeType(p.Type)})
		}
		out.Methods = append(out.Methods, fm)
	}
	return out
}

// Load reconstructs a session from JSON.
func Load(data []byte) (*core.Session, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("project: %w", err)
	}
	if f.Format != 1 {
		return nil, fmt.Errorf("project: unsupported format %d", f.Format)
	}
	s := core.NewSession()
	for _, fu := range f.Universes {
		lang, ok := langValues[fu.Lang]
		if !ok {
			return nil, fmt.Errorf("project: unknown language %q", fu.Lang)
		}
		u := stype.NewUniverse(lang)
		for _, fd := range fu.Decls {
			ty, err := decodeType(fd.Type)
			if fd.Alias != "" {
				if d := u.Lookup(fd.Alias); d != nil {
					ty = d.Type
				} else {
					err = fmt.Errorf("alias of undeclared %q", fd.Alias)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("project: %s.%s: %w", fu.Name, fd.Name, err)
			}
			if _, err := u.Add(fd.Name, ty); err != nil {
				return nil, fmt.Errorf("project: %w", err)
			}
		}
		if err := u.Resolve(); err != nil {
			return nil, fmt.Errorf("project: universe %s: %w", fu.Name, err)
		}
		if err := s.AddUniverse(fu.Name, u); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func decodeType(t *Type) (*stype.Type, error) {
	if t == nil {
		return nil, nil
	}
	kind, ok := kindValues[t.Kind]
	if !ok {
		return nil, fmt.Errorf("unknown kind %q", t.Kind)
	}
	out := &stype.Type{
		Kind:      kind,
		Ann:       t.Ann,
		Name:      t.Name,
		Super:     t.Super,
		Embeds:    t.Embeds,
		EnumNames: t.EnumNames,
		Len:       t.Len,
	}
	if kind == stype.KPrim {
		prim, ok := primValues[t.Prim]
		if !ok {
			return nil, fmt.Errorf("unknown primitive %q", t.Prim)
		}
		out.Prim = prim
	}
	var err error
	if out.ElemType, err = decodeType(t.Elem); err != nil {
		return nil, err
	}
	if out.Result, err = decodeType(t.Result); err != nil {
		return nil, err
	}
	for _, f := range t.Fields {
		ft, err := decodeType(f.Type)
		if err != nil {
			return nil, err
		}
		out.Fields = append(out.Fields, stype.Field{Name: f.Name, Type: ft, Embedded: f.Embedded})
	}
	for _, p := range t.Params {
		pt, err := decodeType(p.Type)
		if err != nil {
			return nil, err
		}
		out.Params = append(out.Params, stype.Param{Name: p.Name, Type: pt})
	}
	for _, m := range t.Methods {
		res, err := decodeType(m.Result)
		if err != nil {
			return nil, err
		}
		sm := stype.Method{Name: m.Name, Result: res, Ann: m.Ann, Oneway: m.Oneway}
		for _, p := range m.Params {
			pt, err := decodeType(p.Type)
			if err != nil {
				return nil, err
			}
			sm.Params = append(sm.Params, stype.Param{Name: p.Name, Type: pt})
		}
		out.Methods = append(out.Methods, sm)
	}
	return out, nil
}
