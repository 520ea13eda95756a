// Package project saves and restores tool sessions: "the programmer can
// save the current state of the parsed and annotated declarations in a
// project file for later use" (§3). The file is JSON holding every loaded
// universe, each declaration's Stype in stype's own JSON form with all
// its annotations; loading re-resolves name references in the walk a
// parsed universe's Resolve makes, which refuses ill-formed nodes.
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
	Name  string     `json:"name"`
	Lang  stype.Lang `json:"lang"`
	Decls []Decl     `json:"decls"`
}

// Decl is one serialized declaration. A declaration whose type node an
// earlier declaration of its universe holds (javaparse's
// java.util.Vector/Vector) names that declaration as its Alias instead,
// and loads sharing the node; a file without aliases loads as before.
type Decl struct {
	Name  string      `json:"name"`
	Type  *stype.Type `json:"type,omitempty"`
	Alias string      `json:"alias,omitempty"`
}

// Save serializes a session to JSON.
func Save(s *core.Session) ([]byte, error) {
	f := File{Format: 1}
	for _, name := range s.Universes() {
		u := s.Universe(name)
		fu := Universe{Name: name, Lang: u.Lang()}
		first := map[*stype.Type]string{}
		for _, d := range u.Decls() {
			if alias, ok := first[d.Type]; ok {
				fu.Decls = append(fu.Decls, Decl{Name: d.Name, Alias: alias})
				continue
			}
			first[d.Type] = d.Name
			fu.Decls = append(fu.Decls, Decl{Name: d.Name, Type: d.Type})
		}
		f.Universes = append(f.Universes, fu)
	}
	return json.MarshalIndent(f, "", "  ")
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
		if fu.Lang == 0 {
			return nil, fmt.Errorf("project: universe %s has no language", fu.Name)
		}
		u := stype.NewUniverse(fu.Lang)
		for _, fd := range fu.Decls {
			ty := fd.Type
			if fd.Alias != "" {
				d := u.Lookup(fd.Alias)
				if d == nil {
					return nil, fmt.Errorf("project: %s.%s: alias of undeclared %q", fu.Name, fd.Name, fd.Alias)
				}
				ty = d.Type
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
