package project

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// FuzzProjectLoad feeds arbitrary bytes to Load. Either Load returns an
// error, or every declaration of every loaded universe lowers to an
// Mtype or an error without panicking, and Save of the loaded session
// loads back and saves to the same bytes. The seeds are the universes
// of testdata/save.golden, one file each.
func FuzzProjectLoad(f *testing.F) {
	golden, err := os.ReadFile("testdata/save.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, session := range strings.Split(string(golden), "\n== ") {
		_, file, _ := strings.Cut(session, "\n")
		var saved struct{ Universes []json.RawMessage }
		if err := json.Unmarshal([]byte(file), &saved); err != nil {
			f.Fatal(err)
		}
		for _, u := range saved.Universes {
			f.Add([]byte(`{"format": 1, "universes": [` + string(u) + `]}`))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(data)
		if err != nil {
			return
		}
		for _, name := range s.Universes() {
			for _, d := range s.Universe(name).Names() {
				_, _ = s.Mtype(name, d)
			}
		}
		saved, err := Save(s)
		if err != nil {
			t.Fatalf("Save of a loaded session: %v", err)
		}
		back, err := Load(saved)
		if err != nil {
			t.Fatalf("Load of a saved session: %v", err)
		}
		again, err := Save(back)
		if err != nil {
			t.Fatalf("Save after the round trip: %v", err)
		}
		if string(again) != string(saved) {
			t.Fatalf("Save -> Load -> Save drifts:\n%s\n%s", saved, again)
		}
	})
}
