package testutil

import (
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/proto"
)

// Golden pins a declared record to wire bytes captured from the
// hand-written codec it replaced (testdata/golden/<name>.hex in the
// calling package): the bytes must decode to want, want must encode back
// to the identical bytes, and a record eight bytes — one counter — short
// or long must be refused rather than misread.
func Golden[T any](t *testing.T, rec *proto.Schema[T], name string, want T) {
	t.Helper()
	text, err := os.ReadFile("testdata/golden/" + name + ".hex")
	if err != nil {
		t.Fatal(err)
	}
	data, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	var got T
	if err := rec.Unmarshal(data, &got); err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: decoded\n %+v\nwant\n %+v", name, got, want)
	}
	enc, err := rec.Marshal(&want)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	if !bytes.Equal(enc, data) {
		t.Errorf("%s: encoded\n %x\nwant\n %x", name, enc, data)
	}
	if err := rec.Unmarshal(data[:len(data)-8], &got); err == nil {
		t.Errorf("%s: a record 8 bytes short decoded", name)
	}
	if err := rec.Unmarshal(append(data[:len(data):len(data)], make([]byte, 8)...), &got); err == nil {
		t.Errorf("%s: a record 8 bytes long decoded", name)
	}
}
