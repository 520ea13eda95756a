package proto

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/mtype"
	"repro/internal/value"
	"repro/internal/wire"
)

type inner struct {
	Name string
	N    int64
}

type outer struct {
	Ready bool
	Took  time.Duration
	Size  int
	Kind  uint8
	Tags  []string
	Items []inner
	One   inner
}

var (
	innerRec = Declare(func(x *inner) []Field { return []Field{String(&x.Name), Num(&x.N)} })
	outerRec = Declare(func(x *outer) []Field {
		return []Field{
			Bool(&x.Ready), Num(&x.Took), Num(&x.Size), Num(&x.Kind),
			List(&x.Tags, String), List(&x.Items, innerRec.Field), innerRec.Field(&x.One),
		}
	})
)

// TestDeclaredRecord: the derived Mtype and bytes are exactly what the
// hand-assembled record they replace would produce, and decoding
// restores every field.
func TestDeclaredRecord(t *testing.T) {
	in := outer{
		Ready: true, Took: 3 * time.Millisecond, Size: -7, Kind: 200,
		Tags:  []string{"a", "žluť"},
		Items: []inner{{"x", 1}, {"", -2}},
		One:   inner{"one", 1 << 40},
	}
	got, err := outerRec.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}

	innerT := mtype.RecordOf(StrT, IntT)
	handT := mtype.RecordOf(IntT, IntT, IntT, IntT, mtype.NewList(StrT), mtype.NewList(innerT), innerT)
	item := func(s string, n int64) value.Value { return value.NewRecord(str(s), value.NewInt(n)) }
	want, err := wire.Marshal(handT, value.NewRecord(
		value.NewInt(1), value.NewInt(3e6), value.NewInt(-7), value.NewInt(200),
		value.FromSlice([]value.Value{str("a"), str("žluť")}),
		value.FromSlice([]value.Value{item("x", 1), item("", -2)}),
		item("one", 1<<40)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("declared record encodes\n %x\nhand-assembled record encodes\n %x", got, want)
	}

	var out outer
	if err := outerRec.Unmarshal(got, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
}

// TestDeclaredRecordRejects: outside input stays checked — short, long
// and wrongly-shaped records are errors, and an empty list decodes
// non-nil.
func TestDeclaredRecordRejects(t *testing.T) {
	data, err := outerRec.Marshal(&outer{})
	if err != nil {
		t.Fatal(err)
	}
	var out outer
	if err := outerRec.Unmarshal(data, &out); err != nil || out.Tags == nil || out.Items == nil {
		t.Fatalf("zero record: err = %v, decoded %+v", err, out)
	}
	if err := outerRec.Unmarshal(data[:len(data)-1], &out); err == nil {
		t.Error("truncated record decoded")
	}
	if err := outerRec.Unmarshal(append(data, 0), &out); err == nil {
		t.Error("record with a trailing byte decoded")
	}
	for _, v := range []value.Value{
		value.NewInt(1),
		value.NewRecord(str("x")),
		value.NewRecord(value.NewInt(1), value.NewInt(2)),
	} {
		if err := innerRec.Field(new(inner)).dec(v); err == nil {
			t.Errorf("inner record accepted %v", v)
		}
	}
}
