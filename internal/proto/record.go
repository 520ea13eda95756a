package proto

import (
	"fmt"

	"repro/internal/mtype"
	"repro/internal/value"
	"repro/internal/wire"
)

// Field is one slot of a declared record: the slot's protocol Mtype and
// the conversions between it and the Go field a pointer names.
type Field struct {
	T   *mtype.Type
	enc func() value.Value
	dec func(value.Value) error
}

// Num declares an integer-kinded Go field — a counter, a size, a
// duration in nanoseconds, an enum — as a protocol integer.
func Num[N ~int | ~int64 | ~uint8](p *N) Field {
	return Field{IntT,
		func() value.Value { return value.NewInt(int64(*p)) },
		func(v value.Value) error {
			n, err := goInt(v)
			*p = N(n)
			return err
		}}
}

// Bool declares a flag, carried as the protocol integer 0 or 1.
func Bool(p *bool) Field {
	return Field{IntT,
		func() value.Value {
			if *p {
				return value.NewInt(1)
			}
			return value.NewInt(0)
		},
		func(v value.Value) error {
			n, err := goInt(v)
			*p = n != 0
			return err
		}}
}

// String declares a protocol string field.
func String(p *string) Field {
	return Field{StrT,
		func() value.Value { return str(*p) },
		func(v value.Value) (err error) {
			*p, err = goStr(v)
			return err
		}}
}

// List declares a slice field as a protocol list whose elements are
// declared by elem: String for a list of strings, a Schema's Field
// method for a list of records. A decoded list is never nil, so an empty
// one still renders as [] in JSON.
func List[T any](p *[]T, elem func(*T) Field) Field {
	return Field{mtype.NewList(elem(new(T)).T),
		func() value.Value {
			vs := make([]value.Value, len(*p))
			for i := range *p {
				vs[i] = elem(&(*p)[i]).enc()
			}
			return value.FromSlice(vs)
		},
		func(v value.Value) error {
			vs, err := value.ToSlice(v)
			if err != nil {
				return err
			}
			*p = make([]T, len(vs))
			for i, ev := range vs {
				if err := elem(&(*p)[i]).dec(ev); err != nil {
					return err
				}
			}
			return nil
		}}
}

// Schema is a protocol record declared over the Go struct T. The field
// order is written exactly once, in the function handed to Declare;
// Mtype, Marshal and Unmarshal all derive from it, so the two ends of a
// protocol cannot drift apart field by field.
type Schema[T any] struct {
	// Mtype is the record's protocol Mtype.
	Mtype  *mtype.Type
	fields func(*T) []Field
}

// Declare builds a Schema from fields, which lists — in wire order — a
// Field for each member of the T it is handed.
func Declare[T any](fields func(*T) []Field) *Schema[T] {
	fs := fields(new(T))
	ts := make([]*mtype.Type, len(fs))
	for i, f := range fs {
		ts[i] = f.T
	}
	return &Schema[T]{Mtype: mtype.RecordOf(ts...), fields: fields}
}

// Field declares x as a nested record, for use inside another
// declaration (directly, or as List's elem).
func (r *Schema[T]) Field(x *T) Field {
	return Field{r.Mtype,
		func() value.Value {
			fs := r.fields(x)
			vs := make([]value.Value, len(fs))
			for i, f := range fs {
				vs[i] = f.enc()
			}
			return value.Record{Fields: vs}
		},
		func(v value.Value) error {
			fs := r.fields(x)
			rec, ok := v.(value.Record)
			if !ok || len(rec.Fields) != len(fs) {
				return fmt.Errorf("proto: want record of %d fields, got %v", len(fs), v)
			}
			for i, f := range fs {
				if err := f.dec(rec.Fields[i]); err != nil {
					return err
				}
			}
			return nil
		}}
}

// Marshal CDR-encodes x.
func (r *Schema[T]) Marshal(x *T) ([]byte, error) {
	return wire.Marshal(r.Mtype, r.Field(x).enc())
}

// Unmarshal decodes data — which must hold exactly one record, no
// trailing bytes — into x.
func (r *Schema[T]) Unmarshal(data []byte, x *T) error {
	v, err := wire.Unmarshal(r.Mtype, data)
	if err != nil {
		return err
	}
	return r.Field(x).dec(v)
}

// Count is the record of one integer: a reply that is just a count, or
// a request that is just a cap.
var Count = Declare(func(n *int) []Field { return []Field{Num(n)} })
