// Package metrics reads a component's live counter block. A component
// that counts events for its stats keeps them in one value of its own
// snapshot type — the counters are that struct's int64 and
// time.Duration fields — and bumps a field in place with
// atomic.AddInt64(&live.F, n), or atomic.AddInt64((*int64)(&live.D), n)
// for a time.Duration. Load turns the live block into the snapshot its
// Stats method returns, so each counter is declared once: as a field of
// the type callers already read.
package metrics

import (
	"reflect"
	"sync/atomic"
)

var int64Ptr = reflect.TypeOf((*int64)(nil))

// Load returns a copy of *live in which every int64 and time.Duration
// field is read atomically; every other field is copied as it is, so it
// must not change while live is shared. The copy is made field by field:
// a whole-struct copy would read the counters without the atomics their
// writers use. T's fields must be exported.
func Load[T any](live *T) T {
	var out T
	dst, src := reflect.ValueOf(&out).Elem(), reflect.ValueOf(live).Elem()
	for i := 0; i < src.NumField(); i++ {
		f := src.Field(i)
		if f.Kind() == reflect.Int64 {
			dst.Field(i).SetInt(atomic.LoadInt64(f.Addr().Convert(int64Ptr).Interface().(*int64)))
		} else {
			dst.Field(i).Set(f)
		}
	}
	return out
}
