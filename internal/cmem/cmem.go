// Package cmem simulates C memory: a flat byte arena addressed by offsets,
// with the layout rules (sizeof, alignof, struct padding, little-endian
// scalar encoding) of the ILP32 and LP64 data models. The generated C-side
// stubs of the paper read and write real process memory through JNI; here
// the binding layer reads and writes an Arena, exercising the identical
// layout and indirection logic (NULL pointers, pointer-to-struct,
// contiguous arrays with out-of-band lengths).
package cmem

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/stype"
)

// Addr is a simulated address: a byte offset into an Arena. 0 is NULL.
type Addr uint32

// Null is the NULL address.
const Null Addr = 0

// Model selects pointer and long sizes.
type Model uint8

// Data models.
const (
	// ILP32: int/long/pointer are 32 bits (the paper's platforms).
	ILP32 Model = iota + 1
	// LP64: long/pointer are 64 bits.
	LP64
)

// models is the one table of data-model names; "" is the default, ILP32.
var models = map[string]Model{"": ILP32, "ilp32": ILP32, "lp64": LP64}

// ParseModel returns the data model a name names; an unknown name is an
// error, whatever the language it comes with.
func ParseModel(name string) (Model, error) {
	if m, ok := models[name]; ok {
		return m, nil
	}
	return 0, fmt.Errorf("unknown C data model %q", name)
}

// PointerSize returns the pointer size in bytes.
func (m Model) PointerSize() int {
	if m == LP64 {
		return 8
	}
	return 4
}

// Arena is a growable simulated address space. The first word is reserved
// so that no allocation receives address 0.
type Arena struct {
	buf []byte
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{buf: make([]byte, 8)}
}

// Size returns the current arena extent in bytes.
func (a *Arena) Size() int { return len(a.buf) }

// Alloc reserves size bytes aligned to align and returns the address. The
// memory is zeroed. Alloc panics on non-positive alignment; size 0 yields
// a valid unique address.
func (a *Arena) Alloc(size, align int) Addr {
	if align <= 0 {
		panic("cmem: non-positive alignment")
	}
	if size < 0 {
		panic("cmem: negative size")
	}
	off := (len(a.buf) + align - 1) / align * align
	need := off + size
	if size == 0 {
		need = off + 1
	}
	// One step, and it zeroes what it extends: a Reset leaves old bytes there.
	a.buf = append(a.buf, make([]byte, need-len(a.buf))...)
	return Addr(off)
}

// Reset empties the arena for reuse, keeping its buffer; the reserved word reads 0.
func (a *Arena) Reset() {
	a.buf = a.buf[:8]
	clear(a.buf)
}

// Grow makes room for n more bytes, so that allocations adding up to n
// (alignment padding included) do not move the arena and the windows
// taken from it stay live.
func (a *Arena) Grow(n int) {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = append(make([]byte, 0, len(a.buf)+n), a.buf...)
	}
}

// Window returns the n bytes at at for direct access: the check every
// read and write makes, made once. The window is clipped to its length
// and is live until an allocation moves the arena (see Grow).
func (a *Arena) Window(at Addr, n int) ([]byte, error) {
	if err := a.check(at, n); err != nil {
		return nil, err
	}
	return a.buf[at : int(at)+n : int(at)+n], nil
}

// PutU stores the low size bytes of v, little-endian, at the start of w,
// and reports whether size is one a scalar has: 1, 2, 4 or 8.
func PutU(w []byte, size int, v uint64) bool {
	switch size {
	case 1:
		w[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(w, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(w, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(w, v)
	default:
		return false
	}
	return true
}

// GetU loads a little-endian unsigned scalar of 1, 2, 4 or 8 bytes from
// the start of w; any other size reads as 0, false.
func GetU(w []byte, size int) (uint64, bool) {
	switch size {
	case 1:
		return uint64(w[0]), true
	case 2:
		return uint64(binary.LittleEndian.Uint16(w)), true
	case 4:
		return uint64(binary.LittleEndian.Uint32(w)), true
	case 8:
		return binary.LittleEndian.Uint64(w), true
	}
	return 0, false
}

func (a *Arena) check(at Addr, n int) error {
	if at == Null {
		return fmt.Errorf("cmem: NULL dereference")
	}
	if int(at)+n > len(a.buf) {
		return fmt.Errorf("cmem: access [%d,%d) beyond arena size %d", at, int(at)+n, len(a.buf))
	}
	return nil
}

// in is check without the error, small enough to run in line; fault
// forms the error of an access in refused, or of a size no scalar has.
func (a *Arena) in(at Addr, n int) bool {
	return at != Null && int(at)+n <= len(a.buf)
}

func (a *Arena) fault(at Addr, n int) error {
	if err := a.check(at, n); err != nil {
		return err
	}
	return fmt.Errorf("cmem: invalid scalar size %d", n)
}

// WriteU reads and writes little-endian unsigned scalars of 1, 2, 4, or 8
// bytes. It, ReadU and the float accessors check bounds in line; the
// integer accessors below run in line to them.
func (a *Arena) WriteU(at Addr, size int, v uint64) error {
	if !a.in(at, size) || !PutU(a.buf[at:], size, v) {
		return a.fault(at, size)
	}
	return nil
}

// ReadU reads a little-endian unsigned scalar.
func (a *Arena) ReadU(at Addr, size int) (uint64, error) {
	if a.in(at, size) {
		if v, ok := GetU(a.buf[at:], size); ok {
			return v, nil
		}
	}
	return 0, a.fault(at, size)
}

// ReadI reads a sign-extended scalar.
func (a *Arena) ReadI(at Addr, size int) (int64, error) {
	u, err := a.ReadU(at, size)
	shift := uint(64 - 8*size)
	return int64(u<<shift) >> shift, err
}

// WriteF32 writes an IEEE 754 binary32 value.
func (a *Arena) WriteF32(at Addr, v float32) error {
	if !a.in(at, 4) {
		return a.fault(at, 4)
	}
	binary.LittleEndian.PutUint32(a.buf[at:], math.Float32bits(v))
	return nil
}

// ReadF32 reads an IEEE 754 binary32 value.
func (a *Arena) ReadF32(at Addr) (float32, error) {
	if !a.in(at, 4) {
		return 0, a.fault(at, 4)
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(a.buf[at:])), nil
}

// WriteF64 writes an IEEE 754 binary64 value.
func (a *Arena) WriteF64(at Addr, v float64) error {
	if !a.in(at, 8) {
		return a.fault(at, 8)
	}
	binary.LittleEndian.PutUint64(a.buf[at:], math.Float64bits(v))
	return nil
}

// ReadF64 reads an IEEE 754 binary64 value.
func (a *Arena) ReadF64(at Addr) (float64, error) {
	if !a.in(at, 8) {
		return 0, a.fault(at, 8)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(a.buf[at:])), nil
}

// WritePtr writes a pointer-sized address.
func (a *Arena) WritePtr(at Addr, m Model, target Addr) error {
	return a.WriteU(at, m.PointerSize(), uint64(target))
}

// ReadPtr reads a pointer-sized address.
func (a *Arena) ReadPtr(at Addr, m Model) (Addr, error) {
	u, err := a.ReadU(at, m.PointerSize())
	return Addr(u), err
}

// Layout describes the concrete representation of a C type: its size,
// alignment, and (for structs/unions) field offsets.
type Layout struct {
	Size    int
	Align   int
	Offsets []int // struct/union member offsets, parallel to Fields
}

// Layouts computes and caches layouts for a universe's declarations.
type Layouts struct {
	u     *stype.Universe
	model Model
	memo  map[*stype.Type]*Layout
	busy  map[*stype.Type]bool
}

// NewLayouts returns a layout calculator for the universe under the data
// model.
func NewLayouts(u *stype.Universe, model Model) *Layouts {
	return &Layouts{u: u, model: model, memo: make(map[*stype.Type]*Layout), busy: make(map[*stype.Type]bool)}
}

// Model returns the data model in force.
func (l *Layouts) Model() Model { return l.model }

// Of computes the layout of a type.
func (l *Layouts) Of(t *stype.Type) (*Layout, error) {
	if t == nil {
		return nil, fmt.Errorf("cmem: nil type")
	}
	if lay, ok := l.memo[t]; ok {
		return lay, nil
	}
	if l.busy[t] {
		return nil, fmt.Errorf("cmem: %s directly contains itself (infinite size)", t)
	}
	l.busy[t] = true
	defer delete(l.busy, t)
	lay, err := l.compute(t)
	if err != nil {
		return nil, err
	}
	l.memo[t] = lay
	return lay, nil
}

func (l *Layouts) compute(t *stype.Type) (*Layout, error) {
	switch t.Kind {
	case stype.KPrim:
		s, err := PrimSize(t.Prim)
		if err != nil {
			return nil, err
		}
		return &Layout{Size: s, Align: s}, nil
	case stype.KEnum:
		return &Layout{Size: 4, Align: 4}, nil
	case stype.KPointer, stype.KFunc:
		p := l.model.PointerSize()
		return &Layout{Size: p, Align: p}, nil
	case stype.KNamed:
		target := t.Target
		if target == nil {
			target = l.u.Lookup(t.Name)
		}
		if target == nil {
			return nil, fmt.Errorf("cmem: unresolved type %q", t.Name)
		}
		return l.Of(target.Type)
	case stype.KStruct:
		lay := &Layout{Align: 1}
		off := 0
		for _, f := range t.Fields {
			fl, err := l.Of(f.Type)
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", f.Name, err)
			}
			off = (off + fl.Align - 1) / fl.Align * fl.Align
			lay.Offsets = append(lay.Offsets, off)
			off += fl.Size
			if fl.Align > lay.Align {
				lay.Align = fl.Align
			}
		}
		lay.Size = (off + lay.Align - 1) / lay.Align * lay.Align
		if lay.Size == 0 {
			lay.Size = 1 // as in C++/GNU C, empty structs occupy one byte
		}
		return lay, nil
	case stype.KUnion:
		lay := &Layout{Align: 1}
		for _, f := range t.Fields {
			fl, err := l.Of(f.Type)
			if err != nil {
				return nil, fmt.Errorf("member %s: %w", f.Name, err)
			}
			lay.Offsets = append(lay.Offsets, 0)
			if fl.Size > lay.Size {
				lay.Size = fl.Size
			}
			if fl.Align > lay.Align {
				lay.Align = fl.Align
			}
		}
		lay.Size = (lay.Size + lay.Align - 1) / lay.Align * lay.Align
		if lay.Size == 0 {
			lay.Size = 1
		}
		return lay, nil
	case stype.KArray:
		if t.Len < 0 && t.Ann.FixedLen <= 0 {
			return nil, fmt.Errorf("cmem: indefinite array has no layout (annotate a length)")
		}
		n := t.Len
		if t.Ann.FixedLen > 0 {
			n = t.Ann.FixedLen
		}
		el, err := l.Of(t.ElemType)
		if err != nil {
			return nil, err
		}
		return &Layout{Size: n * el.Size, Align: el.Align}, nil
	default:
		return nil, fmt.Errorf("cmem: type %s has no C layout", t.Kind)
	}
}

// PrimSize is the one table of primitive byte widths; they do not depend
// on the data model (C long is resolved to I32 or I64 by the parser).
func PrimSize(p stype.Prim) (int, error) {
	switch p {
	case stype.PBool, stype.PI8, stype.PU8, stype.PChar8:
		return 1, nil
	case stype.PI16, stype.PU16, stype.PChar16:
		return 2, nil
	case stype.PI32, stype.PU32, stype.PF32:
		return 4, nil
	case stype.PI64, stype.PU64, stype.PF64:
		return 8, nil
	case stype.PVoid:
		return 0, fmt.Errorf("cmem: void has no size")
	default:
		return 0, fmt.Errorf("cmem: unknown primitive %s", p)
	}
}
