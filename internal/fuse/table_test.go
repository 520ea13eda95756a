package fuse

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cmem"
	"repro/internal/jheap"
	"repro/internal/lower"
)

// elemProgram is the program of a call's one list parameter.
func elemProgram(t *testing.T, call *Call) *program {
	t.Helper()
	for _, mv := range call.request {
		if mv.op == leafList {
			return mv.elem
		}
	}
	t.Fatal("the call has no list parameter")
	return nil
}

// TestElementTables pins which list element programs run as a table of
// runs, under both data models, so that the table cannot silently give
// way to the per-move loop: a flat element's program has one, an element
// that holds a nested object or a pointer does not.
func TestElementTables(t *testing.T) {
	for _, c := range []struct {
		p     pair
		table bool
	}{
		{fitterPair, true}, {totalPair, true}, {skipPair, true},
		{signedPair, true}, {unsignedPair, true}, {scalarsPair, true},
		{segsPair, false}, {cratesPair, false},
	} {
		for _, model := range []cmem.Model{cmem.ILP32, cmem.LP64} {
			_, _, call := c.p.compile(t, model)
			el := elemProgram(t, call)
			if table := el.runs != nil; table != c.table {
				t.Errorf("%s, model %d: table %v; want %v", c.p.name, model, table, c.table)
			}
			if el.runs != nil && len(el.runs) != len(el.moves) {
				t.Errorf("%s, model %d: %d runs for %d moves", c.p.name, model, len(el.runs), len(el.moves))
			}
		}
	}
}

// TestElementErrorsMatchAcrossPaths: a list whose element is null,
// dangling, or holds a slot of the wrong kind fails with the same text
// whether its program runs the table or, with the table taken away, the
// per-move loop.
func TestElementErrorsMatchAcrossPaths(t *testing.T) {
	for _, p := range []pair{fitterPair, scalarsPair} {
		ts := p.tiers(t, cmem.ILP32)
		table := ts.fused
		_, _, moves := p.compile(t, cmem.ILP32)
		el := elemProgram(t, moves)
		el.runs = nil
		param := ts.jFn.Params[0].Type
		s, err := lower.ShapeOf(ts.jU, param)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(5))
		for _, bad := range []struct {
			name string
			elem func(h *jheap.Heap) jheap.Ref
		}{
			{"null", func(*jheap.Heap) jheap.Ref { return jheap.NullRef }},
			{"dangling", func(*jheap.Heap) jheap.Ref { return 9999 }},
			{"wrong slot kind", func(h *jheap.Heap) jheap.Ref {
				obj := randSlot(r, ts.jU, s.Elem, h, nil).R
				if err := h.SetField(obj, 0, jheap.Slot{}); err != nil {
					t.Fatal(err)
				}
				return obj
			}},
		} {
			h := jheap.NewHeap()
			vec := randSlot(r, ts.jU, param, h, nil)
			n, err := h.VectorLen(vec.R)
			if err == nil {
				err = h.VectorAppend(vec.R, bad.elem(h))
			}
			if err != nil {
				t.Fatal(err)
			}
			args := []jheap.Slot{vec}
			_, tableErr := table.Invoke(h, args)
			_, movesErr := moves.Invoke(h, args)
			switch {
			case tableErr == nil || movesErr == nil:
				t.Errorf("%s, %s element: table %v, per-move loop %v", p.name, bad.name, tableErr, movesErr)
			case tableErr.Error() != movesErr.Error():
				t.Errorf("%s, %s element: the table says %q, the per-move loop %q", p.name, bad.name, tableErr, movesErr)
			case !strings.HasPrefix(tableErr.Error(), fmt.Sprintf("element %d: ", n)):
				t.Errorf("%s, %s element: %q does not name element %d", p.name, bad.name, tableErr, n)
			}
		}
	}
}
