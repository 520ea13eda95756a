// Package convert executes coercion plans, turning values of one Mtype
// into values of the matched Mtype. Two engines are provided:
//
//   - Interpreter walks the plan graph per value — the straightforward
//     execution a naive tool would use;
//   - Compile produces a closure tree once and reuses it — the "generated
//     stub" execution model, which the §6-perf benchmarks compare against
//     the interpreter and against hand-written conversion code.
//
// Both engines implement Converter and agree on every input; the property
// tests in this package check exactly that.
package convert

import (
	"errors"
	"fmt"

	"repro/internal/compare"
	"repro/internal/mtype"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/wire"
)

// Converter converts values of the plan's A Mtype into values of its B
// Mtype.
type Converter interface {
	Convert(v value.Value) (value.Value, error)
}

// Hook is a programmer-supplied semantic conversion (§6): hand-written
// code composed with the structural conversions at the plan nodes that
// reference it.
type Hook func(value.Value) (value.Value, error)

// Hooks maps hook names (from compare.RegisterSemantic) to functions.
type Hooks map[string]Hook

// NewInterpreter returns a plan-walking converter.
func NewInterpreter(p *plan.Plan) Converter {
	return NewInterpreterHooks(p, nil)
}

// NewInterpreterHooks returns a plan-walking converter with semantic
// hooks available.
func NewInterpreterHooks(p *plan.Plan, hooks Hooks) Converter {
	return &interp{plan: p, hooks: hooks}
}

type interp struct {
	plan  *plan.Plan
	hooks Hooks
}

// Convert implements Converter.
func (in *interp) Convert(v value.Value) (value.Value, error) {
	return in.exec(in.plan.Root, v)
}

func (in *interp) exec(n *plan.Node, v value.Value) (value.Value, error) {
	switch n.Kind {
	case compare.DecSame:
		return v, nil
	case compare.DecPrim:
		return convertPrim(v)
	case compare.DecSemantic:
		hook, ok := in.hooks[n.Hook]
		if !ok {
			return nil, fmt.Errorf("convert: no semantic hook %q registered", n.Hook)
		}
		return hook(v)
	case compare.DecPort:
		p, ok := v.(value.Port)
		if !ok {
			return nil, fmt.Errorf("convert: expected port, got %T", v)
		}
		return p, nil
	case compare.DecRecord:
		leaves, err := extractLeaves(v, n.FlatA)
		if err != nil {
			return nil, err
		}
		outLeaves := make([]value.Value, len(n.FlatB))
		for i, lp := range n.LeafPlans {
			if lp == nil {
				continue
			}
			converted, err := in.exec(lp, leaves[i])
			if err != nil {
				return nil, err
			}
			outLeaves[n.Perm[i]] = converted
		}
		return buildFromLeaves(n.FlatB, outLeaves)
	case compare.DecChoice:
		cv, ok := v.(value.Choice)
		if !ok {
			return nil, fmt.Errorf("convert: expected choice, got %T", v)
		}
		if cv.Alt < 0 || cv.Alt >= len(n.AltPlans) {
			return nil, fmt.Errorf("convert: alternative %d out of range", cv.Alt)
		}
		payload, err := in.exec(n.AltPlans[cv.Alt], cv.V)
		if err != nil {
			return nil, err
		}
		return value.Choice{Alt: n.AltMap[cv.Alt], V: payload}, nil
	case compare.DecInject:
		payload, err := in.exec(n.InjectPlan, v)
		if err != nil {
			return nil, err
		}
		return value.Choice{Alt: n.AltMap[0], V: payload}, nil
	default:
		return nil, fmt.Errorf("convert: unknown plan node kind %d", n.Kind)
	}
}

// convertPrim copies a primitive value; widening conversions (int8→int16,
// float→double, latin1→unicode) need no representation change in the
// dynamic value model.
func convertPrim(v value.Value) (value.Value, error) {
	switch pv := v.(type) {
	case value.Int:
		if pv.V == nil {
			return nil, errors.New("convert: nil integer")
		}
		return pv, nil
	case value.Real, value.Char:
		return pv, nil
	default:
		return nil, fmt.Errorf("convert: expected primitive, got %T", v)
	}
}

// extractLeaves reads the value at each flattened leaf path. Unit leaves
// yield nil entries (they carry no information).
func extractLeaves(v value.Value, flat []compare.FlatLeaf) ([]value.Value, error) {
	out := make([]value.Value, len(flat))
	for i, leaf := range flat {
		if leaf.Unit {
			continue
		}
		cur := v
		for _, idx := range leaf.Path {
			rec, ok := cur.(value.Record)
			if !ok {
				return nil, fmt.Errorf("convert: expected record at path %v, got %T", leaf.Path, cur)
			}
			if idx >= len(rec.Fields) {
				return nil, fmt.Errorf("convert: record has %d fields, path wants %d", len(rec.Fields), idx)
			}
			cur = rec.Fields[idx]
		}
		out[i] = cur
	}
	return out, nil
}

// shape is a prebuilt template of the B-side value structure derived from
// flattened leaf paths: interior nodes become records, leaves are filled
// from converted values (units synthesized).
type shape struct {
	leaf     int // index into FlatB, -1 for interior
	unitLeaf bool
	children []*shape
}

// buildShape reconstructs the record nesting from leaf paths.
func buildShape(flat []compare.FlatLeaf) (*shape, error) {
	root := &shape{leaf: -1}
	if len(flat) == 1 && len(flat[0].Path) == 0 {
		return &shape{leaf: 0, unitLeaf: flat[0].Unit}, nil
	}
	for j, leaf := range flat {
		cur := root
		if len(leaf.Path) == 0 {
			return nil, errors.New("convert: mixed root leaf and nested leaves")
		}
		for depth, idx := range leaf.Path {
			for len(cur.children) <= idx {
				cur.children = append(cur.children, &shape{leaf: -1})
			}
			child := cur.children[idx]
			if depth == len(leaf.Path)-1 {
				child.leaf = j
				child.unitLeaf = leaf.Unit
			}
			cur = child
		}
	}
	return root, nil
}

// instantiate builds the value for a shape from converted leaf values.
func (s *shape) instantiate(leaves []value.Value) (value.Value, error) {
	if s.leaf >= 0 {
		if s.unitLeaf {
			return value.Unit{}, nil
		}
		v := leaves[s.leaf]
		if v == nil {
			return nil, fmt.Errorf("convert: leaf %d was never produced", s.leaf)
		}
		return v, nil
	}
	fields := make([]value.Value, len(s.children))
	for i, c := range s.children {
		fv, err := c.instantiate(leaves)
		if err != nil {
			return nil, err
		}
		fields[i] = fv
	}
	return value.Record{Fields: fields}, nil
}

func buildFromLeaves(flat []compare.FlatLeaf, leaves []value.Value) (value.Value, error) {
	s, err := buildShape(flat)
	if err != nil {
		return nil, err
	}
	return s.instantiate(leaves)
}

// Compile builds a closure-tree converter from the plan: each plan node
// compiles once into a function, with a level of indirection so cyclic
// plans (lists, recursive classes) tie the knot.
func Compile(p *plan.Plan) (Converter, error) {
	return CompileHooks(p, nil)
}

// CompileHooks builds a closure-tree converter with semantic hooks
// resolved at compile time.
func CompileHooks(p *plan.Plan, hooks Hooks) (Converter, error) {
	c := &compiler{fns: make(map[*plan.Node]*compiledFn), hooks: hooks}
	fn, err := c.compile(p.Root)
	if err != nil {
		return nil, err
	}
	return compiled{fn: fn}, nil
}

type compiledFn func(value.Value) (value.Value, error)

type compiled struct {
	fn compiledFn
}

// Convert implements Converter.
func (c compiled) Convert(v value.Value) (value.Value, error) { return c.fn(v) }

type compiler struct {
	fns   map[*plan.Node]*compiledFn
	hooks Hooks
}

// compile returns a stable function for the node, creating it on first
// use. Recursive references go through the pointer so cycles work.
func (c *compiler) compile(n *plan.Node) (compiledFn, error) {
	if slot, ok := c.fns[n]; ok {
		return func(v value.Value) (value.Value, error) { return (*slot)(v) }, nil
	}
	slot := new(compiledFn)
	c.fns[n] = slot

	var fn compiledFn
	switch n.Kind {
	case compare.DecSame:
		fn = func(v value.Value) (value.Value, error) { return v, nil }
	case compare.DecPrim:
		fn = convertPrim
	case compare.DecSemantic:
		hook, ok := c.hooks[n.Hook]
		if !ok {
			return nil, fmt.Errorf("convert: no semantic hook %q registered", n.Hook)
		}
		fn = compiledFn(hook)
	case compare.DecPort:
		fn = func(v value.Value) (value.Value, error) {
			p, ok := v.(value.Port)
			if !ok {
				return nil, fmt.Errorf("convert: expected port, got %T", v)
			}
			return p, nil
		}
	case compare.DecRecord:
		bShape, err := buildShape(n.FlatB)
		if err != nil {
			return nil, err
		}
		flatA := n.FlatA
		perm := n.Perm
		leafFns := make([]compiledFn, len(n.LeafPlans))
		for i, lp := range n.LeafPlans {
			if lp == nil {
				continue
			}
			lf, err := c.compile(lp)
			if err != nil {
				return nil, err
			}
			leafFns[i] = lf
		}
		nOut := len(n.FlatB)
		fn = func(v value.Value) (value.Value, error) {
			leaves, err := extractLeaves(v, flatA)
			if err != nil {
				return nil, err
			}
			out := make([]value.Value, nOut)
			for i, lf := range leafFns {
				if lf == nil {
					continue
				}
				converted, err := lf(leaves[i])
				if err != nil {
					return nil, err
				}
				out[perm[i]] = converted
			}
			return bShape.instantiate(out)
		}
	case compare.DecChoice:
		altMap := n.AltMap
		altFns := make([]compiledFn, len(n.AltPlans))
		for i, ap := range n.AltPlans {
			af, err := c.compile(ap)
			if err != nil {
				return nil, err
			}
			altFns[i] = af
		}
		fn = func(v value.Value) (value.Value, error) {
			cv, ok := v.(value.Choice)
			if !ok {
				return nil, fmt.Errorf("convert: expected choice, got %T", v)
			}
			if cv.Alt < 0 || cv.Alt >= len(altFns) {
				return nil, fmt.Errorf("convert: alternative %d out of range", cv.Alt)
			}
			payload, err := altFns[cv.Alt](cv.V)
			if err != nil {
				return nil, err
			}
			return value.Choice{Alt: altMap[cv.Alt], V: payload}, nil
		}
	case compare.DecInject:
		inner, err := c.compile(n.InjectPlan)
		if err != nil {
			return nil, err
		}
		alt := n.AltMap[0]
		fn = func(v value.Value) (value.Value, error) {
			payload, err := inner(v)
			if err != nil {
				return nil, err
			}
			return value.Choice{Alt: alt, V: payload}, nil
		}
	default:
		return nil, fmt.Errorf("convert: unknown plan node kind %d", n.Kind)
	}
	*slot = fn
	return fn, nil
}

// TranscodeTree is the reference wire-to-wire path: decode src against
// tyA, run the converter, and re-encode against tyB, appending the
// output bytes to dst. It is the whole program of transcode.Tree, the
// rung that serves a pair transcode.Compile refused, and the oracle the
// transcoder's differential tests compare against.
func TranscodeTree(dst []byte, tyA, tyB *mtype.Type, c Converter, src []byte) ([]byte, error) {
	v, err := wire.Unmarshal(tyA, src)
	if err != nil {
		return dst, err
	}
	out, err := c.Convert(v)
	if err != nil {
		return dst, err
	}
	return wire.NewEncoder(tyB).MarshalAppend(dst, out)
}
