package core

import (
	"fmt"

	"repro/internal/bind"
	"repro/internal/cmem"
	"repro/internal/compare"
	"repro/internal/convert"
	"repro/internal/mtype"
	"repro/internal/plan"
	"repro/internal/stype"
	"repro/internal/value"
)

// Engine selects how coercion plans execute.
type Engine uint8

// Available engines.
const (
	// EngineCompiled executes closure-compiled plans — the "generated
	// stub" model, and the default.
	EngineCompiled Engine = iota
	// EngineInterpreted walks the plan per value; the §6-perf benchmarks
	// compare it against the compiled engine.
	EngineInterpreted
)

func (s *Session) newConverter(engine Engine, p *plan.Plan) (convert.Converter, error) {
	if engine == EngineInterpreted {
		return convert.NewInterpreterHooks(p, s.hooks), nil
	}
	return convert.CompileHooks(p, s.hooks)
}

// Target is the callee side of a stub: it accepts the callee-shaped input
// record (the Mtype I fields) and returns the callee-shaped output record
// (the Mtype O fields).
type Target interface {
	Invoke(inputs value.Value) (value.Value, error)
}

// TargetFunc adapts a function to Target.
type TargetFunc func(value.Value) (value.Value, error)

// Invoke implements Target.
func (f TargetFunc) Invoke(inputs value.Value) (value.Value, error) { return f(inputs) }

// NewCTarget wraps a registered C function implementation: each
// invocation marshals into a fresh arena (a fresh stack/heap extent, as a
// real call would use), calls impl, and collects the outputs.
func NewCTarget(binder *bind.C, decl *stype.Decl, impl bind.CFunc) Target {
	return TargetFunc(func(inputs value.Value) (value.Value, error) {
		mem := cmem.NewArena()
		return binder.Call(decl, impl, mem, inputs)
	})
}

// CallStub is a two-way local stub between a caller declaration A and a
// callee declaration B whose Mtypes are equivalent function ports: it
// converts A-shaped inputs to B-shaped inputs, invokes the target, and
// converts B-shaped outputs back (§4's generated adapter).
type CallStub struct {
	reqConv convert.Converter // A request record → B request record
	repConv convert.Converter // B reply record → A reply record
	target  Target
	// nbInputs is the number of B request fields before the reply port.
	nbInputs int
}

// callShape extracts the request record and reply record of a lowered
// function port, port(Record(I..., port(Record(O...)))).
func callShape(mt *mtype.Type) (req, rep *mtype.Type, err error) {
	u := unfoldM(mt)
	if u == nil || u.Kind() != mtype.KindPort {
		return nil, nil, fmt.Errorf("core: declaration does not lower to a function port (got %s)", u.Kind())
	}
	req = unfoldM(u.Elem())
	if req.Kind() != mtype.KindRecord || len(req.Fields()) == 0 {
		return nil, nil, fmt.Errorf("core: function port element is not a request record")
	}
	last := req.Fields()[len(req.Fields())-1].Type
	lastU := unfoldM(last)
	if lastU.Kind() != mtype.KindPort {
		return nil, nil, fmt.Errorf("core: request record has no reply port (oneway method? use a message stub)")
	}
	rep = unfoldM(lastU.Elem())
	if rep.Kind() != mtype.KindRecord {
		return nil, nil, fmt.Errorf("core: reply port element is not a record")
	}
	return req, rep, nil
}

func unfoldM(t *mtype.Type) *mtype.Type {
	for t != nil && t.Kind() == mtype.KindRecursive {
		t = t.Body()
	}
	return t
}

// NewCallStub compiles a call stub from the pair of declarations — the
// tool's central operation. Both declarations must lower to equivalent
// function ports (a C function, or a single-method interface/class).
func (s *Session) NewCallStub(universeA, declA, universeB, declB string, engine Engine, target Target) (*CallStub, error) {
	mtA, err := s.Mtype(universeA, declA)
	if err != nil {
		return nil, err
	}
	mtB, err := s.Mtype(universeB, declB)
	if err != nil {
		return nil, err
	}
	reqPlan, repPlan, err := s.CallPlans(mtA, mtB)
	if err != nil {
		return nil, err
	}
	reqConv, err := s.newConverter(engine, reqPlan)
	if err != nil {
		return nil, err
	}
	repConv, err := s.newConverter(engine, repPlan)
	if err != nil {
		return nil, err
	}
	return &CallStub{
		reqConv:  reqConv,
		repConv:  repConv,
		target:   target,
		nbInputs: len(reqPlan.Root.B.Fields()) - 1,
	}, nil
}

// CallPlans is the one call-plan assembler: two Mtypes that lower to
// function ports are compared under the session's rules and semantic
// registrations, and the match yields the request plan (A's request record
// to B's) and, taken again in reverse because the reply flows callee to
// caller, the reply plan (B's reply record to A's). The value-tree stubs
// here and the fused stubs of package fuse both start from this pair.
func (s *Session) CallPlans(mtA, mtB *mtype.Type) (reqPlan, repPlan *plan.Plan, err error) {
	reqA, repA, err := callShape(mtA)
	if err != nil {
		return nil, nil, fmt.Errorf("core: caller: %w", err)
	}
	reqB, repB, err := callShape(mtB)
	if err != nil {
		return nil, nil, fmt.Errorf("core: callee: %w", err)
	}
	c := s.newComparer()
	m, ok := c.Equivalent(mtA, mtB)
	if !ok {
		return nil, nil, fmt.Errorf("core: declarations are not equivalent:\n%s",
			c.Explain(mtA, mtB, compare.ModeEqual))
	}
	if reqPlan, err = plan.BuildFor(m, reqA, reqB); err != nil {
		return nil, nil, fmt.Errorf("core: request plan: %w", err)
	}
	m2, ok := c.Equivalent(repB, repA)
	if !ok {
		return nil, nil, fmt.Errorf("core: reply records not equivalent in reverse:\n%s",
			c.Explain(repB, repA, compare.ModeEqual))
	}
	if repPlan, err = plan.BuildFor(m2, repB, repA); err != nil {
		return nil, nil, fmt.Errorf("core: reply plan: %w", err)
	}
	return reqPlan, repPlan, nil
}

// Invoke calls through the stub: inputs is the caller-shaped input record
// (the A-side I fields, in declaration order); the result is the
// caller-shaped output record (out/inout parameters in order, then the
// return value).
func (cs *CallStub) Invoke(inputs value.Value) (value.Value, error) {
	inRec, ok := inputs.(value.Record)
	if !ok {
		return nil, fmt.Errorf("core: inputs must be a record, got %T", inputs)
	}
	// Complete the request record with the reply port (a local token; the
	// conversion passes ports through).
	full := value.Record{Fields: append(append([]value.Value(nil), inRec.Fields...), value.Port{Ref: "reply:local"})}
	bReq, err := cs.reqConv.Convert(full)
	if err != nil {
		return nil, fmt.Errorf("core: request conversion: %w", err)
	}
	bRec, ok := bReq.(value.Record)
	if !ok || len(bRec.Fields) != cs.nbInputs+1 {
		return nil, fmt.Errorf("core: converted request has wrong shape")
	}
	bInputs := value.Record{Fields: bRec.Fields[:cs.nbInputs]}
	bOutputs, err := cs.target.Invoke(bInputs)
	if err != nil {
		return nil, err
	}
	aOutputs, err := cs.repConv.Convert(bOutputs)
	if err != nil {
		return nil, fmt.Errorf("core: reply conversion: %w", err)
	}
	return aOutputs, nil
}

// MessageStub is a one-way send stub between two message declarations
// (oneway methods, or any pair of by-value message types): it converts
// the caller-shaped message to the callee shape and hands it to the
// target. It is the "custom send/receive stub" of the §5 collaborative
// messaging case study.
type MessageStub struct {
	conv   convert.Converter
	target Target
}

// NewMessageStub compiles a one-way message stub between two by-value
// declarations (the message types themselves).
func (s *Session) NewMessageStub(universeA, declA, universeB, declB string, engine Engine, target Target) (*MessageStub, error) {
	mtA, err := s.Mtype(universeA, declA)
	if err != nil {
		return nil, err
	}
	mtB, err := s.Mtype(universeB, declB)
	if err != nil {
		return nil, err
	}
	// Messages flow one way only, so a subtype relation suffices when the
	// types are not fully equivalent (§3: "If the Mtype of the first type
	// is a subtype of the second, Mockingbird can generate a one-way
	// converter from the first to the second").
	c := s.newComparer()
	m, ok := c.Equivalent(mtA, mtB)
	if !ok {
		m, ok = c.Subtype(mtA, mtB)
	}
	if !ok {
		return nil, fmt.Errorf("core: message types are not equivalent or in the subtype relation:\n%s",
			c.Explain(mtA, mtB, compare.ModeEqual))
	}
	p, err := plan.Build(m)
	if err != nil {
		return nil, err
	}
	conv, err := s.newConverter(engine, p)
	if err != nil {
		return nil, err
	}
	return &MessageStub{conv: conv, target: target}, nil
}

// Send converts and delivers one message.
func (ms *MessageStub) Send(msg value.Value) error {
	converted, err := ms.conv.Convert(msg)
	if err != nil {
		return fmt.Errorf("core: message conversion: %w", err)
	}
	_, err = ms.target.Invoke(converted)
	return err
}

// MethodDecl synthesizes a function declaration from one method of a
// class or interface, so that method pairs can be stubbed individually
// (the per-method stubs of the VisualAge and Notes case studies). The
// synthesized declaration is registered in the same universe under
// "class::method".
func (s *Session) MethodDecl(universe, class, method string) (string, error) {
	u := s.universes[universe]
	if u == nil {
		return "", fmt.Errorf("%w %q", ErrNoUniverse, universe)
	}
	d := u.Lookup(class)
	if d == nil {
		return "", fmt.Errorf("core: no declaration %q", class)
	}
	name := class + "::" + method
	if u.Lookup(name) != nil {
		return name, nil
	}
	for i := range d.Type.Methods {
		m := &d.Type.Methods[i]
		if m.Name != method {
			continue
		}
		fn := &stype.Type{Kind: stype.KFunc, Params: m.Params, Result: m.Result}
		if _, err := u.Add(name, fn); err != nil {
			return "", err
		}
		// The lowering cache keys on declarations, so adding one is safe,
		// but rebuild the lowerer to keep behavior predictable.
		return name, nil
	}
	return "", fmt.Errorf("core: %s has no method %q", class, method)
}
