package fuse

import (
	"repro/internal/cmem"
	"repro/internal/core"
)

// CompileFromSession builds a fused Java→C stub from declarations loaded
// in a session: jDecl names a function-shaped Java declaration (use
// core.Session.MethodDecl to synthesize one from an interface method),
// cDecl a C function. The plans come from the session's one call-plan
// assembler, so the comparison runs under the session's rules and
// semantic registrations exactly as it does for a core.CallStub. As in
// CompileCall, what impl is handed is valid only until it returns.
func CompileFromSession(
	sess *core.Session,
	jUniverse, jDecl, cUniverse, cDecl string,
	model cmem.Model,
	impl func(mem *cmem.Arena, args []uint64) (uint64, error),
) (*Call, error) {
	mtJ, err := sess.Mtype(jUniverse, jDecl)
	if err != nil {
		return nil, err
	}
	mtC, err := sess.Mtype(cUniverse, cDecl)
	if err != nil {
		return nil, err
	}
	reqPlan, repPlan, err := sess.CallPlans(mtJ, mtC)
	if err != nil {
		return nil, err
	}
	jU, cU := sess.Universe(jUniverse), sess.Universe(cUniverse)
	return CompileCall(jU, jU.Lookup(jDecl).Type, cU, cU.Lookup(cDecl).Type, model, reqPlan, repPlan, impl)
}
