// Package core is the Mockingbird tool façade: the parse → annotate →
// compare → generate pipeline of Figure 6 as a library. A Session holds
// named universes of declarations (one per loaded source), applies
// annotation scripts, lowers declarations to Mtypes, runs the Comparer,
// and builds stubs: local call stubs between language bindings,
// network-enabled stubs over the orb, and one-way message stubs.
package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/annotate"
	"repro/internal/cmem"
	"repro/internal/compare"
	"repro/internal/convert"
	"repro/internal/cparse"
	"repro/internal/goparse"
	"repro/internal/idlparse"
	"repro/internal/javaparse"
	"repro/internal/lower"
	"repro/internal/mtype"
	"repro/internal/plan"
	"repro/internal/stype"
	"repro/internal/transcode"
)

// ErrNoUniverse is the error of a call naming a universe not loaded.
var ErrNoUniverse = errors.New("core: no universe")

// Session is one interactive session with the tool (the state a project
// file captures). It is not safe for concurrent use.
type Session struct {
	universes map[string]*stype.Universe
	lowerers  map[string]*lower.Lowerer
	order     []string
	rules     compare.Rules
	// semantics holds programmer-registered conversions (§6): tag pair →
	// hook name, plus the hook functions for the execution engines.
	semantics [][3]string
	hooks     convert.Hooks
}

// NewSession returns an empty session using the default isomorphism
// rules.
func NewSession() *Session {
	return &Session{
		universes: make(map[string]*stype.Universe),
		lowerers:  make(map[string]*lower.Lowerer),
		rules:     compare.DefaultRules(),
		hooks:     make(convert.Hooks),
	}
}

// RegisterSemantic installs a programmer-supplied conversion (§6): values
// whose Mtypes carry tagA convert to those carrying tagB through fn,
// composed with the structural conversions around them. Tags are the
// declaration names the lowering attaches to composite Mtypes. The
// registration is directional; register both directions for two-way
// stubs.
func (s *Session) RegisterSemantic(tagA, tagB, hookName string, fn convert.Hook) {
	s.semantics = append(s.semantics, [3]string{tagA, tagB, hookName})
	s.hooks[hookName] = fn
}

// newComparer builds a comparer with the session's rules and semantic
// registrations applied.
func (s *Session) newComparer() *compare.Comparer {
	c := compare.NewComparer(s.rules)
	for _, reg := range s.semantics {
		c.RegisterSemantic(reg[0], reg[1], reg[2])
	}
	return c
}

// SetRules replaces the comparison rule set (used by the ablation
// benchmarks).
func (s *Session) SetRules(r compare.Rules) { s.rules = r }

// LoadC parses C declarations into a universe named name.
func (s *Session) LoadC(name, src string, model cmem.Model) error {
	cfg := cparse.Config{}
	if model == cmem.LP64 {
		cfg.Model = cparse.ModelLP64
	}
	u, err := cparse.Parse(name, src, cfg)
	if err != nil {
		return err
	}
	return s.AddUniverse(name, u)
}

// LoadJava parses Java declarations into a universe named name.
func (s *Session) LoadJava(name, src string) error {
	u, err := javaparse.Parse(name, src)
	if err != nil {
		return err
	}
	return s.AddUniverse(name, u)
}

// LoadIDL parses CORBA IDL declarations into a universe named name.
func (s *Session) LoadIDL(name, src string) error {
	u, err := idlparse.Parse(name, src)
	if err != nil {
		return err
	}
	return s.AddUniverse(name, u)
}

// LoadGo parses Go declarations into a universe named name.
func (s *Session) LoadGo(name, src string) error {
	u, err := goparse.Parse(name, src)
	if err != nil {
		return err
	}
	return s.AddUniverse(name, u)
}

// LoadSource is LoadC, LoadJava, LoadIDL or LoadGo by language name
// (stype.Lang's text form: "c", "java", "idl", "go"). model names the C
// data model (cmem.ParseModel); an unknown one is an error for every
// language.
func (s *Session) LoadSource(universe, lang, model, src string) error {
	var l stype.Lang
	if err := l.UnmarshalText([]byte(lang)); err != nil {
		return err
	}
	m, err := cmem.ParseModel(model)
	if err != nil {
		return err
	}
	switch l {
	case stype.LangC:
		return s.LoadC(universe, src, m)
	case stype.LangJava:
		return s.LoadJava(universe, src)
	case stype.LangIDL:
		return s.LoadIDL(universe, src)
	}
	return s.LoadGo(universe, src)
}

// AddUniverse installs an already-built universe (used by the project
// loader and the workload synthesizer).
func (s *Session) AddUniverse(name string, u *stype.Universe) error {
	if name == "" {
		return fmt.Errorf("core: empty universe name")
	}
	if u == nil {
		return fmt.Errorf("core: nil universe")
	}
	if _, dup := s.universes[name]; dup {
		return fmt.Errorf("core: universe %q already loaded", name)
	}
	s.universes[name] = u
	s.lowerers[name] = lower.New(u)
	s.order = append(s.order, name)
	return nil
}

// Universe returns a loaded universe, or nil.
func (s *Session) Universe(name string) *stype.Universe { return s.universes[name] }

// Universes lists loaded universe names in load order.
func (s *Session) Universes() []string { return append([]string(nil), s.order...) }

// Annotate runs an annotation script against a universe. Annotations
// change lowering, so the universe's Mtype cache is reset.
func (s *Session) Annotate(universe, script string) (annotate.ScriptResult, error) {
	u := s.universes[universe]
	if u == nil {
		return annotate.ScriptResult{}, fmt.Errorf("%w %q", ErrNoUniverse, universe)
	}
	res, err := annotate.ApplyScript(u, script)
	if err != nil {
		return res, err
	}
	s.lowerers[universe] = lower.New(u)
	return res, nil
}

// Mtype lowers a declaration to its Mtype.
func (s *Session) Mtype(universe, decl string) (*mtype.Type, error) {
	l := s.lowerers[universe]
	if l == nil {
		return nil, fmt.Errorf("%w %q", ErrNoUniverse, universe)
	}
	return l.Decl(decl)
}

// Relation is the comparer's verdict on a pair of declarations.
type Relation uint8

// Possible verdicts.
const (
	// RelNone: the declarations do not match; no stub can be generated.
	RelNone Relation = iota
	// RelEquivalent: two-way converters can be generated.
	RelEquivalent
	// RelSubtypeAB: a one-way converter A→B can be generated.
	RelSubtypeAB
	// RelSubtypeBA: a one-way converter B→A can be generated.
	RelSubtypeBA
)

// String names the relation.
func (r Relation) String() string {
	switch r {
	case RelEquivalent:
		return "equivalent"
	case RelSubtypeAB:
		return "subtype (left of right)"
	case RelSubtypeBA:
		return "supertype (right of left)"
	default:
		return "no match"
	}
}

// Verdict is the result of comparing two declarations.
type Verdict struct {
	Relation Relation
	// Match is the witnessing match (nil when Relation is RelNone).
	Match *compare.Match
	// Explain describes the mismatch when Relation is RelNone.
	Explain string
	// Steps counts comparison steps; a primitive leaf matched by key is not one.
	Steps int
}

// Compare lowers both declarations and decides their relation, preferring
// equivalence, then A<:B, then B<:A — the order in which Mockingbird can
// offer stubs (§3: two-way converter, else one-way).
func (s *Session) Compare(universeA, declA, universeB, declB string) (*Verdict, error) {
	mtA, err := s.Mtype(universeA, declA)
	if err != nil {
		return nil, err
	}
	mtB, err := s.Mtype(universeB, declB)
	if err != nil {
		return nil, err
	}
	return s.compareMtypes(mtA, mtB), nil
}

func (s *Session) compareMtypes(mtA, mtB *mtype.Type) *Verdict {
	c := s.newComparer()
	if m, ok := c.Equivalent(mtA, mtB); ok {
		return &Verdict{Relation: RelEquivalent, Match: m, Steps: c.Steps()}
	}
	if m, ok := c.Subtype(mtA, mtB); ok {
		return &Verdict{Relation: RelSubtypeAB, Match: m, Steps: c.Steps()}
	}
	if m, ok := c.Subtype(mtB, mtA); ok {
		return &Verdict{Relation: RelSubtypeBA, Match: m, Steps: c.Steps()}
	}
	return &Verdict{
		Relation: RelNone,
		Explain:  c.Explain(mtA, mtB, compare.ModeEqual),
		Steps:    c.Steps(),
	}
}

// BuildConverter builds and closure-compiles the coercion plan witnessed
// by a verdict, with the session's semantic hooks resolved. The converter
// runs in the direction the relation supports: A→B for RelEquivalent and
// RelSubtypeAB, B→A for RelSubtypeBA (the match was taken in that
// direction). The returned converter is safe for concurrent use.
func (s *Session) BuildConverter(v *Verdict) (*plan.Plan, convert.Converter, error) {
	p, err := buildPlan(v)
	if err != nil {
		return nil, nil, err
	}
	c, err := convert.CompileHooks(p, s.hooks)
	if err != nil {
		return nil, nil, err
	}
	return p, c, nil
}

func buildPlan(v *Verdict) (*plan.Plan, error) {
	if v == nil || v.Match == nil {
		return nil, fmt.Errorf("core: verdict carries no match to build from")
	}
	return plan.Build(v.Match)
}

// BuildTranscoder assembles the wire-bytes stub of a verdict's pair, in
// the direction BuildConverter converts: the fused program when the fuser
// takes the plan, and when it refuses — on ErrUnsupported only — the tree
// rung over the closure-compiled converter. Which of the two it is, and
// why, is the transcoder's Refusal; callers run either the same way. Safe
// for concurrent use.
func (s *Session) BuildTranscoder(v *Verdict) (*transcode.Transcoder, error) {
	p, err := buildPlan(v)
	if err != nil {
		return nil, err
	}
	xc, err := transcode.Compile(p, v.Match.A, v.Match.B)
	if !errors.Is(err, transcode.ErrUnsupported) {
		return xc, err
	}
	c, cerr := convert.CompileHooks(p, s.hooks)
	if cerr != nil {
		return nil, cerr
	}
	return transcode.Tree(v.Match.A, v.Match.B, c, err.Error()), nil
}

// DeclNames lists the declarations of a universe, sorted.
func (s *Session) DeclNames(universe string) ([]string, error) {
	u := s.universes[universe]
	if u == nil {
		return nil, fmt.Errorf("%w %q", ErrNoUniverse, universe)
	}
	names := u.Names()
	sort.Strings(names)
	return names, nil
}
