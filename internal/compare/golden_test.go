package compare_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/cmem"
	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/mtype"
	"repro/internal/synth"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the comparer under test")

// The fitter pair of Figures 1, 2 and 5 with the §3.4 annotations.
const (
	fitterC = `
typedef float point[2];
void fitter(point pts[], int count, point *start, point *end);
`
	figure1Java = `
public class Point { private float x; private float y; }
public class Line { private Point start; private Point end; }
public class PointVector extends java.util.Vector;
public interface JavaIdeal { Line fitter(PointVector pts); }
`
	fitterCScript = `
annotate fitter.start out nonnull
annotate fitter.end out nonnull
annotate fitter.pts length-from=count
`
	figure1JavaScript = `
annotate Line.start nonnull noalias
annotate Line.end nonnull noalias
annotate PointVector collection-of=Point element-nonnull
annotate JavaIdeal.fitter.pts nonnull
annotate JavaIdeal.fitter.return nonnull
`
)

// pairDigest runs the tool's comparison sequence (equivalence, then
// subtyping each way) on a fresh comparer and renders everything a caller
// can observe: the relation, the step count, a decisions digest over every
// reachable Decision, and a diagnostics digest over the Explain text in
// both modes and the root FailureReason. Leaves are named by value and
// other nodes by first-visit order, so the digests depend neither on
// addresses nor on whether lowering shares its leaves. The two digests are
// apart because they answer to different rules: decisions are what the
// planner builds from and may not move, diagnostics are prose.
func pairDigest(rules compare.Rules, a, b *mtype.Type) string {
	c := compare.NewComparer(rules)
	d := &digester{h: sha256.New(), ids: make(map[*mtype.Type]int), seen: make(map[[2]*mtype.Type]bool)}
	relation := "none"
	if m, ok := c.Equivalent(a, b); ok {
		relation = "equivalent"
		d.decisions(m, a, b)
	} else if m, ok := c.Subtype(a, b); ok {
		relation = "subtype"
		d.decisions(m, a, b)
	} else if m, ok := c.Subtype(b, a); ok {
		relation = "supertype"
		d.decisions(m, b, a)
	}
	diag := sha256.New()
	for _, mode := range []compare.Mode{compare.ModeEqual, compare.ModeSubtype} {
		fmt.Fprintf(diag, "explain %s:\n%s\nreason: %s\n", mode, c.Explain(a, b, mode), c.FailureReason(a, b, mode))
	}
	return fmt.Sprintf("%s %d %x %x", relation, c.Steps(), d.h.Sum(nil)[:12], diag.Sum(nil)[:12])
}

type digester struct {
	h    hash.Hash
	ids  map[*mtype.Type]int
	seen map[[2]*mtype.Type]bool
}

// id names a node: a primitive or unit leaf by its value and tag, since
// lowering may share one such node among all its uses, and any other node
// by the order it was first seen in.
func (d *digester) id(t *mtype.Type) string {
	if u := leafOf(t); u != nil {
		return fmt.Sprintf("%s%q", u, u.Tag())
	}
	if _, ok := d.ids[t]; !ok {
		d.ids[t] = len(d.ids)
	}
	return fmt.Sprint(d.ids[t])
}

// leafOf returns the Integer, Character, Real or Unit node t unfolds to,
// or nil.
func leafOf(t *mtype.Type) *mtype.Type {
	for t != nil && t.Kind() == mtype.KindRecursive {
		t = t.Body()
	}
	if t != nil && t.Kind() <= mtype.KindUnit { // the four leaf kinds come first
		return t
	}
	return nil
}

func (d *digester) leaves(side string, flat []compare.FlatLeaf) {
	for _, l := range flat {
		fmt.Fprintf(d.h, " %s%v/%s/%v", side, l.Path, d.id(l.Node), l.Unit)
	}
}

// decisions walks the correspondence the way the planner does, and
// through port elements as the stub builders do.
// A pair of two leaves is digested each time it is reached, as a pair of
// unshared leaves would be, except inside its own decision (Unit against
// Unit is a record pair whose one leaf pair is itself).
func (d *digester) decisions(m *compare.Match, a, b *mtype.Type) {
	key := [2]*mtype.Type{a, b}
	if d.seen[key] {
		return
	}
	d.seen[key] = true
	if leafOf(a) != nil && leafOf(b) != nil {
		defer delete(d.seen, key)
	}
	dec, err := m.Decision(a, b)
	if err != nil {
		fmt.Fprintf(d.h, "%s~%s: %v\n", d.id(a), d.id(b), err)
		return
	}
	fmt.Fprintf(d.h, "%s~%s: kind=%d A=%s B=%s perm=%v alts=%v hook=%q", d.id(a), d.id(b),
		dec.Kind, d.id(dec.A), d.id(dec.B), dec.Perm, dec.AltMap, dec.Hook)
	d.leaves("a", dec.FlatA)
	d.leaves("b", dec.FlatB)
	fmt.Fprintln(d.h)
	switch dec.Kind {
	case compare.DecRecord:
		for i, l := range dec.FlatA {
			if !l.Unit && dec.Perm[i] >= 0 {
				d.decisions(m, l.Node, dec.FlatB[dec.Perm[i]].Node)
			}
		}
	case compare.DecChoice:
		for i, j := range dec.AltMap {
			d.decisions(m, dec.A.Alts()[i].Type, dec.B.Alts()[j].Type)
		}
	case compare.DecInject:
		d.decisions(m, dec.A, dec.B.Alts()[dec.AltMap[0]].Type)
	case compare.DecPort:
		if m.Mode == compare.ModeSubtype {
			d.decisions(m, dec.B.Elem(), dec.A.Elem())
		} else {
			d.decisions(m, dec.A.Elem(), dec.B.Elem())
		}
	}
}

func mustMtype(t testing.TB, s *core.Session, universe, decl string) *mtype.Type {
	t.Helper()
	mt, err := s.Mtype(universe, decl)
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

func suiteSession(t *testing.T, s *synth.Suite) *core.Session {
	t.Helper()
	sess := core.NewSession()
	for _, err := range []error{
		sess.LoadJava("java", s.JavaSource), sess.LoadIDL("idl", s.IDLSource),
		sess.LoadC("c", s.CSource, cmem.ILP32), sess.LoadGo("go", s.GoSource),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range [][2]string{{"java", s.JavaScript}, {"go", s.GoScript}, {"c", s.CScript}} {
		if _, err := sess.Annotate(a[0], a[1]); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

func fitterSession(tb testing.TB) *core.Session {
	tb.Helper()
	s := core.NewSession()
	if err := s.LoadC("c", fitterC, cmem.ILP32); err != nil {
		tb.Fatal(err)
	}
	if err := s.LoadJava("java", figure1Java); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Annotate("c", fitterCScript); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Annotate("java", figure1JavaScript); err != nil {
		tb.Fatal(err)
	}
	return s
}

func fitterPair(t *testing.T) (a, b *mtype.Type) {
	t.Helper()
	s := fitterSession(t)
	return mustMtype(t, s, "java", "JavaIdeal"), mustMtype(t, s, "c", "fitter")
}

// wideningPair is every primitive and structural failure reason, under a
// record so that Explain has a tree to walk; narrow is a subtype of wide.
func wideningPair() (narrow, wide *mtype.Type) {
	i8, i16 := mtype.NewIntegerBits(8, true), mtype.NewIntegerBits(16, true)
	narrow = mtype.RecordOf(i8, mtype.NewFloat32(), mtype.NewCharacter(mtype.RepLatin1),
		mtype.NewPort(i16), mtype.ChoiceOf(i8, mtype.NewFloat32()), mtype.NewList(i8))
	wide = mtype.RecordOf(mtype.NewList(i16), mtype.ChoiceOf(mtype.NewFloat64(), i16, mtype.Unit()), mtype.NewPort(i8),
		mtype.NewCharacter(mtype.RepUnicode), mtype.NewFloat64(), i16)
	return narrow, wide
}

// goldenLines computes one "name: digest" line per pinned pair.
func goldenLines(t *testing.T) []string {
	var lines []string
	add := func(name string, rules compare.Rules, a, b *mtype.Type) {
		lines = append(lines, name+": "+pairDigest(rules, a, b))
	}

	type namedSuite struct {
		name string
		cfg  synth.Config
	}
	suites := []namedSuite{{"miniature", synth.VisualAgeMiniature()}}
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := synth.VisualAgeScaled(60)
		cfg.Seed = seed
		suites = append(suites, namedSuite{fmt.Sprintf("scaled60-seed%d", seed), cfg})
	}
	for _, ns := range suites {
		sname := ns.name
		suite := synth.Generate(ns.cfg)
		sess := suiteSession(t, suite)
		all := append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...)
		for _, side := range []struct {
			universe string
			names    []string
		}{{"java", all}, {"go", all}, {"c", suite.DataClassNames}} {
			for _, name := range side.names {
				add(fmt.Sprintf("%s/%s-idl/%s", sname, side.universe, name), compare.DefaultRules(),
					mustMtype(t, sess, side.universe, name), mustMtype(t, sess, "idl", name))
			}
		}
		if sname == "miniature" {
			// Failing pairs out of a real suite: service classes whose
			// methods differ, and a shuffled, regrouped data class with
			// the rule it needs switched off.
			add("fail/go-S1-idl-S2", compare.DefaultRules(), mustMtype(t, sess, "go", "S1"), mustMtype(t, sess, "idl", "S2"))
			add("fail/java-S0-idl-S3", compare.DefaultRules(), mustMtype(t, sess, "java", "S0"), mustMtype(t, sess, "idl", "S3"))
			noComm := compare.DefaultRules()
			noComm.Commutativity = false
			add("fail/nocomm-java-D7-idl-D7", noComm, mustMtype(t, sess, "java", "D7"), mustMtype(t, sess, "idl", "D7"))
			add("fail/nocomm-c-D6-idl-D6", noComm, mustMtype(t, sess, "c", "D6"), mustMtype(t, sess, "idl", "D6"))
		}
	}

	narrow, wide := wideningPair()
	add("fail/widening", compare.DefaultRules(), narrow, wide)
	add("fail/widening-reversed", compare.DefaultRules(), wide, narrow)

	a, b := fitterPair(t)
	i8 := mtype.NewIntegerBits(8, true)
	ablations := []struct {
		name string
		edit func(*compare.Rules)
	}{
		{"default", func(*compare.Rules) {}},
		{"noassoc", func(r *compare.Rules) { r.Associativity = false }},
		{"nocomm", func(r *compare.Rules) { r.Commutativity = false }},
		{"nounit", func(r *compare.Rules) { r.UnitElimination = false }},
		{"nocache", func(r *compare.Rules) { r.Cache = false }},
		{"none", func(r *compare.Rules) { *r = compare.Rules{} }},
	}
	point := mtype.RecordOf(mtype.NewFloat32(), mtype.NewFloat32())
	line := mtype.RecordOf(point, point)
	four := mtype.RecordOf(mtype.NewFloat32(), mtype.NewFloat32(), mtype.NewFloat32(), mtype.NewFloat32())
	shuffled := mtype.RecordOf(mtype.NewFloat32(), mtype.RecordOf(mtype.NewCharacter(mtype.RepLatin1), mtype.NewFloat32()))
	ordered := mtype.RecordOf(mtype.NewFloat32(), mtype.NewFloat32(), mtype.NewCharacter(mtype.RepLatin1))
	unitField := mtype.RecordOf(mtype.Unit(), i8)
	for _, abl := range ablations {
		rules := compare.DefaultRules()
		abl.edit(&rules)
		add("ablation/"+abl.name+"/fitter", rules, a, b)
		add("ablation/"+abl.name+"/line-four", rules, line, four)
		add("ablation/"+abl.name+"/shuffled-ordered", rules, shuffled, ordered)
		add("ablation/"+abl.name+"/unit-field", rules, unitField, mtype.RecordOf(i8))
	}
	return lines
}

// TestGolden pins the comparer's observable behaviour — relation, step
// count, every reachable decision and every diagnostic string — to digests
// first captured from the five-map comparer at commit 8f8aa6e; the decisions
// column was captured again at 64f8276 when leaves came to be digested by
// value. A rebuilt hot path must reproduce each line exactly.
func TestGolden(t *testing.T) {
	got := goldenLines(t)
	const path = "testdata/golden.txt"
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d pinned pairs, computed %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
}

// unshared copies t's graph as lowering built it before it interned its
// leaves: μ, record, choice and port nodes keep their sharing and cycles,
// and each use of an Integer, Character, Real or Unit leaf gets a node of
// its own, of the same value and tag, not interned.
func unshared(t *mtype.Type) *mtype.Type {
	memo := map[*mtype.Type]*mtype.Type{}
	var build func(n *mtype.Type) *mtype.Type
	build = func(n *mtype.Type) *mtype.Type {
		if m := memo[n]; m != nil {
			return m
		}
		var out *mtype.Type
		switch n.Kind() {
		case mtype.KindInteger, mtype.KindCharacter, mtype.KindReal, mtype.KindUnit:
			return n.Fresh()
		case mtype.KindRecursive:
			out = mtype.NewRecursive().SetTag(n.Tag())
			memo[n] = out
			out.SetBody(build(n.Body()))
			return out
		case mtype.KindRecord:
			fields := append([]mtype.Field(nil), n.Fields()...)
			for i := range fields {
				fields[i].Type = build(fields[i].Type)
			}
			out = mtype.NewRecord(fields...)
		case mtype.KindChoice:
			alts := append([]mtype.Alt(nil), n.Alts()...)
			for i := range alts {
				alts[i].Type = build(alts[i].Type)
			}
			out = mtype.NewChoice(alts...)
		default:
			out = mtype.NewPort(build(n.Elem()))
		}
		memo[n] = out.SetTag(n.Tag())
		return out
	}
	return build(t)
}

// TestExplainNamesLeavesByUse: lowering gives all the uses of a leaf value
// one node, yet Explain of every failing pair of the miniature suite's
// Java and IDL declarations reads as it does on copies of the graphs with
// a leaf for each use, the graphs lowering built before it shared them:
// a failed pair of two leaves shows under the record whose match probed
// it, once for each pair of uses probed.
func TestExplainNamesLeavesByUse(t *testing.T) {
	suite := synth.Generate(synth.VisualAgeMiniature())
	sess := suiteSession(t, suite)
	all := append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...)
	explain := func(a, b *mtype.Type) string {
		c := compare.NewComparer(compare.DefaultRules())
		if _, ok := c.Equivalent(a, b); ok {
			return ""
		}
		c.Subtype(a, b)
		c.Subtype(b, a)
		return c.Explain(a, b, compare.ModeEqual) + c.Explain(a, b, compare.ModeSubtype)
	}
	failed := 0
	for _, x := range all {
		for _, y := range all {
			a, b := mustMtype(t, sess, "java", x), mustMtype(t, sess, "idl", y)
			got := explain(a, b)
			if got == "" {
				continue
			}
			failed++
			if want := explain(unshared(a), unshared(b)); got != want {
				t.Errorf("java %s ~ idl %s:\n got %s\nwant %s", x, y, got, want)
			}
		}
	}
	if failed < len(all) {
		t.Errorf("only %d failing pairs explained", failed)
	}
}

// TestReuseMatchesFresh: one comparer asks a pair the tool's three
// questions in turn, as core.compareMtypes does — equivalence, then
// subtyping each way — over the pair table, flattenings and scratch of the
// questions before. Each answer, and every decision reachable from it,
// equals a fresh comparer's. Each declaration is paired with its IDL
// counterpart, which passes, and with the IDL declaration after it, which
// fails; the widening pair fails equivalence and passes one subtyping.
func TestReuseMatchesFresh(t *testing.T) {
	suite := synth.Generate(synth.VisualAgeScaled(60))
	sess := suiteSession(t, suite)
	all := append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...)
	ask := func(c *compare.Comparer, q int, a, b *mtype.Type) string {
		var m *compare.Match
		var ok bool
		switch q {
		case 0:
			m, ok = c.Equivalent(a, b)
		case 1:
			m, ok = c.Subtype(a, b)
		case 2:
			m, ok = c.Subtype(b, a)
			a, b = b, a
		}
		if !ok {
			return "no match"
		}
		d := &digester{h: sha256.New(), ids: make(map[*mtype.Type]int), seen: make(map[[2]*mtype.Type]bool)}
		d.decisions(m, a, b)
		return fmt.Sprintf("%x", d.h.Sum(nil))
	}
	pairs := 0
	check := func(name string, a, b *mtype.Type) {
		reused := compare.NewComparer(compare.DefaultRules())
		for q, question := range []string{"equivalent", "subtype", "supertype"} {
			got, want := ask(reused, q, a, b), ask(compare.NewComparer(compare.DefaultRules()), q, a, b)
			if got != want {
				t.Errorf("%s, %s after %d questions: %s, fresh %s", name, question, q, got, want)
			}
		}
		pairs++
	}
	for _, side := range []struct {
		universe string
		names    []string
	}{{"java", all}, {"go", all}, {"c", suite.DataClassNames}} {
		for i, name := range side.names {
			for _, other := range []string{name, side.names[(i+1)%len(side.names)]} {
				check(side.universe+" "+name+" ~ idl "+other, mustMtype(t, sess, side.universe, name), mustMtype(t, sess, "idl", other))
			}
		}
	}
	narrow, wide := wideningPair()
	check("narrow ~ wide", narrow, wide)
	check("wide ~ narrow", wide, narrow)
	if pairs < 200 {
		t.Errorf("only %d pairs asked", pairs)
	}
}

// TestConcurrentComparers: comparers running at once, as a broker's
// callers run them, share only the pool their scratch stacks come from;
// each pair's answer, steps, decisions and diagnostics equal a lone
// comparer's. Every other class meets the next class's IDL counterpart,
// so half the pairs fail and are diagnosed. Run it under -race.
func TestConcurrentComparers(t *testing.T) {
	suite := synth.Generate(synth.VisualAgeScaled(60))
	sess := suiteSession(t, suite)
	all := append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...)
	pairs := make([][2]*mtype.Type, len(all))
	want := make([]string, len(all))
	for i, name := range all {
		pairs[i] = [2]*mtype.Type{mustMtype(t, sess, "java", name), mustMtype(t, sess, "idl", all[(i+i%2)%len(all)])}
		want[i] = pairDigest(compare.DefaultRules(), pairs[i][0], pairs[i][1])
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range pairs {
				i := (k + g*len(pairs)/4) % len(pairs)
				if got := pairDigest(compare.DefaultRules(), pairs[i][0], pairs[i][1]); got != want[i] {
					t.Errorf("%s: %s, alone %s", all[i], got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestValidatedSizeIsSize: every declaration lowered from the 60-class
// suite, in all four languages, carries the node count a walk of its
// graph finds.
func TestValidatedSizeIsSize(t *testing.T) {
	suite := synth.Generate(synth.VisualAgeScaled(60))
	sess := suiteSession(t, suite)
	all := append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...)
	for _, side := range []struct {
		universe string
		names    []string
	}{{"java", all}, {"go", all}, {"idl", all}, {"c", suite.DataClassNames}} {
		for _, name := range side.names {
			mt := mustMtype(t, sess, side.universe, name)
			if got, want := mt.ValidatedSize(), len(mtype.Nodes(mt)); got != want {
				t.Errorf("%s %s: recorded %d nodes, %d reachable", side.universe, name, got, want)
			}
		}
	}
}
