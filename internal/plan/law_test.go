package plan_test

import (
	"fmt"
	"testing"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/mtype"
	"repro/internal/plan"
	"repro/internal/synth"
)

func unfold(t *mtype.Type) *mtype.Type {
	for t != nil && t.Kind() == mtype.KindRecursive {
		t = t.Body()
	}
	return t
}

// listBody reports whether t is the unfolding of a list-shaped μ node:
// Choice(Unit, Record(τ, L)) whose L is that μ.
func listBody(t *mtype.Type) bool {
	if t.Kind() != mtype.KindChoice || len(t.Alts()) != 2 || unfold(t.Alts()[0].Type).Kind() != mtype.KindUnit {
		return false
	}
	cons := unfold(t.Alts()[1].Type)
	if cons.Kind() != mtype.KindRecord || len(cons.Fields()) != 2 {
		return false
	}
	_, ok := mtype.ListElem(cons.Fields()[1].Type)
	return ok && unfold(cons.Fields()[1].Type) == t
}

// consShaped checks that a cons cell flattened to its head's leaves, all
// under field 0, and then its tail, the one leaf at path [1].
func consShaped(leaves []compare.FlatLeaf) error {
	tail := len(leaves) - 1
	if tail < 0 || len(leaves[tail].Path) != 1 || leaves[tail].Path[0] != 1 {
		return fmt.Errorf("cons cell without a trailing tail leaf")
	}
	for _, l := range leaves[:tail] {
		if len(l.Path) == 0 || l.Path[0] != 0 {
			return fmt.Errorf("cons cell leaf at path %v outside the head", l.Path)
		}
	}
	return nil
}

// lawOf checks one node against what convert and transcode take for
// granted rather than check: a known kind; a child for every sourced leaf
// and every alternative, keyed to the pair it converts; a record
// permutation that pairs the live leaves one to one; an alternative map
// as long as the alternatives, injective; a list choice that maps nil to
// nil and cons to cons over a cons cell of head leaves then the tail.
func lawOf(n *plan.Node) error {
	child := func(c *plan.Node, a, b *mtype.Type) error {
		if c == nil {
			return fmt.Errorf("missing child")
		}
		if c.A != unfold(a) || c.B != unfold(b) {
			return fmt.Errorf("child n%d converts another pair", c.ID)
		}
		return nil
	}
	switch n.Kind {
	case compare.DecSame:
		if n.A != n.B {
			return fmt.Errorf("identity between two nodes")
		}
	case compare.DecPrim:
		if k := n.A.Kind(); k != n.B.Kind() || k != mtype.KindInteger && k != mtype.KindCharacter && k != mtype.KindReal {
			return fmt.Errorf("primitive plan over %s/%s", n.A.Kind(), n.B.Kind())
		}
	case compare.DecPort:
		if n.A.Kind() != mtype.KindPort || n.B.Kind() != mtype.KindPort {
			return fmt.Errorf("port plan over %s/%s", n.A.Kind(), n.B.Kind())
		}
	case compare.DecSemantic:
		if n.Hook == "" {
			return fmt.Errorf("semantic plan without a hook")
		}
	case compare.DecRecord:
		if len(n.Perm) != len(n.FlatA) || len(n.LeafPlans) != len(n.FlatA) {
			return fmt.Errorf("%d leaves, %d targets, %d leaf plans", len(n.FlatA), len(n.Perm), len(n.LeafPlans))
		}
		sourced := make([]bool, len(n.FlatB))
		for i, j := range n.Perm {
			switch {
			case n.FlatA[i].Unit:
				if j != -1 || n.LeafPlans[i] != nil {
					return fmt.Errorf("unit leaf %d maps to %d", i, j)
				}
			case j < 0 || j >= len(n.FlatB) || sourced[j] || n.FlatB[j].Unit:
				return fmt.Errorf("leaf %d maps to %d: permutation %v is not one to one onto live leaves", i, j, n.Perm)
			default:
				sourced[j] = true
				if err := child(n.LeafPlans[i], n.FlatA[i].Node, n.FlatB[j].Node); err != nil {
					return fmt.Errorf("leaf %d: %w", i, err)
				}
			}
		}
		for j, l := range n.FlatB {
			if !l.Unit && !sourced[j] {
				return fmt.Errorf("destination leaf %d has no source", j)
			}
		}
	case compare.DecChoice:
		altsA, altsB := n.A.Alts(), n.B.Alts()
		if len(n.AltMap) != len(altsA) || len(n.AltPlans) != len(altsA) {
			return fmt.Errorf("%d alternatives, %d targets, %d plans", len(altsA), len(n.AltMap), len(n.AltPlans))
		}
		taken := make([]bool, len(altsB))
		for i, j := range n.AltMap {
			if j < 0 || j >= len(altsB) || taken[j] {
				return fmt.Errorf("alternative map %v is not injective into %d", n.AltMap, len(altsB))
			}
			taken[j] = true
			if err := child(n.AltPlans[i], altsA[i].Type, altsB[j].Type); err != nil {
				return fmt.Errorf("alternative %d: %w", i, err)
			}
		}
		if listBody(n.A) && listBody(n.B) {
			if n.AltMap[0] != 0 {
				return fmt.Errorf("list choice maps nil to alternative %d", n.AltMap[0])
			}
			if cons := n.AltPlans[1]; cons.Kind == compare.DecRecord {
				if err := consShaped(cons.FlatA); err != nil {
					return err
				}
				return consShaped(cons.FlatB)
			}
		}
	case compare.DecInject:
		if len(n.AltMap) != 1 || n.AltMap[0] < 0 || n.AltMap[0] >= len(n.B.Alts()) {
			return fmt.Errorf("injection into alternative %v of %d", n.AltMap, len(n.B.Alts()))
		}
		if n.A.Kind() == mtype.KindChoice {
			return fmt.Errorf("injection of a choice")
		}
		return child(n.InjectPlan, n.A, n.B.Alts()[n.AltMap[0]].Type)
	default:
		return fmt.Errorf("unknown kind %d", n.Kind)
	}
	return nil
}

// holdLaws checks every node of p, and that the nodes are numbered in
// order from the root.
func holdLaws(t *testing.T, what string, p *plan.Plan) {
	t.Helper()
	if len(p.Nodes) == 0 || p.Root != p.Nodes[0] {
		t.Fatalf("%s: root is not the first node", what)
	}
	for i, n := range p.Nodes {
		if n.ID != i {
			t.Fatalf("%s: node %d has ID %d", what, i, n.ID)
		}
		if err := lawOf(n); err != nil {
			t.Fatalf("%s: n%d (%s): %v\n%s", what, n.ID, n.A.Kind(), err, p)
		}
	}
}

// TestPlanLaws holds plan.Build's output to lawOf, on every plan of the
// synthesized suites the default comparer accepts (each rendered language
// against IDL, both ways), and on pairs built to reach the corners: lists
// whose element is the list, a list against its unfolding, injections,
// and a subtype whose matcher hands a list's tail to a head leaf.
func TestPlanLaws(t *testing.T) {
	plans := 0
	for _, cfg := range []synth.Config{synth.VisualAgeMiniature(), synth.NotesAPI(), synth.Collab(), synth.VisualAgeScaled(60)} {
		suite := synth.Generate(cfg)
		sess := core.NewSession()
		for _, l := range []struct{ lang, src, script string }{
			{"java", suite.JavaSource, suite.JavaScript}, {"go", suite.GoSource, suite.GoScript},
			{"c", suite.CSource, suite.CScript}, {"idl", suite.IDLSource, ""},
		} {
			if err := sess.LoadSource(l.lang, l.lang, "ilp32", l.src); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Annotate(l.lang, l.script); err != nil {
				t.Fatal(err)
			}
		}
		all := append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...)
		for _, lang := range []string{"java", "go", "c"} {
			for _, name := range all {
				for _, dir := range [][2]string{{lang, "idl"}, {"idl", lang}} {
					v, err := sess.Compare(dir[0], name, dir[1], name)
					if err != nil || v.Relation != core.RelEquivalent && v.Relation != core.RelSubtypeAB {
						continue // C has no service classes
					}
					p, err := plan.Build(v.Match)
					if err != nil {
						t.Fatal(err)
					}
					holdLaws(t, fmt.Sprintf("%s %s→%s", name, dir[0], dir[1]), p)
					plans++
				}
			}
		}
	}
	t.Logf("%d suite plans hold", plans)
	if plans < 2*389 {
		t.Fatalf("checked %d suite plans; the suites hold 389 accepted pairs each way", plans)
	}

	i32, f64 := func() *mtype.Type { return mtype.NewIntegerBits(32, true) }, mtype.NewFloat64
	selfList := func() *mtype.Type {
		r := mtype.NewRecursive()
		r.SetBody(mtype.ChoiceOf(mtype.Unit(), mtype.RecordOf(r, r)))
		return r
	}
	l, m := mtype.NewRecursive(), mtype.NewRecursive()
	consB := mtype.RecordOf(l, m)
	l.SetBody(mtype.ChoiceOf(mtype.Unit(), mtype.RecordOf(mtype.ChoiceOf(consB), l)))
	m.SetBody(mtype.ChoiceOf(mtype.Unit(), consB))
	list := mtype.NewList(mtype.RecordOf(i32(), f64()))
	for _, c := range []struct {
		name    string
		a, b    *mtype.Type
		subtype bool
	}{
		{"list of permuted records", list, mtype.NewList(mtype.RecordOf(f64(), i32())), false},
		{"list of itself", selfList(), selfList(), false},
		{"list of itself, subtype", selfList(), selfList(), true},
		{"tail to head", l, m, true},
		{"list vs its unfolding", list, list.Body(), false},
		{"record of a list vs the list", mtype.RecordOf(list), list, false},
		{"unit into a list", mtype.Unit(), list, true},
		{"optional", mtype.NewOptional(mtype.RecordOf(i32(), mtype.Unit(), f64())), mtype.NewOptional(mtype.RecordOf(f64(), i32())), false},
		{"widening choice", mtype.ChoiceOf(i32(), f64()), mtype.ChoiceOf(f64(), mtype.Unit(), mtype.NewIntegerBits(64, true)), true},
		{"port", mtype.NewPort(mtype.RecordOf(i32(), f64())), mtype.NewPort(mtype.RecordOf(f64(), i32())), false},
	} {
		cmp := compare.NewComparer(compare.DefaultRules())
		mt, ok := cmp.Equivalent(c.a, c.b)
		if c.subtype {
			mt, ok = cmp.Subtype(c.a, c.b)
		}
		if !ok {
			t.Fatalf("%s: the default comparer does not accept the pair", c.name)
		}
		p, err := plan.Build(mt)
		if err != nil {
			t.Fatal(err)
		}
		holdLaws(t, c.name, p)
	}
}
