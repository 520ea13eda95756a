// The comparer's standing benchmarks, the ones EXPERIMENTS.md's "§5-A
// scaling", "Figure 8" and "Ablations" sections and its diagnosis cost
// rest on and no bench/ layer reads.
package compare_test

import (
	"fmt"
	"testing"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/mtype"
	"repro/internal/synth"
)

// --- §5-A: comparer scalability (the VisualAge investigation) ---

// BenchmarkComparerScaling compares every class pair of synthesized
// suites from the 12-class miniature toward the full 500-class system.
// steps/op reports comparison steps.
func BenchmarkComparerScaling(b *testing.B) {
	for _, n := range []int{12, 50, 100, 250, 500} {
		b.Run(fmt.Sprintf("classes=%d", n), func(b *testing.B) {
			cfg := synth.VisualAgeScaled(n)
			if n == 12 {
				cfg = synth.VisualAgeMiniature()
			}
			suite := synth.Generate(cfg)
			sess := core.NewSession()
			if err := sess.LoadJava("java", suite.JavaSource); err != nil {
				b.Fatal(err)
			}
			if err := sess.LoadIDL("idl", suite.IDLSource); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Annotate("java", suite.JavaScript); err != nil {
				b.Fatal(err)
			}
			names := append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...)
			b.ResetTimer()
			totalSteps := 0
			for i := 0; i < b.N; i++ {
				for _, name := range names {
					v, err := sess.Compare("java", name, "idl", name)
					if err != nil {
						b.Fatal(err)
					}
					if v.Relation != core.RelEquivalent {
						b.Fatalf("%s: %s", name, v.Relation)
					}
					totalSteps += v.Steps
				}
			}
			b.ReportMetric(float64(totalSteps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkMismatchedVerdicts compares each class of the 60-class suite
// against the next one's IDL: 59 of the 60 pairs have no relation, and
// core explains each such verdict. The benchmark operation's suites
// compare only equivalent pairs, so they never pay for a diagnosis.
func BenchmarkMismatchedVerdicts(b *testing.B) {
	suite := synth.Generate(synth.VisualAgeScaled(60))
	sess := core.NewSession()
	if err := sess.LoadJava("java", suite.JavaSource); err != nil {
		b.Fatal(err)
	}
	if err := sess.LoadIDL("idl", suite.IDLSource); err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Annotate("java", suite.JavaScript); err != nil {
		b.Fatal(err)
	}
	names := append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, name := range names {
			if _, err := sess.Compare("java", name, "idl", names[(j+1)%len(names)]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablations: what the isomorphism rules and the cache buy ---

// BenchmarkComparerAblation compares the fitter pair (and a failing
// variant) under reduced rule sets, reporting steps.
func BenchmarkComparerAblation(b *testing.B) {
	mkRules := map[string]func() compare.Rules{
		"default": compare.DefaultRules,
		"nocache": func() compare.Rules {
			r := compare.DefaultRules()
			r.Cache = false
			return r
		},
		"nounit": func() compare.Rules {
			r := compare.DefaultRules()
			r.UnitElimination = false
			return r
		},
	}
	for name, mk := range mkRules {
		b.Run(name, func(b *testing.B) {
			sess := fitterSession(b)
			sess.SetRules(mk())
			mtA, err := sess.Mtype("java", "JavaIdeal")
			if err != nil {
				b.Fatal(err)
			}
			mtB, err := sess.Mtype("c", "fitter")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			steps := 0
			for i := 0; i < b.N; i++ {
				c := compare.NewComparer(mk())
				if _, ok := c.Equivalent(mtA, mtB); !ok {
					b.Fatal("fitter pair must match under these rules")
				}
				steps += c.Steps()
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
	// The rules that make the match possible at all: measure the cost of
	// discovering failure without them.
	for name, mk := range map[string]func() compare.Rules{
		"noassoc-fails": func() compare.Rules {
			r := compare.DefaultRules()
			r.Associativity = false
			return r
		},
		"nocomm-fails": func() compare.Rules {
			r := compare.DefaultRules()
			r.Commutativity = false
			return r
		},
	} {
		b.Run(name, func(b *testing.B) {
			suite := synth.Generate(synth.VisualAgeMiniature())
			sess := core.NewSession()
			if err := sess.LoadJava("java", suite.JavaSource); err != nil {
				b.Fatal(err)
			}
			if err := sess.LoadIDL("idl", suite.IDLSource); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Annotate("java", suite.JavaScript); err != nil {
				b.Fatal(err)
			}
			sess.SetRules(mk())
			names := append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matched := 0
				for _, name := range names {
					v, err := sess.Compare("java", name, "idl", name)
					if err != nil {
						b.Fatal(err)
					}
					if v.Relation == core.RelEquivalent {
						matched++
					}
				}
				if matched == len(names) {
					b.Fatal("ablated rules should not match the full shuffled suite")
				}
			}
		})
	}
}

// --- Figure 8: recursive list comparison ---

// BenchmarkRecursiveListCompare measures coinductive equivalence on the
// Figure 8 cyclic graphs (fresh comparer each time: the cycle is the
// point).
func BenchmarkRecursiveListCompare(b *testing.B) {
	a := mtype.NewList(mtype.RecordOf(mtype.NewFloat32(), mtype.NewFloat32()))
	c2 := mtype.NewList(mtype.RecordOf(mtype.NewFloat32(), mtype.NewFloat32()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := compare.NewComparer(compare.DefaultRules())
		if _, ok := c.Equivalent(a, c2); !ok {
			b.Fatal("lists must match")
		}
	}
}
