package fingerprint

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mtype"
	"repro/internal/synth"
)

// suiteTypes lowers every declaration of a synthesized suite the broker
// would fingerprint: the C side's data classes and every class of the Java
// and IDL sides.
func suiteTypes(tb testing.TB, cfg synth.Config) []*mtype.Type {
	tb.Helper()
	suite := synth.Generate(cfg)
	s := core.NewSession()
	for _, l := range []struct{ universe, lang, src, script string }{
		{"c", "c", suite.CSource, suite.CScript},
		{"java", "java", suite.JavaSource, suite.JavaScript},
		{"idl", "idl", suite.IDLSource, ""},
	} {
		if err := s.LoadSource(l.universe, l.lang, "ilp32", l.src); err != nil {
			tb.Fatal(err)
		}
		if l.script != "" {
			if _, err := s.Annotate(l.universe, l.script); err != nil {
				tb.Fatal(err)
			}
		}
	}
	var types []*mtype.Type
	add := func(universe string, names []string) {
		for _, name := range names {
			mt, err := s.Mtype(universe, name)
			if err != nil {
				tb.Fatal(err)
			}
			types = append(types, mt)
		}
	}
	add("c", suite.DataClassNames)
	for _, universe := range []string{"java", "idl"} {
		add(universe, suite.DataClassNames)
		add(universe, suite.ServiceClassNames)
	}
	return types
}

var sinkPrint Print

// BenchmarkOfSuite500 is the cold path's first cost on broker_mixed: Of
// over every declaration of the workload's 500-class suite, reported per
// declaration.
func BenchmarkOfSuite500(b *testing.B) {
	types := suiteTypes(b, synth.VisualAgeScaled(500))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range types {
			sinkPrint = Of(t)
		}
	}
	b.StopTimer()
	perDecl := float64(b.N) * float64(len(types))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perDecl, "ns/decl")
}
