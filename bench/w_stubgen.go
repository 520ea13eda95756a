package main

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/cmem"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/mtype"
	"repro/internal/plan"
	"repro/internal/synth"
	"repro/internal/transcode"
)

// stubgenSuite is the compile-time workload, the paper's §5 scalability
// trial: one operation takes a synthesized 60-class suite from source
// text in four languages to ready stubs. The frontends, lower, compare
// and plan do all the work; orb and gateway do none.
var stubgenSuite = &workload{
	name:     "stubgen_suite",
	warmOps:  stubgenCounted / callers,
	blockOps: 1, lapBlocks: stubgenLap,
	spanNames: []string{
		spStubgenOp: "core.stubgen",
		spLoadJava:  "javaparse.load", spLoadIDL: "idlparse.load", spLoadC: "cparse.load", spLoadGo: "goparse.load",
		spAnnotate: "annotate.apply", spMtype: "lower.mtype", spCompare: "compare.compare",
		spPlan: "plan.build", spConvCompile: "convert.compile", spXcodeCompile: "transcode.compile",
		spFingerprint: "fingerprint.of",
	},
	setup: setupStubgen,
}

const (
	spStubgenOp uint16 = iota
	spLoadJava
	spLoadIDL
	spLoadC
	spLoadGo
	spAnnotate
	spMtype
	spCompare
	spPlan
	spConvCompile
	spXcodeCompile
	spFingerprint
)

const (
	stubgenClasses = 60
	// stubgenCounted is how many suites the warm-up compiles; they supply
	// the count metrics.
	stubgenCounted = callers * 2
	// stubgenLap is how many suites a caller compiles before it starts over
	// in an end-to-end window: see stubgenSuiteFor.
	stubgenLap = 10
)

// suiteCounts are the counts one compilation of a suite produces; they
// depend on the suite alone, so they repeat exactly for a seed.
type suiteCounts struct{ nodes, steps, fused int }

// stubgenSuiteFor generates the suite of a caller's i-th operation. Suites
// differ in how hard they are to compare (about ±15 % each), and an
// operation is a quarter of a second, so a run cannot have both many
// suites and many timings of each. An end-to-end window cycles stubgenLap
// suites per caller: a run compiles 20 suites about eight times each,
// their mean difficulty moves ops_per_s by about 3 % from seed to seed, and
// a burst of the host spoils some of a suite's eight timings, not its
// fastest. (The traced pass gives every operation its own suite.)
// Generation (≈1.6 ms) runs inside the operation, before its root span:
// under 1 % of it, and only one suite per caller is ever alive, so the
// fixtures do not set rss_p95_mib.
func stubgenSuiteFor(seed uint64, caller, i int) (*synth.Suite, int) {
	cfg := synth.VisualAgeScaled(stubgenClasses)
	cfg.Seed = seed<<24 | uint64(i*callers+caller) + 1
	s := synth.Generate(cfg)
	size := 0
	for _, src := range suiteSources(s) {
		size += len(src)
	}
	return s, size
}

// suiteSources is the text one operation consumes: four declaration
// sources and three annotation scripts.
func suiteSources(s *synth.Suite) []string {
	return []string{s.JavaSource, s.IDLSource, s.CSource, s.GoSource, s.JavaScript, s.GoScript, s.CScript}
}

func setupStubgen(e *env) (*instance, error) {
	d := newDigest()
	for i := 0; i < stubgenCounted; i++ {
		s, _ := stubgenSuiteFor(e.seed, i%callers, i/callers)
		for _, src := range suiteSources(s) {
			d.str(src)
		}
	}
	// counts[k] is what the warm-up's k-th suite compiled to.
	var counts [stubgenCounted]atomic.Pointer[suiteCounts]
	var traceSteps atomic.Int64 // comparison steps inside traced operations

	op := func(caller, i int) (int, error) {
		suite, size := stubgenSuiteFor(e.seed, caller, i)
		tr := e.tr.Load()
		got, err := compileSuite(suite, tr)
		if err != nil {
			return 0, err
		}
		if tr != nil {
			traceSteps.Add(int64(got.steps))
		}
		if k := i*callers + caller; k < stubgenCounted {
			counts[k].Store(&got)
		}
		return size, nil
	}

	inst := &instance{op: op, digest: d.sum(), close: func() {}}
	inst.window = func() func(metricSet) {
		traceSteps.Store(0)
		return func(m metricSet) {
			// Counts are summed over the suites the warm-up compiled, not
			// over the window's operations, so two runs of a seed print
			// identical numbers.
			var sum suiteCounts
			for i := range counts {
				if c := counts[i].Load(); c != nil {
					sum.nodes += c.nodes
					sum.steps += c.steps
					sum.fused += c.fused
				}
			}
			m.set("lower.mtype_nodes", float64(sum.nodes), 0)
			m.set("compare.steps", float64(sum.steps), 0)
			m.set("transcode.fused_pairs", float64(sum.fused), 0)
		}
	}
	inst.layers = func(lt layerTimes, _ *tracer, m metricSet) {
		for metric, layer := range map[string]string{
			"javaparse.load_ms": "javaparse.load", "idlparse.load_ms": "idlparse.load",
			"cparse.load_ms": "cparse.load", "goparse.load_ms": "goparse.load",
			"annotate.apply_ms": "annotate.apply", "lower.mtype_ms": "lower.mtype",
			"compare.ms": "compare.compare", "plan.build_ms": "plan.build",
			"convert.compile_ms": "convert.compile", "transcode.compile_ms": "transcode.compile",
			"fingerprint.of_ms": "fingerprint.of",
		} {
			m.set(metric, lt.median(layer)/1e6, lt.ops)
		}
		var compareNs, layersNs float64
		for _, v := range lt.perOp["compare.compare"] {
			compareNs += v
		}
		if steps := traceSteps.Load(); steps > 0 {
			m.set("compare.ns_per_step", compareNs/float64(steps), int(steps))
		}
		for layer := range lt.perOp {
			if layer != "core.stubgen" {
				layersNs += lt.median(layer)
			}
		}
		if op := medianF(lt.opDur); op > 0 {
			m.set("trace.attributed_share", layersNs/op, lt.ops)
		}
		m.set("core.stubgen_p90_ms", tail(lt.lat, 0.90)/1e6, len(lt.lat))
	}
	return inst, nil
}

// compileSuite is one stubgen operation: source text to ready stubs in a
// fresh session. Every call into a layer is bracketed by a span when tr is
// set; the spans' parent and request are the operation's root span.
func compileSuite(s *synth.Suite, tr *tracer) (suiteCounts, error) {
	var c suiteCounts
	var root int32
	span := func(name uint16, fn func() error) error {
		if tr == nil {
			return fn()
		}
		id := tr.begin(name, root, root)
		err := fn()
		tr.end(id)
		return err
	}
	if tr != nil {
		root = tr.begin(spStubgenOp, 0, 0)
		defer tr.end(root)
	}

	sess := core.NewSession()
	loads := []struct {
		span uint16
		load func() error
	}{
		{spLoadJava, func() error { return sess.LoadJava("java", s.JavaSource) }},
		{spLoadIDL, func() error { return sess.LoadIDL("idl", s.IDLSource) }},
		{spLoadC, func() error { return sess.LoadC("c", s.CSource, cmem.ILP32) }},
		{spLoadGo, func() error { return sess.LoadGo("go", s.GoSource) }},
	}
	for _, l := range loads {
		if err := span(l.span, l.load); err != nil {
			return c, err
		}
	}
	for _, a := range [][2]string{{"java", s.JavaScript}, {"go", s.GoScript}, {"c", s.CScript}} {
		a := a
		if err := span(spAnnotate, func() error { _, err := sess.Annotate(a[0], a[1]); return err }); err != nil {
			return c, fmt.Errorf("annotate %s: %w", a[0], err)
		}
	}
	err := span(spMtype, func() error {
		for _, u := range sess.Universes() {
			names, err := sess.DeclNames(u)
			if err != nil {
				return err
			}
			for _, name := range names {
				mt, err := sess.Mtype(u, name)
				if err != nil {
					return fmt.Errorf("lower %s/%s: %w", u, name, err)
				}
				c.nodes += mtype.Size(mt)
			}
		}
		return nil
	})
	if err != nil {
		return c, err
	}

	all := append(append([]string(nil), s.DataClassNames...), s.ServiceClassNames...)
	for _, side := range []struct {
		universe string
		names    []string
	}{{"java", all}, {"go", all}, {"c", s.DataClassNames}} {
		for _, name := range side.names {
			var v *core.Verdict
			err := span(spCompare, func() (err error) {
				v, err = sess.Compare(side.universe, name, "idl", name)
				return err
			})
			if err != nil {
				return c, err
			}
			// The oracle: the generator builds every pair equivalent.
			if v.Relation != core.RelEquivalent {
				return c, fmt.Errorf("%s/%s vs idl/%s: %s, want equivalent", side.universe, name, name, v.Relation)
			}
			c.steps += v.Steps
			var p *plan.Plan
			if err := span(spPlan, func() (err error) { p, err = plan.Build(v.Match); return err }); err != nil {
				return c, fmt.Errorf("plan %s/%s: %w", side.universe, name, err)
			}
			if err := span(spConvCompile, func() error { _, err := convert.CompileHooks(p, nil); return err }); err != nil {
				return c, fmt.Errorf("compile %s/%s: %w", side.universe, name, err)
			}
			if side.universe != "c" {
				continue
			}
			mtA, err := sess.Mtype("c", name)
			if err != nil {
				return c, err
			}
			mtB, err := sess.Mtype("idl", name)
			if err != nil {
				return c, err
			}
			err = span(spXcodeCompile, func() error { _, err := transcode.Compile(p, mtA, mtB); return err })
			switch {
			case err == nil:
				c.fused++
			case !errors.Is(err, transcode.ErrUnsupported):
				return c, fmt.Errorf("transcode %s: %w", name, err)
			}
			_ = span(spFingerprint, func() error { fingerprint.Of(mtA); fingerprint.Of(mtB); return nil })
		}
	}
	return c, nil
}
