package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/broker"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/mtype"
	"repro/internal/plan"
	"repro/internal/synth"
	"repro/internal/value"
	"repro/internal/wire"
)

// brokerMixed drives the compile layers as cache fills beside cache hits:
// two broker.Clients against an in-process broker holding a 500-class
// C+Java+IDL suite plus the hooked SlopeLine→SegLine pair, with the three
// LRUs scaled down to a fifth of the working set so the request path sees
// misses (compare + plan + compile), the tree tier and batch framing.
var brokerMixed = &workload{
	name:    "broker_mixed",
	mbPerS:  true,
	warmOps: 1500,
	// What a block costs depends on what the shared LRUs hold when it
	// starts, and that on how the two callers interleaved before it: its
	// fastest timing is the luckiest cache state, not the quietest machine,
	// and measured half as steady as the median one (README, "Spread and
	// bounds"). So a block counts at the median of its timings, and there
	// is no lap: a process runs on through the seed's stream, a block is
	// timed once in each of a run's processes, and twice the operations
	// are behind the rate.
	blockOps:      256, // 0.37 ms a call
	typicalBlocks: true,
	spanNames: []string{
		spBrokerConvert: "broker.convert", spBrokerBatch: "broker.batch",
		spBrokerCompare: "broker.compare", spBrokerTree: "broker.tree",
	},
	setup: setupBrokerMixed,
}

// The span names double as the op kinds of the seeded stream.
const (
	spBrokerConvert uint16 = iota
	spBrokerBatch
	spBrokerCompare
	spBrokerTree
)

const (
	brokerClasses  = 500
	brokerVariants = 4  // seeded payloads per convertible pair
	brokerBatch    = 16 // items per ConvertBatchRaw
	brokerStream   = 1 << 14
)

// brokerCaches is a fifth of the working set (333 convertible pairs, 500
// comparable ones); the daemon's defaults of 4096/1024/1024 would need
// more than 10 s of set-up to overflow.
var brokerCaches = broker.Options{VerdictCacheSize: 128, ConverterCacheSize: 64, TranscoderCacheSize: 64}

func slopeDecl() gateway.DeclConfig {
	return gateway.DeclConfig{Lang: "java", Source: "class SlopeLine { double slope; double intercept; }", Decl: "SlopeLine"}
}
func segDecl() gateway.DeclConfig {
	return gateway.DeclConfig{
		Lang:   "java",
		Source: "class Pt { double x; double y; }\nclass SegLine { Pt a; Pt b; }",
		Script: "annotate SegLine.a nonnull noalias\nannotate SegLine.b nonnull noalias\n",
		Decl:   "SegLine",
	}
}

// slopeToSeg is the programmer-supplied conversion (§6) the fuser must
// refuse: the line y = slope·x + intercept as its points at x = 0 and 1.
func slopeToSeg(v value.Value) (value.Value, error) {
	rec, ok := v.(value.Record)
	if !ok || len(rec.Fields) != 2 {
		return nil, fmt.Errorf("want a slope/intercept record, got %s", v)
	}
	m, c := rec.Fields[0].(value.Real).V, rec.Fields[1].(value.Real).V
	pt := func(x float64) value.Value { return value.NewRecord(value.Real{V: x}, value.Real{V: m*x + c}) }
	return value.NewRecord(pt(0), pt(1)), nil
}

func hookedSession() *core.Session {
	s := core.NewSession()
	s.RegisterSemantic("SlopeLine", "SegLine", "slope→seg", slopeToSeg)
	return s
}

// brokerOp is one entry of a caller's seeded op stream.
type brokerOp struct {
	kind    uint16
	pair    uint16 // data class (convert, batch) or class (compare) index
	variant uint8
}

// convertible is one C→IDL data-class pair with its seeded payloads and
// the bytes the oracle says they convert to.
type convertible struct {
	name     string
	payloads [brokerVariants][]byte
	want     [brokerVariants][]byte
	batch    [][]byte // brokerBatch payloads, cycling the variants
	bytes    int      // source bytes of the batch
}

// oracleConvert is the benchmark's reference conversion: decode, walk the
// plan with the interpreter, encode. It shares no code with transcode,
// stream or fuse, and not the closure compiler either.
func oracleConvert(mtA, mtB *mtype.Type, p *plan.Plan, payload []byte) ([]byte, error) {
	v, err := wire.Unmarshal(mtA, payload)
	if err != nil {
		return nil, err
	}
	out, err := convert.NewInterpreter(p).Convert(v)
	if err != nil {
		return nil, err
	}
	return wire.Marshal(mtB, out)
}

func setupBrokerMixed(e *env) (*instance, error) {
	// The suite is the same on every seed: one 500-class system has one
	// cost per miss and one payload size per pair, and a seed that redrew
	// them would move ops_per_s by a tenth and mb_per_s by a third. The
	// seed draws the payload values and the op streams.
	suite := synth.Generate(synth.VisualAgeScaled(brokerClasses))
	d := newDigest()

	var cl closers
	fail := func(err error) (*instance, error) { cl.close(); return nil, err }
	srv, err := newServer(&cl)
	if err != nil {
		return fail(err)
	}
	br := broker.New(hookedSession(), brokerCaches)
	broker.Serve(srv, br)
	var clients [callers]*broker.Client
	for i := range clients {
		if clients[i], err = broker.DialClient(srv.Addr()); err != nil {
			return fail(err)
		}
		c := clients[i]
		cl.add(func() { _ = c.Close() })
	}
	// oracle is the benchmark's own session over the same sources.
	oracle := core.NewSession()
	loads := []struct {
		universe string
		decl     gateway.DeclConfig
	}{
		{"c", gateway.DeclConfig{Lang: "c", Source: suite.CSource, Script: suite.CScript}},
		{"java", gateway.DeclConfig{Lang: "java", Source: suite.JavaSource, Script: suite.JavaScript}},
		{"idl", gateway.DeclConfig{Lang: "idl", Source: suite.IDLSource}},
		{"slope", slopeDecl()},
		{"seg", segDecl()},
	}
	for _, l := range loads {
		d.str(l.decl.Source)
		if _, _, err := clients[0].Load(l.universe, l.decl.Lang, "ilp32", l.decl.Source, l.decl.Script); err != nil {
			return fail(fmt.Errorf("load %s: %w", l.universe, err))
		}
		if l.universe == "slope" || l.universe == "seg" {
			continue // the hooked pair's oracle is hand-written
		}
		if err := loadDecl(oracle, l.universe, l.decl); err != nil {
			return fail(fmt.Errorf("oracle load %s: %w", l.universe, err))
		}
	}

	r := newRNG(e.seed, "broker_mixed/values")
	pairs := make([]*convertible, len(suite.DataClassNames))
	var hotA *mtype.Type // the codec rungs' type: the first data class's
	for i, name := range suite.DataClassNames {
		v, err := oracle.Compare("c", name, "idl", name)
		if err != nil {
			return fail(err)
		}
		if v.Relation != core.RelEquivalent {
			return fail(fmt.Errorf("c/%s vs idl/%s: %s, want equivalent", name, name, v.Relation))
		}
		p, err := plan.Build(v.Match)
		if err != nil {
			return fail(err)
		}
		mtA, _ := oracle.Mtype("c", name) // lowered by the Compare above
		mtB, _ := oracle.Mtype("idl", name)
		cv := &convertible{name: name}
		for k := range cv.payloads {
			val, err := genValue(mtA, r)
			if err != nil {
				return fail(fmt.Errorf("generate %s: %w", name, err))
			}
			if cv.payloads[k], err = wire.Marshal(mtA, val); err != nil {
				return fail(fmt.Errorf("marshal %s: %w", name, err))
			}
			if cv.want[k], err = oracleConvert(mtA, mtB, p, cv.payloads[k]); err != nil {
				return fail(fmt.Errorf("oracle %s: %w", name, err))
			}
			d.bytes(cv.payloads[k])
		}
		for k := 0; k < brokerBatch; k++ {
			cv.batch = append(cv.batch, cv.payloads[k%brokerVariants])
			cv.bytes += len(cv.payloads[k%brokerVariants])
		}
		pairs[i] = cv
		if i == 0 {
			hotA = mtA
		}
	}
	classes := append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...)
	slope, err := testdataHex("slopeline.cdr.hex")
	if err != nil {
		return fail(err)
	}
	seg, err := testdataHex("segline.cdr.hex")
	if err != nil {
		return fail(err)
	}

	// Per-caller op streams: 55 % convert, 20 % batch ×16, 15 % compare,
	// 10 % convert on the hooked pair; pairs drawn Zipf(1.0). Popularity
	// rank r is pair r·101 mod n (101 is coprime to 333 and 500): a fixed
	// order, for the reason above, that is not the declaration order.
	convZipf, cmpZipf := newZipf(len(pairs), 1.0), newZipf(len(classes), 1.0)
	var streams [callers][]brokerOp
	for c := range streams {
		sr := newRNG(e.seed, fmt.Sprintf("broker_mixed/ops/%d", c))
		streams[c] = make([]brokerOp, brokerStream)
		for i := range streams[c] {
			op := brokerOp{variant: uint8(sr.intn(brokerVariants))}
			switch u := sr.intn(100); {
			case u < 55:
				op.kind, op.pair = spBrokerConvert, uint16(convZipf.draw(sr)*101%len(pairs))
			case u < 75:
				op.kind, op.pair = spBrokerBatch, uint16(convZipf.draw(sr)*101%len(pairs))
			case u < 90:
				op.kind, op.pair = spBrokerCompare, uint16(cmpZipf.draw(sr)*101%len(classes))
			default:
				op.kind = spBrokerTree
			}
			streams[c][i] = op
			d.ints(int(op.kind), int(op.pair), int(op.variant))
		}
	}

	ctx := context.Background()
	op := func(c, i int) (int, error) {
		o := streams[c][i%brokerStream]
		cli := clients[c]
		tr := e.tr.Load()
		var id int32
		if tr != nil {
			id = tr.begin(o.kind, 0, 0)
		}
		defer tr.endIf(id)
		switch o.kind {
		case spBrokerConvert:
			cv := pairs[o.pair]
			got, err := cli.ConvertRawContext(ctx, "c", cv.name, "idl", cv.name, cv.payloads[o.variant])
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(got, cv.want[o.variant]) {
				return 0, fmt.Errorf("convert %s: got %x, oracle says %x", cv.name, got, cv.want[o.variant])
			}
			return len(cv.payloads[o.variant]), nil
		case spBrokerBatch:
			cv := pairs[o.pair]
			got, err := cli.ConvertBatchRawContext(ctx, "c", cv.name, "idl", cv.name, cv.batch)
			if err != nil {
				return 0, err
			}
			if len(got) != brokerBatch {
				return 0, fmt.Errorf("batch %s: %d items back, sent %d", cv.name, len(got), brokerBatch)
			}
			for k, item := range got {
				if !bytes.Equal(item, cv.want[k%brokerVariants]) {
					return 0, fmt.Errorf("batch %s item %d: got %x, oracle says %x", cv.name, k, item, cv.want[k%brokerVariants])
				}
			}
			return cv.bytes, nil
		case spBrokerCompare:
			name := classes[o.pair]
			v, err := cli.CompareContext(ctx, "java", name, "idl", name)
			if err != nil {
				return 0, err
			}
			if v.Relation != core.RelEquivalent {
				return 0, fmt.Errorf("compare %s: %s, want equivalent", name, v.Relation)
			}
			return 0, nil
		default:
			got, err := cli.ConvertRawContext(ctx, "slope", "SlopeLine", "seg", "SegLine", slope)
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(got, seg) {
				return 0, fmt.Errorf("hooked pair: got %x, testdata has %x", got, seg)
			}
			return len(slope), nil
		}
	}

	inst := &instance{op: op, digest: d.sum(), close: cl.close}
	inst.window = func() func(metricSet) {
		s0 := br.Stats()
		return func(m metricSet) {
			s1 := br.Stats()
			ratio := func(name string, hits, misses int64) {
				if n := hits + misses; n > 0 {
					m.set(name, float64(hits)/float64(n), int(n))
				}
			}
			ratio("broker.verdict_hit_ratio", s1.CompareHits-s0.CompareHits, s1.CompareMisses-s0.CompareMisses)
			ratio("broker.converter_hit_ratio", s1.ConvertHits-s0.ConvertHits, s1.ConvertMisses-s0.ConvertMisses)
			ratio("broker.xcode_hit_ratio", s1.XcodeHits-s0.XcodeHits, s1.XcodeMisses-s0.XcodeMisses)
			ratio("broker.fast_share", s1.FastConverts-s0.FastConverts, s1.TreeConverts-s0.TreeConverts)
			m.set("broker.evictions", float64(s1.Evictions-s0.Evictions), 0)
			m.set("broker.compare_run_ms", float64((s1.CompareTotal-s0.CompareTotal).Nanoseconds())/1e6, int(s1.CompareRuns-s0.CompareRuns))
			m.set("broker.compile_ms", float64((s1.CompileTotal-s0.CompileTotal).Nanoseconds())/1e6,
				int(s1.Compiles-s0.Compiles+s1.XcodeCompiles-s0.XcodeCompiles))
		}
	}
	inst.layers = func(lt layerTimes, tr *tracer, m metricSet) {
		// Every span is a root here, so the medians are per call, by kind.
		byKind := map[uint16][]float64{}
		for _, s := range tr.recorded() {
			if s.end != 0 {
				byKind[s.name] = append(byKind[s.name], float64(s.end-s.start))
			}
		}
		for kind, metric := range map[uint16]string{
			spBrokerConvert: "broker.convert_us", spBrokerBatch: "broker.batch_us",
			spBrokerCompare: "broker.compare_us", spBrokerTree: "broker.tree_us",
		} {
			m.set(metric, medianF(byKind[kind])/1e3, len(byKind[kind]))
		}
		m.set("broker.call_p99_us", tail(lt.lat, 0.99)/1e3, len(lt.lat))
	}
	inst.ladder = func(budget time.Duration, m metricSet) error {
		l := ladder{per: budget / 6, m: m}
		timed := func(name string, fn func() error) error {
			_, _, err := l.time(name, fn)
			return err
		}
		// The hit path with no network and no admin codec: what
		// broker.convert_us pays above this is orb plus the request header.
		cv := pairs[0]
		if err := timed("broker.inproc_convert_ns", func() error {
			_, err := br.ConvertRaw("c", cv.name, "idl", cv.name, cv.payloads[0])
			return err
		}); err != nil {
			return err
		}
		hooked := hookedSession()
		tree, err := compilePair(hooked, slopeDecl(), segDecl())
		if err != nil {
			return err
		}
		_, conv, err := hooked.BuildConverter(tree.verdict)
		if err != nil {
			return err
		}
		if err := timed("convert.tree_ns", func() error {
			_, err := convert.TranscodeTree(nil, tree.mtA, tree.mtB, conv, slope)
			return err
		}); err != nil {
			return err
		}
		val, err := wire.Unmarshal(hotA, cv.payloads[0])
		if err != nil {
			return err
		}
		if err := timed("wire.marshal_ns", func() error { _, err := wire.Marshal(hotA, val); return err }); err != nil {
			return err
		}
		if err := timed("wire.unmarshal_ns", func() error { _, err := wire.Unmarshal(hotA, cv.payloads[0]); return err }); err != nil {
			return err
		}
		// One orb hop on the broker's own server, nothing behind it.
		srv.Register("bench.echo", func(_ context.Context, _ uint32, body []byte) ([]byte, error) { return body, nil })
		var lcl closers
		defer lcl.close()
		direct, err := dial(&lcl, srv.Addr())
		if err != nil {
			return err
		}
		_, allocs, err := l.time("orb.call_ns", func() error { _, err := direct.InvokeContext(ctx, "bench.echo", 1, cv.payloads[0]); return err })
		m.set("orb.call_allocs", allocs, 0)
		return err
	}
	return inst, nil
}
