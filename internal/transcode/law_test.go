package transcode_test

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/compare"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/mtype"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/synth"
	"repro/internal/transcode"
	"repro/internal/value"
	"repro/internal/wire"
)

// lawValue builds a seeded value of t: integers inside the declared range
// and near zero, reals exact in binary32, short lists, every alternative.
func lawValue(t *mtype.Type, r *rand.Rand, depth int) value.Value {
	if elem, ok := mtype.ListElem(t); ok {
		vs := make([]value.Value, r.Intn(4))
		for i := range vs {
			vs[i] = lawValue(elem, r, depth+1)
		}
		return value.FromSlice(vs)
	}
	u := wire.Unfold(t)
	switch u.Kind() {
	case mtype.KindInteger:
		lo, hi := u.IntegerRange()
		v := big.NewInt(r.Int63n(1<<16) - 1<<15)
		if v.Cmp(lo) < 0 || v.Cmp(hi) > 0 {
			v.Mod(v.Abs(v), new(big.Int).Add(new(big.Int).Sub(hi, lo), big.NewInt(1))).Add(v, lo)
		}
		return value.Int{V: v}
	case mtype.KindReal:
		return value.Real{V: float64(r.Intn(4096)-2048) / 4}
	case mtype.KindCharacter:
		return value.Char{R: rune('a' + r.Intn(26))}
	case mtype.KindRecord:
		fs := make([]value.Value, len(u.Fields()))
		for i, f := range u.Fields() {
			fs[i] = lawValue(f.Type, r, depth+1)
		}
		return value.Record{Fields: fs}
	case mtype.KindChoice:
		alt := 0
		if depth < 6 {
			alt = r.Intn(len(u.Alts()))
		}
		return value.Choice{Alt: alt, V: lawValue(u.Alts()[alt].Type, r, depth+1)}
	case mtype.KindPort:
		return value.Port{Ref: "ref-" + string(rune('a'+r.Intn(26)))}
	}
	return value.Unit{}
}

// streamed pushes src through the streaming engine at seeded splits.
func streamed(xc *transcode.Transcoder, src []byte, r *rand.Rand) (out []byte, buffered bool, err error) {
	eng := stream.New(xc, stream.Options{})
	defer eng.Release()
	buffered = eng.Buffered()
	for off := 0; off < len(src); {
		n := min(1+r.Intn(23), len(src)-off)
		if err := eng.Push(src[off : off+n]); err != nil {
			return nil, buffered, err
		}
		out = append(out, eng.Take()...)
		off += n
	}
	tail, err := eng.Finish()
	return append(out, tail...), buffered, err
}

// rungs holds one pair's fused program and tree rung to ref, the plan
// interpreter between a decode and an encode — one-shot, and through the
// streaming engine at seeded splits — on seeded valid payloads of a and
// on single-byte mutations of them: same bytes, same accept or reject.
func rungs(t *testing.T, r *rand.Rand, what string, a, b *mtype.Type, fused, tree *transcode.Transcoder, ref convert.Converter) (inputs, rejected int) {
	if tree.SeqStreamable() || tree.Refusal() == "" || fused.Refusal() != "" {
		t.Fatalf("%s: rungs mislabelled: tree streamable=%v refusal=%q, fused refusal=%q", what, tree.SeqStreamable(), tree.Refusal(), fused.Refusal())
	}
	check := func(src []byte) {
		inputs++
		var want []byte
		val, wantErr := wire.Unmarshal(a, src)
		if wantErr == nil {
			if val, wantErr = ref.Convert(val); wantErr == nil {
				want, wantErr = wire.Marshal(b, val)
			}
		}
		if wantErr != nil {
			rejected++
		}
		agree := func(how string, got []byte, err error) {
			if (err == nil) != (wantErr == nil) || (err == nil && !bytes.Equal(got, want)) {
				t.Fatalf("%s, %s on % x:\n got  % x, %v\n want % x, %v", what, how, src, got, err, want, wantErr)
			}
		}
		for _, rung := range []struct {
			name string
			xc   *transcode.Transcoder
		}{{"fused", fused}, {"tree", tree}} {
			got, err := rung.xc.Transcode(src)
			agree(rung.name+" one-shot", got, err)
			got, buffered, err := streamed(rung.xc, src, r)
			agree(rung.name+" streamed", got, err)
			if buffered == rung.xc.SeqStreamable() {
				t.Fatalf("%s: %s rung ran with buffered=%v", what, rung.name, buffered)
			}
		}
	}
	for k := 0; k < 3; k++ {
		src, err := wire.Marshal(a, lawValue(a, r, 0))
		if err != nil {
			t.Fatalf("%s: test bug: seeded value does not marshal: %v", what, err)
		}
		check(src)
		for m := 0; m < 6; m++ {
			mut := append([]byte(nil), src...)
			i := r.Intn(len(mut))
			if _, seq := mtype.ListElem(a); seq && i < 4 {
				// Only the low byte of the root's count: one bit higher up
				// and every decoder clears megabytes before it reads short.
				i = 0
			}
			mut[i] ^= byte(1 + r.Intn(255))
			check(mut)
		}
	}
	return inputs, rejected
}

// TestRungsAgree is the cross-tier law on the wire: whichever rung of the
// ladder holds a pair, the payload it answers with is the same. For every
// same-named pair of declarations across the C, Java and IDL sides of the
// synthesized suites that fuses, in both directions, the tree rung is
// built beside the fused program — and again for sequences of the pair,
// whose fused program streams chunk-at-a-time — and rungs holds both to
// the interpreter. The closure compiler is under test here (it is the
// tree rung), so the reference must not be built from it.
func TestRungsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for _, u := range []struct {
		name string
		cfg  synth.Config
	}{{"miniature", synth.VisualAgeMiniature()}, {"notes", synth.NotesAPI()}, {"collab", synth.Collab()}} {
		suite := synth.Generate(u.cfg)
		sess := core.NewSession()
		for _, l := range []struct{ universe, src, script string }{
			{"c", suite.CSource, suite.CScript}, {"java", suite.JavaSource, suite.JavaScript}, {"idl", suite.IDLSource, ""},
		} {
			if err := sess.LoadSource(l.universe, l.universe, "ilp32", l.src); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Annotate(l.universe, l.script); err != nil {
				t.Fatal(err)
			}
		}
		fused, streamable, inputs, rejected := 0, 0, 0, 0
		for _, name := range append(append([]string(nil), suite.DataClassNames...), suite.ServiceClassNames...) {
			for _, side := range [][2]string{{"c", "idl"}, {"idl", "c"}, {"java", "idl"}, {"idl", "java"}, {"c", "java"}, {"java", "c"}} {
				what := u.name + " " + name + " " + side[0] + "→" + side[1]
				v, err := sess.Compare(side[0], name, side[1], name)
				if err != nil || (v.Relation != core.RelEquivalent && v.Relation != core.RelSubtypeAB) {
					continue // C has no service classes; not every pair relates
				}
				xc, err := sess.BuildTranscoder(v)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if xc.Refusal() != "" {
					continue
				}
				fused++
				p, conv, err := sess.BuildConverter(v)
				if err != nil {
					t.Fatal(err)
				}
				a, b := v.Match.A, v.Match.B
				n, rej := rungs(t, r, what, a, b, xc, transcode.Tree(a, b, conv, "law"), convert.NewInterpreter(p))
				inputs, rejected = inputs+n, rejected+rej

				// The same pair as sequence elements, assembled by hand.
				la, lb := mtype.NewList(a), mtype.NewList(b)
				c := compare.NewComparer(compare.DefaultRules())
				m, ok := c.Equivalent(la, lb)
				if !ok {
					m, ok = c.Subtype(la, lb)
				}
				if !ok {
					t.Fatalf("%s: sequences of a related pair do not relate", what)
				}
				if p, err = plan.Build(m); err != nil {
					t.Fatal(err)
				}
				if xc, err = transcode.Compile(p, la, lb); err != nil {
					t.Fatalf("%s: sequence of a fused pair: %v", what, err)
				}
				if conv, err = convert.Compile(p); err != nil {
					t.Fatal(err)
				}
				if xc.SeqStreamable() {
					streamable++
				}
				n, rej = rungs(t, r, what+" (sequence)", la, lb, xc, transcode.Tree(la, lb, conv, "law"), convert.NewInterpreter(p))
				inputs, rejected = inputs+n, rejected+rej
			}
		}
		t.Logf("%s: %d fused pairs (%d stream as sequences), %d inputs, %d rejected by every rung", u.name, fused, streamable, inputs, rejected)
		if fused == 0 || streamable == 0 || rejected == 0 || rejected == inputs {
			t.Errorf("%s: the law tested nothing: %d fused pairs, %d streamable, %d of %d inputs rejected", u.name, fused, streamable, rejected, inputs)
		}
	}
}
