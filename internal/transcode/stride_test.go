package transcode

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"strings"
	"testing"

	"repro/internal/compare"
	"repro/internal/convert"
	"repro/internal/mtype"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/wire"
)

// The stride suite: fixed-layout record pairs — generated and hand
// picked — driven through SeqStep at every source residue × destination
// residue × split point of a three-record window, and through the
// one-shot list, record and optional-in-list programs at every
// truncation. Each result is checked live against the tree engine
// (wire.Unmarshal → convert.NewInterpreter → wire.Marshal) and folded
// into a per-fixture hash that testdata/stride_golden.txt pins. The
// golden file was written at the commit before the stride kernel
// existed, by the closure program the kernel replaced: bytes, cursor,
// element count and error text must repeat exactly.

var updateStrideGolden = flag.Bool("update-stride-golden", false,
	"rewrite testdata/stride_golden.txt from this build's output")

const strideGoldenPath = "testdata/stride_golden.txt"

type stridePair struct {
	name string
	a, b *mtype.Type // the element pair: records, or bare primitives
	sub  bool
}

func u8() *mtype.Type  { return mtype.NewIntegerBits(8, false) }
func u16() *mtype.Type { return mtype.NewIntegerBits(16, false) }
func u32() *mtype.Type { return mtype.NewIntegerBits(32, false) }
func ucs2() *mtype.Type {
	return mtype.NewCharacter(mtype.RepUCS2)
}
func ranged(lo, hi int64) *mtype.Type { return mtype.NewInteger(big.NewInt(lo), big.NewInt(hi)) }

// bulkRecPair is the relay_bulk benchmark's element pair: eight fields,
// long/double alternating on one side and double/long on the other.
func bulkRecPair() (a, b *mtype.Type) {
	a = mtype.RecordOf(i32(), f64t(), i32(), f64t(), i32(), f64t(), i32(), f64t())
	b = mtype.RecordOf(f64t(), i32(), f64t(), i32(), f64t(), i32(), f64t(), i32())
	return a, b
}

// rangedRecPair carries sub-range integers on both a kept and a
// permuted position, so a forged record fails validation mid-window.
func rangedRecPair() (a, b *mtype.Type) {
	a = mtype.RecordOf(i32(), ranged(0, 5), f64t(), ranged(-100, 100))
	b = mtype.RecordOf(f64t(), ranged(-1000, 1000), ranged(0, 250), i32())
	return a, b
}

// float32RecPair keeps one binary32 in place (NaN canonicalisation on an
// identity leaf) and widens another.
func float32RecPair() (a, b *mtype.Type) {
	a = mtype.RecordOf(f32(), i16(), f32())
	b = mtype.RecordOf(f64t(), f32(), i16())
	return a, b
}

type lcg uint64

func (s *lcg) next() uint64 {
	*s = *s*6364136223846793005 + 1442695040888963407
	return uint64(*s >> 33)
}
func (s *lcg) intn(n int) int { return int(s.next() % uint64(n)) }

// strideLeaf returns a source leaf type and the destination types it may
// become: itself first, then its widenings.
func strideLeaf(kind int) (a *mtype.Type, bs []*mtype.Type) {
	switch kind {
	case 0:
		return i8(), []*mtype.Type{i8(), i16(), i32(), i64t()}
	case 1:
		return i16(), []*mtype.Type{i16(), i32(), i64t()}
	case 2:
		return i32(), []*mtype.Type{i32(), i64t()}
	case 3:
		return i64t(), []*mtype.Type{i64t()}
	case 4:
		return u8(), []*mtype.Type{u8(), u16(), i16(), u32()}
	case 5:
		return u16(), []*mtype.Type{u16(), u32(), i32()}
	case 6:
		return latin1(), []*mtype.Type{latin1(), ucs2(), unicode()}
	case 7:
		return f32(), []*mtype.Type{f32(), f64t()}
	case 8:
		return f64t(), []*mtype.Type{f64t()}
	case 9:
		return ranged(0, 5), []*mtype.Type{ranged(0, 5), ranged(0, 250), i32()}
	case 10:
		return ranged(-100, 100), []*mtype.Type{ranged(-100, 100), i16()}
	case 11:
		return ranged(0, 1000), []*mtype.Type{ranged(0, 1000), ranged(0, 70000)}
	default:
		return mtype.Unit(), []*mtype.Type{mtype.Unit()}
	}
}

const strideLeafKinds = 13

// nestRecord groups runs of consecutive leaves into sub-records, so the
// two sides of a pair associate differently.
func nestRecord(ts []*mtype.Type, r *lcg, depth int) *mtype.Type {
	var fields []*mtype.Type
	for i := 0; i < len(ts); {
		if rest := len(ts) - i; depth < 2 && rest >= 2 && r.intn(3) == 0 {
			m := 2 + r.intn(rest-1)
			fields = append(fields, nestRecord(ts[i:i+m], r, depth+1))
			i += m
			continue
		}
		fields = append(fields, ts[i])
		i++
	}
	return mtype.RecordOf(fields...)
}

func genStridePair(seed uint64) stridePair {
	r := lcg(seed*2654435761 + 1)
	n := 1 + r.intn(8)
	as := make([]*mtype.Type, n)
	bs := make([]*mtype.Type, n)
	sub := false
	for i := range as {
		a, opts := strideLeaf(r.intn(strideLeafKinds))
		pick := 0
		if r.intn(3) == 0 {
			pick = r.intn(len(opts))
		}
		as[i], bs[i] = a, opts[pick]
		sub = sub || pick != 0
	}
	for i := n - 1; i > 0; i-- { // permute the destination
		j := r.intn(i + 1)
		bs[i], bs[j] = bs[j], bs[i]
	}
	return stridePair{
		name: fmt.Sprintf("gen-%02d", seed),
		a:    nestRecord(as, &r, 0),
		b:    nestRecord(bs, &r, 0),
		sub:  sub,
	}
}

func stridePairs() []stridePair {
	bulkA, bulkB := bulkRecPair()
	rngA, rngB := rangedRecPair()
	f32A, f32B := float32RecPair()
	holes := mtype.RecordOf(i32(), f64t())
	mixed := mtype.RecordOf(i8(), i64t(), f32(), f64t())
	dense := mtype.RecordOf(i32(), i32())
	wide, narrow := i64t(), latin1()
	ps := []stridePair{
		{name: "relay-bulk-rec", a: bulkA, b: bulkB},
		{name: "ranged", a: rngA, b: rngB, sub: true},
		{name: "binary32", a: f32A, b: f32B, sub: true},
		{name: "identity-holes", a: holes, b: holes},
		{name: "identity-mixed", a: mixed, b: mixed},
		{name: "identity-dense", a: dense, b: dense},
		{name: "identity-ranged", a: rngA, b: rngA},
		{name: "equal-holes", a: mtype.RecordOf(i32(), f64t()), b: mtype.RecordOf(i32(), f64t())},
		{name: "equal-dense", a: mtype.RecordOf(i32(), i32()), b: mtype.RecordOf(i32(), i32())},
		{name: "flatten", a: mtype.RecordOf(mtype.RecordOf(i32(), i8()), f64t()),
			b: mtype.RecordOf(i8(), mtype.RecordOf(f64t(), i32()))},
		{name: "units", a: mtype.RecordOf(mtype.Unit(), i16(), mtype.Unit()),
			b: mtype.RecordOf(i16(), mtype.Unit(), mtype.Unit())},
		{name: "widen-all", a: mtype.RecordOf(i8(), i16(), i32(), latin1(), f32(), u8()),
			b: mtype.RecordOf(f64t(), u16(), unicode(), i64t(), i32(), i16()), sub: true},
		{name: "single-i64", a: mtype.RecordOf(i64t()), b: mtype.RecordOf(i64t())},
		// Bare primitives as elements: scalar arrays and strings.
		{name: "prim-i64", a: wide, b: wide},
		{name: "prim-i32", a: i32(), b: i32()},
		{name: "prim-f64", a: f64t(), b: f64t()},
		{name: "prim-f32", a: f32(), b: f32()},
		{name: "prim-ranged", a: ranged(0, 1000), b: ranged(0, 1000)},
		{name: "prim-latin1", a: narrow, b: narrow},
		{name: "prim-widen-int", a: i16(), b: i64t(), sub: true},
		{name: "prim-widen-char", a: latin1(), b: unicode(), sub: true},
	}
	for seed := uint64(1); seed <= 24; seed++ {
		ps = append(ps, genStridePair(seed))
	}
	return ps
}

// strideValue draws a valid value of a fixed-layout type.
func strideValue(t *mtype.Type, r *lcg) value.Value {
	ut := wire.Unfold(t)
	switch ut.Kind() {
	case mtype.KindInteger:
		lo, hi := ut.IntegerRange()
		span := new(big.Int).Sub(hi, lo)
		span.Add(span, big.NewInt(1))
		off := new(big.Int).SetUint64(r.next()<<31 ^ r.next())
		off.Mod(off, span)
		return value.Int{V: off.Add(off, lo)}
	case mtype.KindCharacter:
		return value.Char{R: rune('A' + r.intn(26))}
	case mtype.KindReal:
		return value.Real{V: float64(int64(r.intn(4001))-2000) / 8}
	case mtype.KindUnit:
		return value.Unit{}
	case mtype.KindRecord:
		fs := ut.Fields()
		vs := make([]value.Value, len(fs))
		for i, f := range fs {
			vs[i] = strideValue(f.Type, r)
		}
		return value.NewRecord(vs...)
	}
	panic("strideValue: not a fixed-layout type: " + ut.Kind().String())
}

// strideShape is the element pair under one wrapper, compiled for both
// engines.
type strideShape struct {
	a, b *mtype.Type
	xc   *Transcoder
	conv convert.Converter // tree engine
}

type strideFixture struct {
	stridePair
	shapes map[string]strideShape // "record", "list", "opt-list"
}

func matchPair(a, b *mtype.Type, sub bool) (*plan.Plan, error) {
	c := compare.NewComparer(compare.DefaultRules())
	var m *compare.Match
	var ok bool
	if sub {
		m, ok = c.Subtype(a, b)
	} else {
		m, ok = c.Equivalent(a, b)
	}
	if !ok {
		return nil, fmt.Errorf("no match:\n%s", c.Explain(a, b, compare.ModeEqual))
	}
	return plan.Build(m)
}

// buildStride compiles the element pair under its three wrappers: the
// bare record, a sequence of it, and a sequence of optionals of it (so
// the record program runs at alternating residues behind a discriminant).
func buildStride(p stridePair) (*strideFixture, error) {
	fx := &strideFixture{stridePair: p, shapes: map[string]strideShape{}}
	wraps := map[string]func(*mtype.Type) *mtype.Type{
		"record":   func(t *mtype.Type) *mtype.Type { return t },
		"list":     mtype.NewList,
		"opt-list": func(t *mtype.Type) *mtype.Type { return mtype.NewList(mtype.NewOptional(t)) },
	}
	for shape, wrap := range wraps {
		// Identity fixtures share one node on both sides; keep that
		// under the wrapper so the plan root stays DecSame.
		a := wrap(p.a)
		b := a
		if p.a != p.b {
			b = wrap(p.b)
		}
		pl, err := matchPair(a, b, p.sub)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", p.name, shape, err)
		}
		xc, err := Compile(pl, a, b)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: compile: %w", p.name, shape, err)
		}
		fx.shapes[shape] = strideShape{a: a, b: b, xc: xc, conv: convert.NewInterpreter(pl)}
	}
	if !fx.shapes["list"].xc.SeqStreamable() {
		return nil, fmt.Errorf("%s: list pair is not streamable", p.name)
	}
	return fx, nil
}

// padded returns record(i8 × pad, t × n): marshalled, its bytes from
// pad on are n values of t laid out exactly as sequence elements that
// start at residue pad.
func padded(pad int, t *mtype.Type, n int) *mtype.Type {
	fs := make([]*mtype.Type, 0, pad+n)
	for i := 0; i < pad; i++ {
		fs = append(fs, i8())
	}
	for i := 0; i < n; i++ {
		fs = append(fs, t)
	}
	return mtype.RecordOf(fs...)
}

func paddedValue(pad int, vs []value.Value) value.Value {
	fs := make([]value.Value, 0, pad+len(vs))
	for i := 0; i < pad; i++ {
		fs = append(fs, value.NewInt(int64(i+1)))
	}
	return value.NewRecord(append(fs, vs...)...)
}

const strideRecords = 3

// strideWindows returns the valid window for three seeded records at
// source residue rs, variants with record k overwritten by noise (which
// trips any range check in it and feeds NaN and sign patterns to the
// rest), and the byte offset at which each record ends.
func (fx *strideFixture) strideWindows(t testing.TB, rs int, r *lcg) (wins [][]byte, ends [strideRecords + 1]int) {
	vals := make([]value.Value, strideRecords)
	for i := range vals {
		vals[i] = strideValue(fx.a, r)
	}
	for n := 0; n <= strideRecords; n++ {
		b, err := wire.Marshal(padded(rs, fx.a, n), paddedValue(rs, vals[:n]))
		if err != nil {
			t.Fatalf("%s: marshal window: %v", fx.name, err)
		}
		ends[n] = len(b)
		if n == strideRecords {
			wins = append(wins, b)
		}
	}
	for k := 0; k < strideRecords; k++ {
		w := append([]byte(nil), wins[0]...)
		for i := ends[k]; i < ends[k+1]; i++ {
			w[i] = byte(r.next())
		}
		wins = append(wins, w)
	}
	noise := append([]byte(nil), wins[0]...)
	for i := rs; i < len(noise); i++ {
		noise[i] = byte(r.next())
	}
	return append(wins, noise), ends
}

// treeRecords is the tree engine's verdict on a window: how many leading
// records decode, and the destination image of exactly those, laid out
// from destination residue rd.
func (fx *strideFixture) treeRecords(t testing.TB, win []byte, rs, rd int, ends [strideRecords + 1]int) (int, []byte) {
	for n := strideRecords; ; n-- {
		v, err := wire.Unmarshal(padded(rs, fx.a, n), win[:ends[n]])
		if err != nil {
			continue // n == 0 always decodes: it is pad bytes only
		}
		outs := make([]value.Value, n)
		for i := range outs {
			o, err := fx.shapes["record"].conv.Convert(v.(value.Record).Fields[rs+i])
			if err != nil {
				t.Fatalf("%s: tree convert: %v", fx.name, err)
			}
			outs[i] = o
		}
		img, err := wire.Marshal(padded(rd, fx.b, n), paddedValue(rd, outs))
		if err != nil {
			t.Fatalf("%s: tree marshal: %v", fx.name, err)
		}
		return n, img
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// seqStepMatrix drives one list transcoder's SeqStep over every residue
// pair, window and cut, checks it against the tree engine, and writes
// every result to h.
func (fx *strideFixture) seqStepMatrix(t testing.TB, xc *Transcoder, h io.Writer) {
	r := lcg(len(fx.name))
	for rs := 0; rs < 8; rs++ {
		wins, ends := fx.strideWindows(t, rs, &r)
		for rd := 0; rd < 8; rd++ {
			for wi, win := range wins {
				good, img := fx.treeRecords(t, win, rs, rd, ends)
				pre := img[:rd:rd]
				at := fmt.Sprintf("%s rs=%d rd=%d win=%d", fx.name, rs, rd, wi)

				out, off, done, err := xc.SeqStep(pre, win, rs, strideRecords)
				fmt.Fprintf(h, "%s full: %x off=%d done=%d err=%s\n", at, out, off, done, errText(err))
				if done != good || off != ends[good] || !bytes.Equal(out, img) || (err == nil) != (good == strideRecords) {
					t.Fatalf("%s: SeqStep = (% x, off %d, done %d, %v)\ntree: %d records ending at %d, % x",
						at, out, off, done, err, good, ends[good], img)
				}
				fullErr := errText(err)

				for cut := rs; cut < len(win); cut++ {
					out, off, done, err := xc.SeqStep(pre, win[:cut], rs, strideRecords)
					fmt.Fprintf(h, "%d: %x off=%d done=%d err=%s\n", cut, out, off, done, errText(err))
					if done > good || off != ends[done] || !bytes.HasPrefix(img, out) {
						t.Fatalf("%s cut=%d: SeqStep = (% x, off %d, done %d, %v), tree accepts %d records: % x",
							at, cut, out, off, done, err, good, img)
					}
					if err != nil {
						// A forged field inside the cut: the failure is
						// final and lands on the tree's failing record.
						if done != good {
							t.Fatalf("%s cut=%d: error %v after %d records, tree fails record %d", at, cut, err, done, good)
						}
						continue
					}
					if want := completeRecords(ends, cut, good); done != want {
						t.Fatalf("%s cut=%d: %d records done, %d complete and valid in the cut", at, cut, done, want)
					}
					// Resume with the rest of the window: the split must
					// be invisible.
					out2, off2, done2, err2 := xc.SeqStep(out, win, off, strideRecords-done)
					if done+done2 != good || off2 != ends[good] || !bytes.Equal(out2, img) || errText(err2) != fullErr {
						t.Fatalf("%s cut=%d: resume = (% x, off %d, done %d+%d, %v), unsplit = (% x, done %d, %s)",
							at, cut, out2, off2, done, done2, err2, img, good, fullErr)
					}
				}
			}
		}
	}
}

func completeRecords(ends [strideRecords + 1]int, cut, good int) int {
	n := 0
	for n < good && ends[n+1] <= cut {
		n++
	}
	return n
}

// oneShotMatrix runs a one-shot program over a payload's every
// truncation and one trailing byte, holding it to the tree engine.
func (fx *strideFixture) oneShotMatrix(t testing.TB, shape string, payload []byte, h io.Writer) {
	sh := fx.shapes[shape]
	try := func(label string, src []byte) {
		want, wantErr := convert.TranscodeTree(nil, sh.a, sh.b, sh.conv, src)
		got, err := sh.xc.Transcode(src)
		fmt.Fprintf(h, "%s %s %s: %x err=%s\n", fx.name, shape, label, got, errText(err))
		if (err == nil) != (wantErr == nil) || (err == nil && !bytes.Equal(got, want)) {
			t.Fatalf("%s %s %s: transcode = (% x, %v), tree = (% x, %v)\nsrc % x",
				fx.name, shape, label, got, err, want, wantErr, src)
		}
	}
	for cut := 0; cut <= len(payload); cut++ {
		try(fmt.Sprint(cut), payload[:cut])
	}
	try("trailing", append(append([]byte(nil), payload...), 0xcc))
}

func (fx *strideFixture) oneShots(t testing.TB, h io.Writer) {
	r := lcg(7 + len(fx.name))
	vals := make([]value.Value, strideRecords)
	opts := make([]value.Value, strideRecords)
	for i := range vals {
		vals[i] = strideValue(fx.a, &r)
		opts[i] = value.Some(vals[i])
	}
	opts[1] = value.Null()
	payloads := map[string][]value.Value{"list": vals, "opt-list": opts}
	for _, shape := range []string{"record", "list", "opt-list"} {
		v := vals[0]
		if vs, ok := payloads[shape]; ok {
			v = value.FromSlice(vs)
		}
		valid, err := wire.Marshal(fx.shapes[shape].a, v)
		if err != nil {
			t.Fatalf("%s %s: marshal: %v", fx.name, shape, err)
		}
		fx.oneShotMatrix(t, shape, valid, h)
		// Noise over the second half: forged fields after good ones.
		forged := append([]byte(nil), valid...)
		for i := len(forged) / 2; i < len(forged); i++ {
			if shape == "opt-list" && i%4 == 0 {
				continue // spare most discriminant bytes
			}
			forged[i] = byte(r.next())
		}
		fx.oneShotMatrix(t, shape, forged, h)
	}
}

func readStrideGolden(t *testing.T) map[string]string {
	f, err := os.Open(strideGoldenPath)
	if err != nil {
		t.Fatalf("golden file: %v (run with -update-stride-golden at the pinning commit)", err)
	}
	defer f.Close()
	got := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok && !strings.HasPrefix(name, "#") {
			got[name] = sum
		}
	}
	return got
}

// TestStrideGolden is the pinned half of the suite: every fixture's
// transcript — output bytes, cursor, element count and error text of
// every call — must hash to what the pre-kernel program produced.
func TestStrideGolden(t *testing.T) {
	var golden map[string]string
	if !*updateStrideGolden {
		golden = readStrideGolden(t)
	}
	var lines []string
	for _, p := range stridePairs() {
		fx, err := buildStride(p)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		fx.seqStepMatrix(t, fx.shapes["list"].xc, h)
		fx.oneShots(t, h)
		sum := fmt.Sprintf("%x", h.Sum(nil))
		lines = append(lines, p.name+" "+sum)
		if golden != nil && golden[p.name] != sum {
			t.Errorf("%s: transcript hash %s, pinned %s", p.name, sum, golden[p.name])
		}
	}
	if *updateStrideGolden {
		head := "# fixture sha256(transcript) — written by go test -run TestStrideGolden -update-stride-golden\n"
		if err := os.WriteFile(strideGoldenPath, []byte(head+strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
