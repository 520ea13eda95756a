package compare

import (
	"math/big"
	"slices"
	"testing"

	"repro/internal/annotate"
	"repro/internal/cparse"
	"repro/internal/goparse"
	"repro/internal/idlparse"
	"repro/internal/javaparse"
	"repro/internal/lower"
	"repro/internal/mtype"
	"repro/internal/stype"
	"repro/internal/synth"
)

// probePartition is multiset's equivalence case as it was before
// primitive leaves found their class by key: every item of both sides is
// probed against every class representative in turn. It stays as the
// oracle the keyed partition must agree with.
func (c *Comparer) probePartition(a, b []*mtype.Type) (assignment []int, miss int) {
	var classRep []int
	var classMembers [][]int
	for j, bn := range b {
		placed := false
		for ci, rep := range classRep {
			if ok, _ := c.compare(b[rep], bn, ModeEqual); ok {
				classMembers[ci] = append(classMembers[ci], j)
				placed = true
				break
			}
		}
		if !placed {
			classRep = append(classRep, j)
			classMembers = append(classMembers, []int{j})
		}
	}
	next := make([]int, len(classRep))
	out := make([]int, len(a))
	for i, an := range a {
		found := -1
		for ci, rep := range classRep {
			if ok, _ := c.compare(an, b[rep], ModeEqual); ok {
				found = ci
				break
			}
		}
		if found < 0 || next[found] >= len(classMembers[found]) {
			return nil, i
		}
		member := classMembers[found][next[found]]
		next[found]++
		if ok, _ := c.compare(an, b[member], ModeEqual); !ok {
			return nil, i
		}
		out[i] = member
	}
	return out, -1
}

// checkPartitions runs probePartition beside every equivalence-mode
// multiset match until the test ends, on the same comparer and inside the
// same proof, and reports any assignment or missing partner that differs.
// It returns the count of matches checked.
func checkPartitions(tb testing.TB) *int {
	checked, inOracle := new(int), false
	partitionHook = func(c *Comparer, a, b []*mtype.Type, ka, kb []primKey, out []int) (int, bool) {
		miss, self := c.partition(a, b, ka, kb, out)
		if inOracle {
			return miss, self // a match nested inside the oracle's own probes
		}
		inOracle = true
		want, wantMiss := c.probePartition(a, b)
		inOracle = false
		*checked++
		got := out
		if miss >= 0 {
			got = nil
		}
		if !slices.Equal(got, want) || miss != wantMiss {
			tb.Errorf("keyed partition %v (miss %d), probe loop %v (miss %d)\n a: %v\n b: %v", got, miss, want, wantMiss, a, b)
		}
		return miss, self
	}
	tb.Cleanup(func() { partitionHook = nil })
	return checked
}

// matchMultiset is multiset as the tests call it: the keys computed here,
// the assignment returned in a fresh slice, nil on a miss.
func (c *Comparer) matchMultiset(a, b []*mtype.Type, mode Mode) ([]int, int, bool) {
	keys := func(ns []*mtype.Type) []primKey {
		out := make([]primKey, len(ns))
		for i, n := range ns {
			out[i] = c.key(n)
		}
		return out
	}
	out := make([]int, len(a))
	miss, self := c.multiset(a, b, keys(a), keys(b), mode, out)
	if miss >= 0 {
		return nil, miss, self
	}
	return out, -1, self
}

// universePairs lowers a synthesized suite in all four languages and pairs
// every Java, Go and C declaration with its IDL counterpart, and with the
// IDL declaration after it, which makes failing matches.
func universePairs(t *testing.T, cfg synth.Config) [][2]*mtype.Type {
	t.Helper()
	s := synth.Generate(cfg)
	must := func(u *stype.Universe, err error) *stype.Universe {
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	java, gou := must(javaparse.Parse("java", s.JavaSource)), must(goparse.Parse("go", s.GoSource))
	c := must(cparse.Parse("c", s.CSource, cparse.Config{}))
	for u, script := range map[*stype.Universe]string{java: s.JavaScript, gou: s.GoScript, c: s.CScript} {
		if _, err := annotate.ApplyScript(u, script); err != nil {
			t.Fatal(err)
		}
	}
	idl := lower.New(must(idlparse.Parse("idl", s.IDLSource)))
	all := append(append([]string(nil), s.DataClassNames...), s.ServiceClassNames...)
	var pairs [][2]*mtype.Type
	for _, side := range []struct {
		l     *lower.Lowerer
		names []string
	}{
		{lower.New(java), all}, {lower.New(gou), all}, {lower.New(c), s.DataClassNames},
	} {
		for i, name := range side.names {
			for _, other := range []string{name, side.names[(i+1)%len(side.names)]} {
				a, err := side.l.Decl(name)
				if err != nil {
					t.Fatal(err)
				}
				b, err := idl.Decl(other)
				if err != nil {
					t.Fatal(err)
				}
				pairs = append(pairs, [2]*mtype.Type{a, b})
			}
		}
	}
	return pairs
}

// muRecord returns μ.record(t), a node that equals t without being a
// primitive.
func muRecord(t *mtype.Type) *mtype.Type {
	mu := mtype.NewRecursive()
	mu.SetBody(mtype.RecordOf(t))
	return mu
}

// leafPool is what random multisets draw from: primitives with equal-key
// twins that are distinct nodes, integer ranges past 64 bits, primitives
// carrying a registered semantic tag, μ.record(primitive) — a primitive's
// only non-primitive partner — and leaves that match no primitive.
func leafPool() []func() *mtype.Type {
	wide := func(bits int, signed bool) func() *mtype.Type {
		return func() *mtype.Type { return mtype.NewIntegerBits(bits, signed) }
	}
	huge, top := new(big.Int).Lsh(big.NewInt(1), 70), new(big.Int).Lsh(big.NewInt(1), 63)
	return []func() *mtype.Type{
		i8, i16, f32, f64, ch, wide(64, false), wide(65, false), wide(100, true),
		func() *mtype.Type { return mtype.NewInteger(big.NewInt(-1), huge) },
		// The same two words, as an unsigned and as a signed range.
		func() *mtype.Type {
			return mtype.NewInteger(top, new(big.Int).Sub(new(big.Int).Lsh(top, 1), big.NewInt(1)))
		},
		func() *mtype.Type { return mtype.NewInteger(new(big.Int).Neg(top), big.NewInt(-1)) },
		func() *mtype.Type { return i8().SetTag("Celsius") },
		func() *mtype.Type { return f32().SetTag("Fahrenheit") },
		func() *mtype.Type { return i8().SetTag("Unregistered") },
		func() *mtype.Type { return muRecord(i8()) },
		func() *mtype.Type { return muRecord(f32()) },
		func() *mtype.Type { return muRecord(wide(100, true)()) },
		func() *mtype.Type { return mtype.RecordOf(i8(), f32()) },
		func() *mtype.Type { return mtype.NewRecord() },
		mtype.Unit,
		func() *mtype.Type { return mtype.ChoiceOf(i8(), f32()) },
		func() *mtype.Type { return mtype.NewPort(i8()) },
		func() *mtype.Type { return mtype.NewList(ch()) },
	}
}

// checkRandomPartition draws two leaf multisets from data — the second a
// shuffle of the first with some leaves redrawn, so that matches both hold
// and fail — and matches them, in both directions, on a comparer with a
// semantic registration between the tagged primitives; under
// checkPartitions each match runs both partitions.
func checkRandomPartition(data []byte) {
	pool := leafPool()
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0]) % n
		data = data[1:]
		return v
	}
	n := 1 + next(12)
	a, b := make([]*mtype.Type, n), make([]*mtype.Type, n)
	for i := range a {
		// b's leaf is a's own node two times in three; a redrawn one is a
		// fresh node, which may be an equal-key twin.
		a[i], b[i] = pool[next(len(pool))](), pool[next(len(pool))]()
		if next(3) > 0 {
			b[i] = a[i]
		}
	}
	for i := n - 1; i > 0; i-- {
		j := next(i + 1)
		b[i], b[j] = b[j], b[i]
	}
	c := NewComparer(DefaultRules())
	c.RegisterSemantic("Celsius", "Fahrenheit", "toFahrenheit")
	for _, pair := range [][2][]*mtype.Type{{a, b}, {b, a}} {
		c.matchMultiset(pair[0], pair[1], ModeEqual)
	}
}

// TestKeyedPartitionMatchesProbe: the keyed partition assigns every leaf
// exactly as the probe loop it replaced, and misses the same leaf, on every
// equivalence-mode multiset match of the four synthesized universes'
// comparisons and on seeded random leaf multisets.
func TestKeyedPartitionMatchesProbe(t *testing.T) {
	checked := checkPartitions(t)
	for _, cfg := range []synth.Config{synth.VisualAgeMiniature(), synth.NotesAPI(), synth.Collab(), synth.VisualAgeScaled(60)} {
		for _, pair := range universePairs(t, cfg) {
			NewComparer(DefaultRules()).Equivalent(pair[0], pair[1])
		}
	}
	universes := *checked
	// A primitive whose only partner is μ.record(primitive).
	c := NewComparer(DefaultRules())
	if got, miss, _ := c.matchMultiset([]*mtype.Type{i8(), f32()}, []*mtype.Type{f32(), muRecord(i8())}, ModeEqual); miss >= 0 || got[0] != 1 {
		t.Errorf("i8 did not pair with μ.record(i8): %v, miss %d", got, miss)
	}
	for seed := int64(1); seed <= 2000; seed++ {
		rnd := lcg(seed)
		data := make([]byte, 64)
		for i := range data {
			data[i] = byte(rnd(256))
		}
		checkRandomPartition(data)
	}
	t.Logf("%d matches checked in the universes, %d on random multisets", universes, *checked-universes)
	if universes < 1000 {
		t.Errorf("only %d matches checked in the universes", universes)
	}
}

// FuzzMultisetPartition: the keyed partition against the probe loop on
// leaf multisets drawn from the fuzzer's bytes.
func FuzzMultisetPartition(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		rnd := lcg(seed)
		data := make([]byte, 32)
		for i := range data {
			data[i] = byte(rnd(256))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPartitions(t)
		checkRandomPartition(data)
	})
}
