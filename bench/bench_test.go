package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent starts children of "the same binary", which under go test is
// this one, marked by childEnv.
func TestMain(m *testing.M) {
	if os.Getenv("MBIRD_BENCH_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	return mf
}

// TestManifestMatchesProgram: BENCHMARK.json and the program declare the
// same workloads and the same metrics, unit, direction and bound alike.
func TestManifestMatchesProgram(t *testing.T) {
	mf := readManifest(t)
	var names []string
	for _, w := range mf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no rationale", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, tbl := range []struct {
		section    string
		file, prog []metricDef
	}{{"end_to_end", mf.EndToEnd, endToEnd}, {"per_layer", mf.PerLayer, perLayer}} {
		if len(tbl.file) != len(tbl.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", tbl.section, len(tbl.file), len(tbl.prog))
			continue
		}
		for i := range tbl.prog {
			if tbl.file[i] != tbl.prog[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", tbl.section, i, tbl.file[i], tbl.prog[i])
			}
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v, want within (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// smokeSeconds is a smoke run's measured time: enough for each of the
// traced pass's slices (an eighth of it) to hold an operation.
var smokeSeconds = map[string]float64{
	"stubgen_suite": 2.0, // an operation takes a quarter of a second; four slices, not eight
	"local_stub":    0.3,
	"relay_small":   0.3,
	"relay_bulk":    0.8, // an operation takes 20 ms
	"broker_mixed":  0.3,
}

// slowBuild stretches the smoke test's windows under the race detector: a
// window must still hold an operation.
var slowBuild = map[bool]float64{false: 1, true: 8}[raceBuild]

// smoke runs one workload briefly in one fresh child, the way the command
// does, and checks the result against the declaration tables.
func smoke(t *testing.T, workload string, trace int, seed uint64) *runResult {
	t.Helper()
	o := options{seed: seed, seconds: smokeSeconds[workload] * slowBuild, trace: trace, outDir: t.TempDir()}
	var res *runResult
	var err error
	if trace == 1 {
		res, err = measure(o, workload, seed)
	} else {
		res, err = endToEndRun(o, workload, seed, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: attempted %d, failed %d (%s)", workload, res.Attempted, res.Failed, res.FirstErr)
	}
	tbl := endToEnd
	if trace == 1 {
		tbl = perLayer
	}
	if len(res.Metrics) != len(tbl) {
		t.Errorf("%s: %d metrics printed, %d declared", workload, len(res.Metrics), len(tbl))
	}
	for _, d := range tbl {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("%s: metric %s printed as %+v, want unit %s", workload, d.Name, m, d.Unit)
		}
		if trace == 0 && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", workload, d.Name, m.Value)
		}
	}
	if trace == 1 && res.Metrics["fail_share"].Value != 0 {
		t.Errorf("%s: fail_share = %v", workload, res.Metrics["fail_share"].Value)
	}
	return res
}

// full says the whole smoke was asked for; without it the test runs what
// fits in ten seconds.
var full = os.Getenv("MBIRD_BENCH_FULL") != ""

// TestWorkloadsSmoke: every workload prints every declared per-layer metric
// with its unit and fails no operation in a short traced pass, which drives
// its operations traced and untraced and its rungs. The end-to-end pass is
// the same code for every workload; it runs on the one that sets up
// fastest, and on all five when the whole smoke is asked for.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	for _, name := range workloadNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			if name != "stubgen_suite" {
				t.Parallel() // stubgen_suite's slices hold one operation each, so it runs alone
			}
			smoke(t, name, 1, 1)
			if full || name == "relay_bulk" {
				smoke(t, name, 0, 1)
			}
		})
	}
}

// TestSeedsAndCounts: the same seed gives the same inputs and the same
// counts, another seed gives other inputs. It is three more runs of the
// slowest workload, so it runs only when asked for.
func TestSeedsAndCounts(t *testing.T) {
	if !full {
		t.Skip("set MBIRD_BENCH_FULL=1 for the determinism check")
	}
	a, b, c := smoke(t, "stubgen_suite", 1, 7), smoke(t, "stubgen_suite", 1, 7), smoke(t, "stubgen_suite", 1, 8)
	for _, name := range []string{"compare.steps", "lower.mtype_nodes", "transcode.fused_pairs"} {
		if a.Metrics[name].Value == 0 || a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v on the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	if a.Digest != b.Digest || a.Digest == c.Digest {
		t.Errorf("digests: seed 7 %s and %s, seed 8 %s", a.Digest, b.Digest, c.Digest)
	}
}

func TestPercentiles(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 100, 0: 10} {
		if got := percentile(sorted, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := tail(sorted, 0.9); got != 0 {
		t.Errorf("tail(p90) of 10 samples = %v, want 0: one sample beyond, not ten", got)
	}
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	if got := tail(hundred, 0.9); got != 90 {
		t.Errorf("tail(p90) of 1..100 = %v, want 90", got)
	}
}
