// Command bench is the repository's benchmark: five workloads, each a
// closed loop of two callers against in-process servers on loopback TCP,
// three end-to-end metrics per workload and a ladder of per-layer metrics
// from a separate traced pass. BENCHMARK.json at the repository root
// declares it; README.md in this directory holds the layer map.
//
// Every workload runs in a fresh child process of this binary, so one
// workload's heap, caches and peak RSS never leak into the next. The
// parent only starts children and prints what they measured.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// processStart is taken before anything else so setup_s covers the whole
// path from process start to the end of warm-up.
var processStart = time.Now()

// processes is how many fresh processes share a run's measured seconds.
// Each sets up, warms up and measures its share on the same operations as
// the others, and the run's metrics are taken across them (endToEndRun):
// how a process's threads and connections happen to fall on the cores
// moves its throughput by a few per cent for its whole life, and a burst
// of the host's other tenants spoils some of a run's passes, not all.
const processes = 4

// selfcheckRuns is the runs per set of -selfcheck (seeds seed, seed+1, ...).
const selfcheckRuns = 3

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	selfcheck bool
	outDir    string
	child     bool
}

func parseFlags(args []string, errw io.Writer) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload: "+strings.Join(workloadNames(), ", ")+" (default: all)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the program under test only ever sees the inputs generated from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured time per workload, seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and the ladder rungs, per-layer metrics")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two sets back to back and compare them against the bounds")
	fs.StringVar(&o.outDir, "out", defaultOutDir(), "directory for trace files")
	fs.BoolVar(&o.child, "child", false, "internal: measure the one workload in this process")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return o, errors.New("need -seconds > 0 and -trace 0|1")
	}
	if o.workload != "" && findWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	return o, nil
}

// selected is the workloads a run covers: the one named, or all.
func (o options) selected() []string {
	if o.workload != "" {
		return []string{o.workload}
	}
	return workloadNames()
}

// defaultOutDir is bench/out whether the command runs from the repository
// root (bench/run.sh) or from this directory (go run .).
func defaultOutDir() string {
	if wd, err := os.Getwd(); err == nil && filepath.Base(wd) == "bench" {
		return "out"
	}
	return filepath.Join("bench", "out")
}

// runResult is what one child reports on its last line of output, and
// what the parent prints for a run.
type runResult struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Digest    string    `json:"digest"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	FirstErr  string    `json:"first_error,omitempty"`
	Notes     []string  `json:"notes,omitempty"`
	Metrics   metricSet `json:"metrics"`
	// Blocks are the block times of an end-to-end child's window, by caller.
	Blocks [callers][]int64 `json:"blocks"`
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(2)
	}
	if o.child {
		err = childMain(o, os.Stdout)
	} else if o.selfcheck {
		err = selfcheck(o, os.Stdout)
	} else {
		err = parentMain(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// childMain runs one workload in this process and prints its result as one
// JSON line.
func childMain(o options, out io.Writer) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("child needs -workload")
	}
	res, err := runWorkload(w, o)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return json.NewEncoder(out).Encode(res)
}

// spawn measures one workload for the given seconds in a fresh child
// process and decodes its last line.
func spawn(o options, workload string, seed uint64, seconds float64) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-child", "-workload", workload,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(o.trace), "-out", o.outDir)
	cmd.Env = append(os.Environ(), childEnv)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child of %s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("child of %s printed no result: %w", workload, err)
	}
	return &res, nil
}

// childEnv marks a child process; bench_test.go's TestMain turns a marked
// test binary into the benchmark, so the smoke test's children are "the
// same binary" too.
const childEnv = "MBIRD_BENCH_CHILD=1"

// measure runs one workload once: the traced pass in one child, or the
// end-to-end metrics over `processes` children.
func measure(o options, workload string, seed uint64) (*runResult, error) {
	if o.trace == 1 {
		res, err := spawn(o, workload, seed, o.seconds)
		if err != nil {
			return nil, err
		}
		res.Metrics = res.Metrics.complete(perLayer)
		return res, nil
	}
	return endToEndRun(o, workload, seed, processes)
}

// endToEndRun splits the measured seconds over n fresh processes, all on
// the same operations, and reports what the n passes say of a quiet
// machine: ops_per_s from each block's fastest pass (quietOpsPerSec), the
// fastest set-up, and the median resident set, which no burst moves.
// attempted and failed are the sums.
func endToEndRun(o options, workload string, seed uint64, n int) (*runResult, error) {
	var run *runResult
	var passes [][callers][]int64
	values := map[string][]float64{}
	rssSamples := 0
	for i := 0; i < n; i++ {
		res, err := spawn(o, workload, seed, o.seconds/float64(n))
		if err != nil {
			return nil, err
		}
		for _, d := range endToEnd {
			values[d.Name] = append(values[d.Name], res.Metrics[d.Name].Value)
		}
		passes = append(passes, res.Blocks)
		rssSamples += res.Metrics["rss_p95_mib"].N
		if run == nil {
			run = res
			continue
		}
		if res.Digest != run.Digest {
			return nil, fmt.Errorf("%s: seed %d gave inputs %s, then %s", workload, seed, run.Digest, res.Digest)
		}
		run.Attempted += res.Attempted
		run.Failed += res.Failed
		run.Correct = run.Correct && res.Correct
		if run.FirstErr == "" {
			run.FirstErr = res.FirstErr
		}
		run.Notes = append(run.Notes, res.Notes...)
	}
	w := findWorkload(workload)
	rate, ops := quietOpsPerSec(passes, w.blockOps, w.lapBlocks, w.typicalBlocks)
	if ops == 0 {
		return nil, fmt.Errorf("%s: %g s is too short for one block of %d operations", workload, o.seconds/float64(n), w.blockOps)
	}
	run.Metrics.set("ops_per_s", rate, ops)
	run.Metrics.set("setup_s", slices.Min(values["setup_s"]), n)
	run.Metrics.set("rss_p95_mib", medianF(values["rss_p95_mib"]), rssSamples)
	for _, d := range endToEnd {
		run.Notes = append(run.Notes, fmt.Sprintf("%s by process: %.6g", d.Name, values[d.Name]))
	}
	run.Metrics = run.Metrics.complete(endToEnd)
	return run, nil
}

// driverLine is the contract's last line: exactly these keys, and for
// each metric exactly value and unit.
func driverLine(res *runResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]mv{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = mv{Value: m.Value, Unit: m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(raw)
}

// printResult prints a run's metrics by name. skipZero leaves out the
// per-layer metrics whose layer is not on the workload's path.
func printResult(out io.Writer, res *runResult, tbl []metricDef, skipZero bool) {
	fmt.Fprintf(out, "== %s  seed %d  inputs %s  attempted %d  failed %d  correct %v\n",
		res.Workload, res.Seed, res.Digest, res.Attempted, res.Failed, res.Correct)
	if res.FirstErr != "" {
		fmt.Fprintf(out, "   first failure: %s\n", res.FirstErr)
	}
	for _, d := range tbl {
		m := res.Metrics[d.Name]
		if skipZero && m.Value == 0 && m.N == 0 {
			continue
		}
		samples := ""
		if m.N > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(out, "   %-32s %14.4f %-6s%s\n", d.Name, m.Value, m.Unit, samples)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(out, "   note: %s\n", n)
	}
}

// parentMain runs the selected workloads, each in fresh children, prints
// every metric by name with its unit, and ends each workload with the
// result line the driver reads.
func parentMain(o options, out io.Writer) error {
	fmt.Fprintf(out, "machine: %s\n", machineStamp())
	fmt.Fprintf(out, "percentile rule: exact samples, nearest rank; a tail is printed only with at least 10 samples beyond it\n")
	tbl := endToEnd
	if o.trace == 1 {
		tbl = perLayer
	}
	allCorrect := true
	for _, name := range o.selected() {
		res, err := measure(o, name, o.seed)
		if err != nil {
			return err
		}
		printResult(out, res, tbl, o.trace == 1)
		fmt.Fprintln(out, driverLine(res))
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		return errors.New("a workload produced wrong outputs or failures")
	}
	return nil
}

// selfcheck runs two sets of runs of the same code and compares them, for
// every (end-to-end metric, workload). The sets alternate run by run and
// are compared pair by pair, each run of set 2 against the run of set 1
// just before it on the same seed; "worse" is the median of the pairs'
// differences. A slow spell of the machine lasts minutes, so it falls on
// both runs of a pair alike, and its onset spoils one pair, not the
// median: what is left is how well the benchmark repeats. It fails on a
// failed operation, on a metric worse by more than its bound, and on a
// metric more than a tenth apart either way: the demotion rule says such a
// metric may not stay end-to-end (setup_s is exempt, the driver's contract
// requires it there).
func selfcheck(o options, out io.Writer) error {
	fmt.Fprintf(out, "machine: %s\n", machineStamp())
	fmt.Fprintf(out, "selfcheck: 2 sets x %d runs x %.0f s, seeds %d..%d, alternating, compared pair by pair\n", selfcheckRuns, o.seconds, o.seed, o.seed+selfcheckRuns-1)
	fmt.Fprintf(out, "%-14s %-13s %12s %12s %8s %6s\n", "workload", "metric", "set 1", "set 2", "worse", "bound")
	o.trace = 0
	failed := false
	for _, name := range o.selected() {
		var sets [2]map[string][]float64 // set → metric → one value per run
		for r := 0; r < selfcheckRuns; r++ {
			for s := range sets {
				res, err := measure(o, name, o.seed+uint64(r))
				if err != nil {
					return err
				}
				if !res.Correct {
					failed = true
					fmt.Fprintf(out, "FAIL %s set %d run %d: %d of %d operations failed (%s)\n", name, s+1, r+1, res.Failed, res.Attempted, res.FirstErr)
				}
				if sets[s] == nil {
					sets[s] = map[string][]float64{}
				}
				for _, d := range endToEnd {
					sets[s][d.Name] = append(sets[s][d.Name], res.Metrics[d.Name].Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			diffs := make([]float64, len(a))
			for r := range a {
				diffs[r] = (b[r] - a[r]) / a[r]
				if d.Better == "higher" {
					diffs[r] = -diffs[r]
				}
			}
			worse := medianF(diffs)
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "OVER BOUND"
				failed = true
			case d.Name != "setup_s" && (worse > 0.10 || worse < -0.10):
				verdict = "DEMOTE: the sets differ by more than a tenth"
				failed = true
			}
			fmt.Fprintf(out, "%-14s %-13s %12.4f %12.4f %+7.2f%% %5.0f%%  %s\n", name, d.Name, medianF(a), medianF(b), 100*worse, 100*d.Bound, verdict)
		}
	}
	if failed {
		return errors.New("selfcheck failed")
	}
	fmt.Fprintln(out, "selfcheck passed: no failed operation, every metric within its bound and within a tenth between the sets")
	return nil
}

// gcSnapshot is the runtime's allocation and collection counters and the
// process's CPU time.
type gcSnapshot struct {
	mallocs uint64
	cycles  uint32
	pauseNs uint64
	cpuNs   int64 // user + system
}

// add accumulates the delta from an earlier snapshot to a later one.
func (g *gcSnapshot) add(later, earlier gcSnapshot) {
	g.mallocs += later.mallocs - earlier.mallocs
	g.cycles += later.cycles - earlier.cycles
	g.pauseNs += later.pauseNs - earlier.pauseNs
	g.cpuNs += later.cpuNs - earlier.cpuNs
}

func readGC() gcSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap := gcSnapshot{mallocs: ms.Mallocs, cycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		snap.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	return snap
}
