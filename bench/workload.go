package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// env is what a workload's set-up gets: the seed, and the tracer slot its
// span sites read (nil except during a traced window). The slot is atomic
// because the benchmark's own upstream handlers read it from server
// goroutines.
type env struct {
	seed uint64
	tr   atomic.Pointer[tracer]
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// warmOps is the warm-up, in operations per caller: enough to fill
	// caches, dial pools and compile lanes, sized to about a second here.
	warmOps int
	// blockOps and lapBlocks cut an end-to-end window into blocks of
	// operations that are timed one by one, and make the inputs start over
	// every lap (runWindow, quietOpsPerSec). They are counts, not times, so
	// that a block is the same work in every process on every machine; here
	// a block takes about 0.1 s (one whole operation on stubgen_suite) and a
	// lap about 2.5 s, half a process's window, so a run times every block
	// about eight times. Without lapBlocks the inputs never start over, and a
	// block is timed once in each process.
	blockOps, lapBlocks int
	// typicalBlocks has ops_per_s take each block at the median of its
	// timings, not the fastest (quietOpsPerSec).
	typicalBlocks bool
	// mbPerS says the workload reports mb_per_s: its operations differ in
	// the bytes they carry, or bytes are what it is about.
	mbPerS bool
	// rssEnvelopeMiB, when set, is the constant-memory envelope: an
	// end-to-end run fails when the process's high-water mark passes it.
	// (A traced run holds the span recorder too, and is not checked.)
	rssEnvelopeMiB float64
	// spanNames are the workload's span names; index 0 is the operation's
	// root span.
	spanNames []string
	// setup generates the inputs from the seed, starts the in-process
	// servers and returns the instance to drive.
	setup func(e *env) (*instance, error)
}

// instance is a workload that is set up and ready to drive.
type instance struct {
	op     opFunc
	digest string
	close  func()
	// window brackets the traced window for workloads that report counts
	// or deltas of the program's own counters; finish adds them to m.
	window func() (finish func(m metricSet))
	// check, after the measured windows, guards on the program's own
	// counters that the workload exercised the path it is named for.
	check func() error
	// layers turns a traced window's attribution into per-layer metrics.
	layers func(lt layerTimes, tr *tracer, m metricSet)
	// ladder runs the workload's rungs, one caller, within about budget.
	ladder func(budget time.Duration, m metricSet) error
}

var workloads = []*workload{
	stubgenSuite,
	localStub,
	relaySmall,
	relayBulk,
	brokerMixed,
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runWorkload is a child process's whole life: set up, warm up, measure,
// report.
func runWorkload(w *workload, o options) (*runResult, error) {
	e := &env{seed: o.seed}
	inst, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	bufs := newSampleBufs()
	rate, err := runCount(inst.op, w.warmOps)
	if err != nil {
		return nil, err
	}
	setupS := time.Since(processStart).Seconds()

	res := &runResult{Workload: w.name, Seed: o.seed, Digest: inst.digest, Metrics: metricSet{}}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		return res, tracedPass(w, inst, e, o, window, rate, bufs, res)
	}
	res.Metrics.set("setup_s", setupS, 1)
	lr := runWindow(inst.op, w.warmOps, window, rate, bufs, w.blockOps, w.lapBlocks)
	if lr.rssErr != nil {
		return nil, lr.rssErr
	}
	if inst.check != nil {
		if err := inst.check(); err != nil {
			return nil, err
		}
	}
	if w.rssEnvelopeMiB > 0 && !raceBuild {
		hwm, err := vmHWMMiB()
		if err != nil {
			return nil, err
		}
		if hwm > w.rssEnvelopeMiB {
			return nil, fmt.Errorf("resident set peaked at %.1f MiB, outside the %.0f MiB constant-memory envelope", hwm, w.rssEnvelopeMiB)
		}
	}
	fillOutcome(res, lr)
	m := res.Metrics
	// This process's own throughput; the run's is quietOpsPerSec over the
	// blocks of all its processes.
	m.set("ops_per_s", lr.opsPerSec(), int(lr.verified()))
	m.set("rss_p95_mib", lr.rssMiB(0.95), len(lr.rss))
	res.Blocks = lr.blocks
	res.Notes = append(res.Notes, fmt.Sprintf("median latency %.4f us over %d samples, every %d-th operation (p50_us is a per-layer metric)",
		percentile(lr.lat, 0.50)/1e3, len(lr.lat), lr.stride))
	return res, nil
}

func fillOutcome(res *runResult, lr loopResult) {
	res.Attempted, res.Failed = lr.attempted, lr.failed
	res.Correct = lr.failed == 0 && lr.attempted > 0
	if lr.firstErr != nil {
		res.FirstErr = lr.firstErr.Error()
	}
}

// tracedPass takes the per-layer metrics: four alternating slices, tracing
// off, on, off, on (their difference in throughput is the tracing overhead;
// alternating keeps a workload that is still warming from reading as
// negative overhead), then the ladder rungs. The slices take half the
// window and the rungs the other half; a workload without rungs gives the
// slices the whole window.
func tracedPass(w *workload, inst *instance, e *env, o options, window time.Duration, rate float64, bufs *sampleBufs, res *runResult) error {
	m := res.Metrics
	tr, err := newTracer(w.spanNames)
	if err != nil {
		return err
	}
	finish := func(metricSet) {}
	if inst.window != nil {
		finish = inst.window()
	}
	slice := window / 8
	if inst.ladder == nil {
		slice = window / 4
	}
	var plain, traced loopResult
	var gc gcSnapshot
	next := w.warmOps
	for i := 0; i < 4; i++ {
		into := &plain
		if i%2 == 1 {
			into = &traced
			e.tr.Store(tr)
		}
		gc0 := readGC()
		lr := runWindow(inst.op, next, slice, rate, bufs, w.blockOps, 0)
		e.tr.Store(nil)
		if i%2 == 1 {
			gc.add(readGC(), gc0)
		}
		next += int(lr.attempted) // per caller it is fewer; only distinctness matters
		into.merge(lr)
	}
	finish(m)
	// Taken before the attribution below allocates.
	hwm, err := vmHWMMiB()
	if err != nil {
		return err
	}
	m.set("runtime.rss_max_mib", hwm, 0)
	if inst.check != nil {
		if err := inst.check(); err != nil {
			return err
		}
	}
	fillOutcome(res, traced)
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	res.Correct = res.Correct && plain.failed == 0

	lt := tr.attribute(0)
	lt.lat = append(append([]int64(nil), plain.lat...), traced.lat...)
	sort.Slice(lt.lat, func(i, j int) bool { return lt.lat[i] < lt.lat[j] })
	m.set("p50_us", percentile(lt.lat, 0.50)/1e3, len(lt.lat))
	if inst.layers != nil {
		inst.layers(lt, tr, m)
	}
	if ops := traced.verified(); ops > 0 {
		m.set("runtime.allocs_per_op", float64(gc.mallocs)/float64(ops), int(ops))
	}
	m.set("runtime.gc_cycles", float64(gc.cycles), 0)
	m.set("runtime.gc_pause_ms", float64(gc.pauseNs)/1e6, 0)
	if ops := traced.verified(); ops > 0 {
		m.set("runtime.cpu_us_per_op", float64(gc.cpuNs)/1e3/float64(ops), int(ops))
	}
	if p := plain.opsPerSec(); p > 0 {
		m.set("trace.overhead_share", (p-traced.opsPerSec())/p, 0)
	}
	if w.mbPerS && plain.elapsed > 0 {
		m.set("mb_per_s", float64(plain.bytes)/1e6/plain.elapsed.Seconds(), int(plain.verified()))
	}

	m.set("trace.spans", float64(len(tr.recorded())), 0)
	m.set("fail_share", float64(res.Failed)/float64(max(res.Attempted, 1)), int(res.Attempted))
	if d := tr.dropped.Load(); d > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d spans past the recorder's %d were dropped", d, spanCap))
	}
	path, err := tr.write(o.outDir, w.name, o.seed)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.Notes = append(res.Notes, "spans written to "+path)

	if inst.ladder != nil {
		if err := inst.ladder(window/2, m); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	return nil
}
