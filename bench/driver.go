package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// callers is the closed loop's width: callers of a stub wait for its
// reply, and the baseline machine has two cores.
const callers = 2

// sampleCap bounds the latencies kept per caller. The slices are touched
// when allocated, so their share of rss_p95_mib is the same constant on
// every run however fast the program is.
const sampleCap = 1 << 19

// opFunc runs one verified operation for a caller: it returns the source
// payload bytes the operation carried, and an error for a failure, a
// refusal or a wrong output alike.
type opFunc func(caller, i int) (payloadBytes int, err error)

// loopResult is what one closed-loop window measured.
type loopResult struct {
	// elapsed is the time from the window's start to a caller's last
	// operation that ended inside it, averaged over the callers: the
	// operation the window's end cut off is in neither the count nor the
	// time, so ops_per_s does not move in steps of one operation.
	elapsed   time.Duration
	attempted int64 // operations that ended inside the window
	failed    int64
	bytes     int64   // source payload bytes of verified operations
	lat       []int64 // ns, verified operations only, every stride-th one
	stride    int
	firstErr  error
	rss       []int32 // resident pages, sampled every rssEvery, sorted
	rssErr    error
	// blocks are each caller's completed blocks in order, ns each: see
	// quietOpsPerSec.
	blocks [callers][]int64
}

// merge adds another window's counts and samples to r.
func (r *loopResult) merge(o loopResult) {
	r.elapsed += o.elapsed
	r.attempted += o.attempted
	r.failed += o.failed
	r.bytes += o.bytes
	r.lat = append(r.lat, o.lat...)
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

func (r loopResult) verified() int64 { return r.attempted - r.failed }
func (r loopResult) opsPerSec() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.verified()) / r.elapsed.Seconds()
}

// sampleBufs are the per-caller latency slices, allocated once per
// process and reused by every window.
type sampleBufs [callers][]int64

func newSampleBufs() *sampleBufs {
	var b sampleBufs
	for c := range b {
		b[c] = make([]int64, sampleCap)
		for i := range b[c] {
			b[c][i] = 1 // touch: see sampleCap
		}
	}
	return &b
}

// runCount runs n operations per caller, unrecorded: the warm-up. It is
// sized in operations, not seconds, so that setup_s grows when the warm
// path gets slower. It returns the rate it saw, which sizes the sampling
// stride of the window that follows.
func runCount(op opFunc, n int) (opsPerSec float64, err error) {
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := op(c, i); err != nil {
					errs[c] = fmt.Errorf("warm-up op %d of caller %d: %w", i, c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, e
		}
	}
	return float64(n*callers) / time.Since(start).Seconds(), nil
}

// runWindow drives op from `callers` goroutines, each issuing its next
// call when the previous one returns, for the given window. first is the
// index of each caller's first operation (the warm-up used the ones
// before it). An operation still running when the window ends is
// discarded: it is neither a sample nor a failure.
//
// Every blockOps consecutive operations of a caller are a block, timed from
// the end of the block before it. With lapBlocks > 0 the operation indices
// start over every lapBlocks blocks, so a caller's b-th block carries the
// same inputs as its (b mod lapBlocks)-th.
func runWindow(op opFunc, first int, window time.Duration, expectRate float64, bufs *sampleBufs, blockOps, lapBlocks int) loopResult {
	stride := 1
	if perCaller := expectRate * window.Seconds() / callers * 1.5; perCaller > sampleCap {
		stride = int(perCaller/sampleCap) + 1
	}
	type part struct {
		attempted, failed, bytes int64
		n                        int
		firstErr                 error
		busy                     time.Duration // start → end of the last operation inside the window
		blocks                   []int64
	}
	parts := make([]part, callers)
	var wg sync.WaitGroup
	sampler := startRSSSampler(window)
	start := time.Now()
	end := start.Add(window)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			buf := bufs[c]
			p.blocks = make([]int64, 0, 1024)
			blockStart, inBlock := start, 0
			for n := 0; ; n++ {
				i := first + n
				if lapBlocks > 0 {
					i = first + n%(lapBlocks*blockOps)
				}
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				nb, err := op(c, i)
				t1 := time.Now()
				if t1.After(end) {
					return
				}
				p.attempted++
				p.busy = t1.Sub(start)
				if inBlock++; inBlock == blockOps {
					p.blocks = append(p.blocks, t1.Sub(blockStart).Nanoseconds())
					blockStart, inBlock = t1, 0
				}
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				p.bytes += int64(nb)
				if i%stride == 0 && p.n < len(buf) {
					buf[p.n] = t1.Sub(t0).Nanoseconds()
					p.n++
				}
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{stride: stride}
	res.rss, res.rssErr = sampler.stop()
	for c, p := range parts {
		res.elapsed += p.busy / callers
		res.attempted += p.attempted
		res.failed += p.failed
		res.bytes += p.bytes
		res.lat = append(res.lat, bufs[c][:p.n]...)
		res.blocks[c] = p.blocks
		if res.firstErr == nil {
			res.firstErr = p.firstErr
		}
	}
	sort.Slice(res.lat, func(i, j int) bool { return res.lat[i] < res.lat[j] })
	return res
}

// quietOpsPerSec is the throughput a run's passes would have had on a quiet
// machine. passes are the runs of runWindow that share first, blockOps and
// lapBlocks, so block b of caller c is the same work in each of them, and
// within one again every lapBlocks blocks. Each distinct block counts once,
// at the fastest time any pass took for it; a caller's rate is its blocks'
// operations over the sum of those times, and the callers' rates add up.
//
// What disturbs a run on a shared host only ever adds time, in bursts from
// a fraction of a second to minutes; whatever a burst spoils is timed
// again seconds later in another pass, so the fastest time of a block is
// much steadier than the mean one (README, "Spread and bounds"). With
// typical set, a block counts at the median of its times instead: for a
// workload whose blocks do not cost the same on every pass even on a quiet
// machine, where the fastest would be the luckiest. n is the operations
// the rate rests on.
func quietOpsPerSec(passes [][callers][]int64, blockOps, lapBlocks int, typical bool) (rate float64, n int) {
	for c := 0; c < callers; c++ {
		times := map[int][]float64{}
		for _, pass := range passes {
			for b, ns := range pass[c] {
				if lapBlocks > 0 {
					b %= lapBlocks
				}
				times[b] = append(times[b], float64(ns))
			}
		}
		var sum float64
		for _, ts := range times {
			if typical {
				sum += medianF(ts)
			} else {
				sum += slices.Min(ts)
			}
		}
		if sum > 0 {
			rate += float64(len(times)*blockOps) / (sum / 1e9)
			n += len(times) * blockOps
		}
	}
	return rate, n
}

// rank is the nearest-rank index of the q-quantile among n sorted samples.
func rank(n int, q float64) int {
	return min(max(int(q*float64(n)+0.5)-1, 0), n-1)
}

// percentile returns the exact q-quantile of sorted samples (nearest
// rank), 0 for none.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[rank(len(sorted), q)])
}

// tail returns the q-quantile when at least ten samples lie beyond it,
// and 0 (not measured) otherwise: the rule for every tail the benchmark
// prints. Each tail metric's q is the highest the rule allows at the
// baseline's sample counts.
func tail(sorted []int64, q float64) float64 {
	if len(sorted) == 0 || len(sorted)-1-rank(len(sorted), q) < 10 {
		return 0
	}
	return percentile(sorted, q)
}

// medianF returns the median of vs (0 for none) without reordering vs.
func medianF(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// rssEvery is the resident-set sampling period: a thousand samples in a
// 20 s window, each one pread of /proc/self/statm (a few µs).
const rssEvery = 20 * time.Millisecond

// rssSampler samples the process's resident set through a window. The
// kernel's own high-water mark (VmHWM) is an extreme value: one spike of a
// few milliseconds sets it, and between identical runs of the
// collector-heavy workloads it moved from 53 to 78 MiB while the 95th
// percentile of the samples moved from 51.8 to 53.5. rss_p95_mib is that
// percentile: the level the process stays under for 95 % of the window.
// The high-water mark itself is the per-layer runtime.rss_max_mib.
type rssSampler struct {
	quit    chan struct{}
	done    chan struct{}
	samples []int32
	err     error
}

func startRSSSampler(window time.Duration) *rssSampler {
	s := &rssSampler{
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		samples: make([]int32, 0, int(window/rssEvery)+16),
	}
	go func() {
		defer close(s.done)
		f, err := os.Open("/proc/self/statm")
		if err != nil {
			s.err = err
			return
		}
		defer f.Close()
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		buf := make([]byte, 128)
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
			n, err := f.ReadAt(buf, 0)
			if n == 0 {
				s.err = fmt.Errorf("read /proc/self/statm: %w", err)
				return
			}
			// statm is "size resident shared ...", in pages.
			fields := strings.Fields(string(buf[:n]))
			if len(fields) < 2 {
				s.err = fmt.Errorf("malformed /proc/self/statm %q", buf[:n])
				return
			}
			pages, err := strconv.Atoi(fields[1])
			if err != nil {
				s.err = err
				return
			}
			if len(s.samples) < cap(s.samples) {
				s.samples = append(s.samples, int32(pages))
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the samples, sorted.
func (s *rssSampler) stop() ([]int32, error) {
	close(s.quit)
	<-s.done
	if s.err == nil && len(s.samples) == 0 {
		s.err = errors.New("window too short for one resident-set sample")
	}
	sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
	return s.samples, s.err
}

// rssMiB is the q-quantile of the sampled resident set, in MiB.
func (r loopResult) rssMiB(q float64) float64 {
	if len(r.rss) == 0 {
		return 0
	}
	return float64(r.rss[rank(len(r.rss), q)]) * float64(os.Getpagesize()) / (1 << 20)
}

// vmHWMMiB is the kernel's high-water mark of the process's resident set,
// since process start.
func vmHWMMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")))
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// machineStamp describes where a run's numbers were taken.
func machineStamp() string {
	cpu := "unknown CPU"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "no git checkout"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s, commit %s, loopback, in-process servers, closed loop of %d callers",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, callers)
}

// rungResult is one rung's cost per call. allocs is heap allocations, the
// whole process counted: in-process servers included.
type rungResult struct {
	ns, allocs float64
	calls      int
}

// rungs times several functions, one caller, for about budget in all. Each
// runs in batches of ~5 ms and its ns per call is the median batch mean,
// so one scheduler hiccup does not move it. The batches are interleaved,
// one of each function in turn: a slow phase of the machine then falls on
// all of them alike, and the difference of two rungs — a layer's self time
// — survives it.
func rungs(budget time.Duration, fns ...func() error) ([]rungResult, error) {
	run := func(fn func() error, n int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	res := make([]rungResult, len(fns))
	batch := make([]int, len(fns))
	for k, fn := range fns {
		for batch[k] = 1; batch[k] < 1<<20; batch[k] *= 2 {
			d, err := run(fn, batch[k])
			if err != nil {
				return nil, err
			}
			if d >= 5*time.Millisecond {
				break
			}
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if _, err := run(fn, batch[k]); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		res[k].allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(batch[k])
	}
	means := make([][]float64, len(fns))
	deadline := time.Now().Add(budget)
	for len(means[0]) < 5 || time.Now().Before(deadline) {
		for k, fn := range fns {
			d, err := run(fn, batch[k])
			if err != nil {
				return nil, err
			}
			means[k] = append(means[k], float64(d.Nanoseconds())/float64(batch[k]))
		}
	}
	for k := range res {
		res[k].ns, res[k].calls = medianF(means[k]), batch[k]*len(means[k])
	}
	return res, nil
}

// rung times one function: see rungs.
func rung(budget time.Duration, fn func() error) (nsPerCall, allocsPerCall float64, calls int, err error) {
	res, err := rungs(budget, fn)
	if err != nil {
		return 0, 0, 0, err
	}
	return res[0].ns, res[0].allocs, res[0].calls, nil
}

// ladder runs a workload's rungs, each with an equal share of the budget,
// and records their ns per call.
type ladder struct {
	per time.Duration
	m   metricSet
}

// time runs one rung and records its ns per call under name; it returns
// that and the allocations per call.
func (l ladder) time(name string, fn func() error) (ns, allocs float64, err error) {
	ns, allocs, n, err := rung(l.per, fn)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", name, err)
	}
	l.m.set(name, ns, n)
	return ns, allocs, nil
}
