package broker

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/orb"
	"repro/internal/resil"
)

// benchStructSrc generates a structurally distinct ~1000-leaf nested
// struct per universe index (field kinds rotate with the index), so
// cross-universe compares never coalesce or hit the canonical-form
// cache, and each compare is heavy enough for admission slots to stay
// occupied past AdmitWait under a 4x load.
func benchStructSrc(i int) string {
	kinds := []string{"int", "float", "short", "unsigned int"}
	var sb strings.Builder
	sb.WriteString("typedef struct {\n")
	// Field counts vary with the index so no two universes canonicalize
	// to the same shape.
	for j := 0; j < 16+i; j++ {
		fmt.Fprintf(&sb, "  %s e%d;\n", kinds[(i+j)%len(kinds)], j)
	}
	sb.WriteString("} inner;\n")
	sb.WriteString("typedef struct {\n")
	for j := 0; j < 64+i; j++ {
		fmt.Fprintf(&sb, "  inner f%d;\n", j)
		fmt.Fprintf(&sb, "  %s g%d;\n", kinds[(i+j)%len(kinds)], j)
	}
	sb.WriteString("} s;\n")
	return sb.String()
}

// benchOverload drives a Workers=2 broker with 32 concurrent clients —
// roughly 4x an admission cap of 8 — and reports goodput alongside the
// shed and retry counters. maxInFlight < 0 disables shedding, the
// baseline where overload queues inside the daemon instead.
func benchOverload(b *testing.B, maxInFlight int) {
	// On a single-P runtime the CPU-bound compare goroutine self-clocks
	// the whole pipeline — the load generators only run between compares,
	// so demand can never outpace capacity. A few extra Ps let the kernel
	// preempt the compare thread and the 4x demand actually arrive.
	if runtime.GOMAXPROCS(0) < 8 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	}
	br := newBroker(Options{
		Workers:          2,
		VerdictCacheSize: 2, // thrash: nearly every compare is a real run
		MaxInFlight:      maxInFlight,
		RequestTimeout:   time.Second,
	})
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	Serve(srv, br)

	rc := resil.New(srv.Addr(), resil.Options{
		PoolSize:    8,
		MaxAttempts: 4,
	})
	c := NewTransportClient(rc)
	defer c.Close()

	// Each pair is the same shape loaded into two universes: the compare
	// is a full (equivalent) traversal, while the 16 distinct shapes give
	// 16 distinct verdict-cache keys that thrash the 2-entry LRU.
	const pairs = 16
	for i := 0; i < pairs; i++ {
		src := benchStructSrc(i)
		if _, _, err := c.Load(fmt.Sprintf("a%d", i), "c", "ilp32", src, ""); err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.Load(fmt.Sprintf("b%d", i), "c", "ilp32", src, ""); err != nil {
			b.Fatal(err)
		}
	}

	var ok, failed, okNanos atomic.Int64
	work := make(chan int)
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				ua := fmt.Sprintf("a%d", i%pairs)
				ub := fmt.Sprintf("b%d", i%pairs)
				start := time.Now()
				if _, err := c.CompareContext(context.Background(), ua, "s", ub, "s"); err != nil {
					failed.Add(1)
				} else {
					ok.Add(1)
					okNanos.Add(time.Since(start).Nanoseconds())
				}
			}
		}()
	}
	for i := 0; i < b.N; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	b.StopTimer()

	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(ok.Load())/elapsed, "ok/s")
	}
	if n := ok.Load(); n > 0 {
		b.ReportMetric(float64(okNanos.Load())/float64(n)/1e6, "ok-lat-ms")
	}
	b.ReportMetric(float64(failed.Load()), "failed")
	st := br.Stats()
	b.ReportMetric(float64(st.CompareRuns), "runs")
	b.ReportMetric(float64(st.Sheds), "sheds")
	b.ReportMetric(float64(rc.Stats().Overloads), "overload-retries")
}

func BenchmarkBrokerOverload(b *testing.B) {
	b.Run("shed-on", func(b *testing.B) { benchOverload(b, 8) })
	b.Run("shed-off", func(b *testing.B) { benchOverload(b, -1) })
}
