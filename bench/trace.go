package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// spanCap bounds the spans one traced window keeps; the ones past it are
// counted as dropped and left out of the layer metrics.
const spanCap = 1 << 19

// span is one timed interval at a layer boundary. Times are ns since the
// tracer started. parent is the id of the span that caused this one, req
// the id of the operation's root span (the request identifier all spans of
// one operation share); ids are slice index + 1, 0 meaning none.
type span struct {
	name       uint16
	start, end int64
	parent     int32
	req        int32
}

// tracer records spans from the benchmark's own files: around each call
// the benchmark makes into a layer, and inside the handlers it owns.
// Memory is reserved before the window; begin is one atomic add.
type tracer struct {
	t0      time.Time
	names   []string
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

// newTracer reserves the span recorder outside the Go heap. On the heap its
// 16 MiB would count as live data, the collector would let as much garbage
// again pile up before each cycle, and a traced process would run fewer
// collections in 32 MiB more memory than the untraced one it stands for.
// Mapped pages become resident only as spans are written.
func newTracer(names []string) (*tracer, error) {
	mem, err := syscall.Mmap(-1, 0, spanCap*int(unsafe.Sizeof(span{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map the span recorder: %w", err)
	}
	// span holds no pointers, so the collector need not know the memory.
	spans := unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), spanCap)
	return &tracer{t0: time.Now(), names: names, spans: spans}, nil
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its id, 0 when the recorder is full.
// A root span passes req 0 and becomes its own request.
func (t *tracer) begin(name uint16, parent, req int32) int32 {
	i := t.n.Add(1)
	if i > int64(len(t.spans)) {
		t.dropped.Add(1)
		return 0
	}
	id := int32(i)
	if req == 0 {
		req = id
	}
	t.spans[i-1] = span{name: name, start: t.now(), parent: parent, req: req}
	return id
}

func (t *tracer) end(id int32) {
	if id != 0 {
		t.spans[id-1].end = t.now()
	}
}

// endIf ends a span when tracing is on; a nil tracer is tracing off.
func (t *tracer) endIf(id int32) {
	if t != nil {
		t.end(id)
	}
}

// adopt links a span the benchmark's own upstream recorded to the client
// span that caused it, once the reply has told the client which it was.
func (t *tracer) adopt(child, parent int32) {
	if child != 0 && parent != 0 {
		t.spans[child-1].parent = parent
		t.spans[child-1].req = t.spans[parent-1].req
	}
}

// recorded returns the spans begun so far; one cut off by the window's
// end has end 0 and readers skip it.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// layerTimes is the attribution of a traced window: for every operation
// (root span), the self time each layer spent in it.
type layerTimes struct {
	ops   int
	perOp map[string][]float64 // layer → self ns, one entry per operation
	opDur []float64            // root span durations, ns
	// lat is the latency of every verified operation of the pass, traced
	// or not, sorted: the tails are taken from it, for the sample count.
	lat []int64
}

// attribute computes self time = span − children for every span and sums
// it per (operation, layer). Roots are spans named root.
func (t *tracer) attribute(root uint16) layerTimes {
	spans := t.recorded()
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		self[i] += s.end - s.start
		if s.parent != 0 && spans[s.parent-1].end != 0 {
			self[s.parent-1] -= s.end - s.start
		}
	}
	lt := layerTimes{perOp: map[string][]float64{}}
	opIndex := make(map[int32]int)
	for i, s := range spans {
		if s.name == root && s.end != 0 {
			opIndex[int32(i+1)] = lt.ops
			lt.ops++
			lt.opDur = append(lt.opDur, float64(s.end-s.start))
		}
	}
	for i, s := range spans {
		op, ok := opIndex[s.req]
		if !ok || s.end == 0 {
			continue
		}
		name := t.names[s.name]
		vs := lt.perOp[name]
		if vs == nil {
			vs = make([]float64, lt.ops)
			lt.perOp[name] = vs
		}
		vs[op] += float64(self[i])
	}
	return lt
}

// median is the median over operations of a layer's self time, ns.
func (lt layerTimes) median(layer string) float64 { return medianF(lt.perOp[layer]) }

// write stores the spans as JSON, one object per span, for a reader that
// wants more than the medians.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns\",\"dropped\":%d,\"spans\":[\n", workload, seed, t.dropped.Load())
	var line []byte
	first := true
	for i, s := range t.recorded() {
		if s.end == 0 {
			continue
		}
		line = line[:0]
		if !first {
			line = append(line, ",\n"...)
		}
		first = false
		line = append(line, `{"id":`...)
		line = strconv.AppendInt(line, int64(i+1), 10)
		line = append(line, `,"name":`...)
		line = strconv.AppendQuote(line, t.names[s.name])
		line = append(line, `,"start":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, `,"request":`...)
		line = strconv.AppendInt(line, int64(s.req), 10)
		line = append(line, '}')
		_, _ = w.Write(line) // a write error surfaces at Flush
	}
	_, _ = w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
