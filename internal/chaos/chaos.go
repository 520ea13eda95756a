// Package chaos is a fault-injecting TCP proxy for exercising the
// orb/broker transport stack under network failure. It sits between an
// orb client and server and injects the fault classes a resilient
// client must survive: added latency (with jitter), partial writes
// (small forwarded chunks), connection resets, black-holing (bytes
// silently swallowed while the connection stays open), and mid-stream
// truncation. It is used as a library by the resil/broker test
// matrices and as a standalone binary via cmd/mbirdchaos.
//
// Fault budgets (ResetAfter, BlackholeAfter, TruncateAfter) are counted
// per proxied connection, over both directions combined, so "the first
// call survives, the second dies mid-flight" scenarios are expressible
// by sizing the budget between one and two calls' traffic.
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Faults configures what the proxy does to traffic. The zero value
// forwards faithfully.
type Faults struct {
	// Latency is added before each forwarded chunk.
	Latency time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter).
	Jitter time.Duration
	// ChunkSize forwards at most this many bytes per write (partial
	// writes); 0 forwards whole reads.
	ChunkSize int
	// ResetAfter hard-resets the connection pair (SO_LINGER 0, so the
	// peer sees ECONNRESET where the platform supports it) once this
	// many bytes have been forwarded; 0 disables.
	ResetAfter int64
	// BlackholeAfter silently discards all traffic after this many
	// forwarded bytes while keeping both connections open; 0 disables.
	BlackholeAfter int64
	// TruncateAfter closes the connection pair cleanly once this many
	// bytes have been forwarded, truncating any frame in progress; 0
	// disables.
	TruncateAfter int64
	// StallAfter wedges the connection pair once this many bytes have
	// been forwarded: instead of closing, the proxy trickles one byte
	// per StallInterval while both connections stay open — a peer that
	// is alive but stuck, the gray failure deadline budgets and circuit
	// breakers exist for, which resets and truncations (loud, immediate
	// errors) cannot exercise. 0 disables.
	StallAfter int64
	// StallInterval is the per-byte trickle delay once stalled
	// (default 100ms).
	StallInterval time.Duration
	// DropOnAccept resets every accepted connection immediately,
	// before any bytes flow.
	DropOnAccept bool
}

// stallInterval returns the trickle delay, defaulted.
func (f Faults) stallInterval() time.Duration {
	if f.StallInterval > 0 {
		return f.StallInterval
	}
	return 100 * time.Millisecond
}

// Stats counts what the proxy has done.
type Stats struct {
	Accepted       int64
	ForwardedBytes int64
	Resets         int64
	Blackholes     int64
	Truncations    int64
	Stalls         int64
}

// Proxy is a single-target fault-injecting TCP forwarder.
type Proxy struct {
	target string
	ln     net.Listener
	stop   chan struct{}

	mu     sync.Mutex
	faults Faults
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	live Stats // bumped with sync/atomic; Stats loads it
}

// New starts a proxy listening on listenAddr (e.g. "127.0.0.1:0")
// forwarding to target with the given faults.
func New(listenAddr, target string, f Faults) (*Proxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	p := &Proxy{
		target: target,
		ln:     ln,
		stop:   make(chan struct{}),
		faults: f,
		conns:  make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listening address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetFaults swaps the fault configuration. Connections pick up the new
// faults at their next forwarded chunk; per-connection byte budgets are
// not reset.
func (p *Proxy) SetFaults(f Faults) {
	p.mu.Lock()
	p.faults = f
	p.mu.Unlock()
}

// Faults returns the current fault configuration.
func (p *Proxy) Faults() Faults {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.faults
}

// Stats returns a snapshot of the proxy's counters.
func (p *Proxy) Stats() Stats { return metrics.Load(&p.live) }

// Close stops the listener, severs every proxied connection, and waits
// for the forwarding goroutines to exit.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.stop)
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		atomic.AddInt64(&p.live.Accepted, 1)
		if p.Faults().DropOnAccept {
			atomic.AddInt64(&p.live.Resets, 1)
			reset(down)
			continue
		}
		up, err := net.DialTimeout("tcp", p.target, 5*time.Second)
		if err != nil {
			_ = down.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = down.Close()
			_ = up.Close()
			return
		}
		p.conns[down] = struct{}{}
		p.conns[up] = struct{}{}
		p.mu.Unlock()

		// One shared byte budget and one shared teardown per proxied
		// connection pair. The teardown counts its cause — once, and
		// before either peer can observe it — so two legs crossing the
		// same budget are one reset, not two.
		var used atomic.Int64
		var once sync.Once
		closeBoth := func(rst bool, cause *int64) {
			once.Do(func() {
				if cause != nil {
					atomic.AddInt64(cause, 1)
				}
				if rst {
					reset(down)
					reset(up)
				} else {
					_ = down.Close()
					_ = up.Close()
				}
				p.mu.Lock()
				delete(p.conns, down)
				delete(p.conns, up)
				p.mu.Unlock()
			})
		}
		p.wg.Add(2)
		go p.pipe(up, down, &used, closeBoth)
		go p.pipe(down, up, &used, closeBoth)
	}
}

// reset closes a TCP connection abortively (RST) where supported.
func reset(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Close()
}

// pipe forwards src→dst applying the current faults per chunk. Once the
// pair is black-holed it keeps draining src (so both endpoints see a
// live connection) without forwarding anything.
func (p *Proxy) pipe(dst, src net.Conn, used *atomic.Int64, closeBoth func(rst bool, cause *int64)) {
	defer p.wg.Done()
	buf := make([]byte, 32<<10)
	blackholed := false
	stalled := false
	for {
		nr, err := src.Read(buf)
		if nr > 0 && !blackholed {
			data := buf[:nr]
			for len(data) > 0 {
				f := p.Faults()
				chunk := data
				if f.ChunkSize > 0 && len(chunk) > f.ChunkSize {
					chunk = chunk[:f.ChunkSize]
				}
				prev := used.Load()
				if f.BlackholeAfter > 0 && prev >= f.BlackholeAfter {
					atomic.AddInt64(&p.live.Blackholes, 1)
					blackholed = true
					break
				}
				if f.TruncateAfter > 0 && prev >= f.TruncateAfter {
					closeBoth(false, &p.live.Truncations)
					return
				}
				if f.ResetAfter > 0 && prev >= f.ResetAfter {
					closeBoth(true, &p.live.Resets)
					return
				}
				if f.StallAfter > 0 && prev >= f.StallAfter {
					// Wedged: trickle one byte per interval. The read
					// loop keeps running, so both peers still see a
					// live, glacially slow connection.
					if !stalled {
						stalled = true
						atomic.AddInt64(&p.live.Stalls, 1)
					}
					chunk = chunk[:1]
					if !p.sleepFor(f.stallInterval()) {
						closeBoth(false, nil)
						return
					}
				} else {
					// Clip the chunk so each budget trips exactly at its
					// boundary (delivering the torn prefix first).
					for _, lim := range []int64{f.ResetAfter, f.TruncateAfter, f.BlackholeAfter, f.StallAfter} {
						if lim > 0 && int64(len(chunk)) > lim-prev {
							chunk = chunk[:lim-prev]
						}
					}
				}
				if !p.sleep(f) {
					closeBoth(false, nil)
					return
				}
				if _, err := dst.Write(chunk); err != nil {
					closeBoth(false, nil)
					return
				}
				used.Add(int64(len(chunk)))
				atomic.AddInt64(&p.live.ForwardedBytes, int64(len(chunk)))
				data = data[len(chunk):]
			}
		}
		if err != nil {
			if !blackholed {
				closeBoth(false, nil)
			}
			return
		}
	}
}

// sleep applies latency+jitter, returning false if the proxy closed
// while waiting.
func (p *Proxy) sleep(f Faults) bool {
	d := f.Latency
	if f.Jitter > 0 {
		d += time.Duration(rand.Int63n(int64(f.Jitter)))
	}
	return p.sleepFor(d)
}

// sleepFor waits d, returning false if the proxy closed while waiting.
func (p *Proxy) sleepFor(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.stop:
		return false
	}
}
