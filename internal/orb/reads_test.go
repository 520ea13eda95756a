package orb

import (
	"bytes"
	"context"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// readRec is one Read that returned data: how much was asked for and how
// much came.
type readRec struct{ want, got int }

// readLog wraps one end of a net.Pipe and records every Read that
// returned data. A pipe delivers each Write to as many Reads as it takes
// and to nothing else, so the counts below are exact and repeat: they
// are what a frame costs when it arrives whole, as a small frame on
// loopback does.
type readLog struct {
	net.Conn
	mu    sync.Mutex
	reads []readRec
}

func (c *readLog) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		c.reads = append(c.reads, readRec{len(p), n})
		c.mu.Unlock()
	}
	return n, err
}

// take returns the reads since the last take, once they have brought in
// the n bytes the peer wrote since then: the write that a read completes
// can return before the read is in the log.
func (c *readLog) take(t *testing.T, n int) []readRec {
	t.Helper()
	var out []readRec
	testutil.Eventually(t, "the reads to be logged", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		got := 0
		for _, r := range c.reads {
			got += r.got
		}
		if got < n {
			return false
		}
		out, c.reads = c.reads, nil
		return true
	})
	return out
}

// rawPeer is the far end of the pipe: it writes raw bytes and collects
// every frame the endpoint under test writes, so that endpoint never
// blocks on a pipe write.
type rawPeer struct {
	t      *testing.T
	conn   net.Conn
	frames chan frame
}

func newRawPeer(t *testing.T, conn net.Conn) *rawPeer {
	p := &rawPeer{t: t, conn: conn, frames: make(chan frame, 64)}
	go func() {
		defer close(p.frames)
		for fr := newFrameReader(conn, Limits{}.withDefaults(), false); ; {
			f, err := fr.read()
			if err != nil {
				return
			}
			p.frames <- f
		}
	}()
	t.Cleanup(func() {
		_ = conn.Close()
		for range p.frames {
		}
	})
	return p
}

// next returns the next frame of the given kind, dropping others (credit
// grants arrive when they arrive).
func (p *rawPeer) next(kind byte) frame {
	p.t.Helper()
	for {
		select {
		case f, ok := <-p.frames:
			if !ok {
				p.t.Fatalf("connection ended waiting for a frame of kind %d", kind)
			}
			if f.kind == kind {
				return f
			}
		case <-time.After(5 * time.Second):
			p.t.Fatalf("no frame of kind %d", kind)
		}
	}
}

// raw is f's wire image.
func raw(t *testing.T, f frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, f, Limits{}.withDefaults()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// write puts b on the pipe in one Write, which returns once the endpoint
// under test has taken all of it, and returns b's length.
func (p *rawPeer) write(b []byte) int {
	p.t.Helper()
	if _, err := p.conn.Write(b); err != nil {
		p.t.Fatal(err)
	}
	return len(b)
}

// attach serves conn on s as acceptLoop would.
func attach(s *Server, conn net.Conn) *serverConn {
	sc := &serverConn{s: s, conn: conn, calls: make(map[uint64]*call), work: make(chan *call)}
	s.mu.Lock()
	s.conns[conn] = sc
	s.mu.Unlock()
	s.wg.Add(1)
	go sc.serve()
	return sc
}

// pipeConn serves one end of a pipe on s, wrapped, and returns the other.
func pipeConn(t *testing.T, s *Server, wrap func(net.Conn) net.Conn) *rawPeer {
	t.Helper()
	near, far := net.Pipe()
	attach(s, wrap(near))
	return newRawPeer(t, far)
}

// pipeClient runs a client, as DialContext builds one, over one end of a
// pipe, wrapped unless wrap is nil, and returns it with the other end.
func pipeClient(t *testing.T, wrap func(net.Conn) net.Conn) (*Client, *rawPeer) {
	t.Helper()
	near, far := net.Pipe()
	if wrap != nil {
		near = wrap(near)
	}
	c := &Client{conn: near, lim: Limits{}.withDefaults(), pending: make(map[uint64]waiter), done: make(chan struct{})}
	go c.readLoop()
	t.Cleanup(func() { _ = c.Close() })
	return c, newRawPeer(t, far)
}

const chunkHdr = 18 + 8 // a chunk frame has no key and no budget

// TestReadsPerFrame pins what a frame costs its reader in Read calls that
// return data. At 48792ef, where the frame reader read each header field
// straight off the connection, the counts were
//
//	                                          server  client
//	(a) request: key, budget, 8-byte body        5       -
//	(b) reply, 8-byte body                       -       3
//	(c) 64 KiB stream chunk, up to its body      2       2
//
// (head, budget, key, tail, body; head, tail, body; head, tail). Through
// the connection's buffer each is 1, and a body as large as the buffer is
// still read into its destination directly: only what arrived with the
// header passes through the buffer.
func TestReadsPerFrame(t *testing.T) {
	body8 := []byte("8 bytes.")
	chunk := bytes.Repeat([]byte{0xA5}, 64<<10)
	// A chunk frame arriving whole fills the buffer once — the header, so
	// (c) is 1, and the body's first bytes — and the rest lands in place in
	// one read.
	chunkWhole := []readRec{{readBufSize, readBufSize}, {len(chunk) - (readBufSize - chunkHdr), len(chunk) - (readBufSize - chunkHdr)}}

	t.Run("server", func(t *testing.T) {
		s := startServer(t)
		s.Register("echo", func(_ context.Context, _ uint32, b []byte) ([]byte, error) { return b, nil })
		sunk := make(chan int, 1)
		s.RegisterStream("sink", func(_ context.Context, _ uint32, in *StreamReader, _ *StreamWriter) error {
			n, err := io.Copy(io.Discard, in)
			sunk <- int(n)
			return err
		})
		var log *readLog
		p := pipeConn(t, s, func(c net.Conn) net.Conn { log = &readLog{Conn: c}; return log })

		n := p.write(raw(t, frame{kind: kindRequest, id: 1, key: "echo", budget: 5000, op: 1, body: body8}))
		if f := p.next(kindReply); !bytes.Equal(f.body, body8) {
			t.Fatalf("echo = %q", f.body)
		}
		if got := log.take(t, n); len(got) != 1 {
			t.Errorf("(a) request: %d reads %v, want 1", len(got), got)
		}

		log.take(t, p.write(raw(t, frame{kind: kindStreamOpen, id: 2, key: "sink", op: 1})))
		p.next(kindStreamCredit) // the handler's top-up: two chunks overrun the initial credit
		// As writeFrame puts a large body on a pipe: header, then body. The
		// body finds the buffer empty and never touches it.
		whole := raw(t, frame{kind: kindStreamChunk, id: 2, body: chunk})
		p.write(whole[:chunkHdr])
		p.write(whole[chunkHdr:])
		if got, want := log.take(t, len(whole)), []readRec{{readBufSize, chunkHdr}, {len(chunk), len(chunk)}}; !reflect.DeepEqual(got, want) {
			t.Errorf("(c) chunk, header then body: reads %v, want %v", got, want)
		}
		// As a TCP writev delivers it: header and body together.
		if got := log.take(t, p.write(whole)); !reflect.DeepEqual(got, chunkWhole) {
			t.Errorf("(c) chunk, whole: reads %v, want %v", got, chunkWhole)
		}
		p.write(raw(t, frame{kind: kindStreamClose, id: 2}))
		p.next(kindStreamClose)
		if n := <-sunk; n != 2*len(chunk) {
			t.Errorf("handler read %d bytes, want %d", n, 2*len(chunk))
		}
	})

	t.Run("client", func(t *testing.T) {
		var log *readLog
		c, p := pipeClient(t, func(conn net.Conn) net.Conn { log = &readLog{Conn: conn}; return log })

		replied := make(chan []byte, 1)
		go func() {
			b, _ := c.Invoke("echo", 1, body8)
			replied <- b
		}()
		req := p.next(kindRequest)
		n := p.write(raw(t, frame{kind: kindReply, id: req.id, body: body8}))
		if b := <-replied; !bytes.Equal(b, body8) {
			t.Fatalf("reply = %q", b)
		}
		if got := log.take(t, n); len(got) != 1 {
			t.Errorf("(b) reply: %d reads %v, want 1", len(got), got)
		}

		st, err := c.OpenStream(context.Background(), "src", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		open := p.next(kindStreamOpen)
		if got := log.take(t, p.write(raw(t, frame{kind: kindStreamChunk, id: open.id, body: chunk}))); !reflect.DeepEqual(got, chunkWhole) {
			t.Errorf("(c) chunk, whole: reads %v, want %v", got, chunkWhole)
		}
		p.write(raw(t, frame{kind: kindStreamClose, id: open.id}))
		if b, err := io.ReadAll(st); err != nil || !bytes.Equal(b, chunk) {
			t.Errorf("stream reply: %d bytes, %v", len(b), err)
		}
	})

	// A body exactly as large as the buffer, behind its header: the buffer
	// fills once, so the body's last bytes are still to come, and they are
	// read into place, not through a second fill.
	t.Run("body as large as the buffer", func(t *testing.T) {
		body := bytes.Repeat([]byte{0x5A}, readBufSize)
		log := &readLog{Conn: pipeOf(t, raw(t, frame{kind: kindReply, id: 1, body: body}))}
		f, err := newFrameReader(log, Limits{}.withDefaults(), true).read()
		if err != nil || !bytes.Equal(f.body, body) {
			t.Fatalf("read: %d bytes, %v", len(f.body), err)
		}
		if got, want := log.take(t, chunkHdr+len(body)), []readRec{{readBufSize, readBufSize}, {chunkHdr, chunkHdr}}; !reflect.DeepEqual(got, want) {
			t.Errorf("reads %v, want %v", got, want)
		}
	})
}

// pipeOf returns the reading end of a pipe onto which b is written whole.
func pipeOf(t *testing.T, b []byte) net.Conn {
	near, far := net.Pipe()
	go func() {
		_, _ = far.Write(b)
		_ = far.Close()
	}()
	t.Cleanup(func() { _ = near.Close(); _ = far.Close() })
	return near
}
