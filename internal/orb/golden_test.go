package orb

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/transcript.txt from this build")

// peer is a raw-socket client: it writes frames the test chose and
// records, line by line, every frame the server writes back. It sees
// kinds, ids, codes, statuses and error-text bytes — what a client-side
// error would hide.
type peer struct {
	t    *testing.T
	conn net.Conn
	fr   *frameReader // over conn; one reader, so no frame is lost between expects
	lim  Limits
	log  *strings.Builder
}

// spentRE matches the one run-dependent span of server error text: how
// long past its budget a request was when it was shed.
var spentRE = regexp.MustCompile(`spent [0-9a-z.µ]+ before dispatch`)

func kindName(k byte) string {
	names := map[byte]string{kindRequest: "request", kindReply: "reply", kindOneway: "oneway",
		kindError: "error", kindCancel: "cancel", kindStreamOpen: "open",
		kindStreamChunk: "chunk", kindStreamClose: "close", kindStreamCredit: "credit"}
	if n, ok := names[k]; ok {
		return n
	}
	return fmt.Sprintf("kind%d", k)
}

// frameLine prints one frame. Every frame on the wire carries
// protoVersion (the reader rejects any other), so the version column is a
// constant kept for the transcript's continuity.
func frameLine(dir string, f frame) string {
	body := fmt.Sprintf("%q", spentRE.ReplaceAll(f.body, []byte("spent <D> before dispatch")))
	if len(f.body) > 64 {
		body = fmt.Sprintf("len=%d crc=%08x", len(f.body), crc32.ChecksumIEEE(f.body))
	}
	line := fmt.Sprintf("%s %-7s v%d id=%d op=%d", dir, kindName(f.kind), protoVersion, f.id, f.op)
	if f.key != "" {
		line += fmt.Sprintf(" key=%s", f.key)
	}
	if f.budget != 0 {
		line += fmt.Sprintf(" budget=%d", f.budget)
	}
	return line + " body=" + body + "\n"
}

func newPeer(t *testing.T, s *Server, log *strings.Builder) *peer {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	p := &peer{t: t, conn: conn, lim: Limits{}.withDefaults(), log: log}
	p.fr = newFrameReader(conn, p.lim, false)
	return p
}

// send writes one frame and records it.
func (p *peer) send(f frame) {
	p.t.Helper()
	p.log.WriteString(frameLine(">", f))
	if _, err := writeFrame(p.conn, f, p.lim); err != nil {
		p.t.Fatalf("write: %v", err)
	}
}

// sendTorn writes a budgeted frame's fixed header, where the server stamps
// the budget clock, and the rest once the server has read clk for that
// stamp and clk has moved 80ms on.
func (p *peer) sendTorn(f frame, clk *testutil.Clock) {
	p.t.Helper()
	p.log.WriteString(frameLine(">", f))
	const headLen = 18 + 4 // fixed head + budget field
	b, stamps := raw(p.t, f), clk.Reads()
	if _, err := p.conn.Write(b[:headLen]); err != nil {
		p.t.Fatal(err)
	}
	testutil.Eventually(p.t, "the header's stamp", func() bool { return clk.Reads() > stamps })
	clk.Advance(80 * time.Millisecond)
	if _, err := p.conn.Write(b[headLen:]); err != nil {
		p.t.Fatal(err)
	}
}

// expect reads and records the next n frames.
func (p *peer) expect(n int) []frame {
	p.t.Helper()
	var out []frame
	for i := 0; i < n; i++ {
		_ = p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := p.fr.read()
		if err != nil {
			p.t.Fatalf("read (frame %d of %d): %v\ntranscript so far:\n%s", i+1, n, err, p.log)
		}
		p.log.WriteString(frameLine("<", f))
		out = append(out, f)
	}
	return out
}

// quiet proves the server has written nothing more: a sentinel call's
// reply must be the very next frame.
func (p *peer) quiet() {
	p.t.Helper()
	p.send(frame{kind: kindRequest, id: 999, key: "ping"})
	if f := p.expect(1)[0]; f.id != 999 {
		p.t.Errorf("frame for id %d arrived where silence was expected", f.id)
	}
}

// goldenServer exports one handler per outcome a transcript row needs.
// entered receives a token each time a parking or oneway-observable
// handler starts, so the peer can order its next frame after it.
func goldenServer(t *testing.T, entered chan string, opts ...Option) *Server {
	t.Helper()
	s := startServer(t, opts...)
	note := func(name string) { entered <- name }
	s.Register("ping", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		return []byte("pong"), nil
	})
	s.Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		note("echo")
		return append([]byte{byte(op)}, body...), nil
	})
	s.Register("err", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		note("err")
		return nil, errors.New("kaboom")
	})
	s.Register("panic", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		note("panic")
		panic("boom")
	})
	// park holds its in-flight slot until its context ends (budget or
	// cancel frame) and reports the context's verdict.
	s.Register("park", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		note("park")
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s.RegisterStream("echo", streamEcho)
	// sink counts the request body and replies with the count.
	s.RegisterStream("sink", func(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error {
		n, err := io.Copy(io.Discard, in)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%d", n)
		return err
	})
	// big replies with 96 KiB: more than the initial credit, so the
	// second chunk waits for the peer's grant.
	s.RegisterStream("big", func(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error {
		if _, err := io.Copy(io.Discard, in); err != nil {
			return err
		}
		_, err := out.Write(bytes.Repeat([]byte{0xAB}, 96<<10))
		return err
	})
	s.RegisterStream("err", func(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error {
		if _, err := io.Copy(io.Discard, in); err != nil {
			return err
		}
		if op == 1 {
			if _, err := out.Write([]byte("abc")); err != nil {
				return err
			}
		}
		return errors.New("kaboom")
	})
	s.RegisterStream("panic", func(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error {
		panic("boom")
	})
	// park: op 0 blocks on the request body (a cancel frame or a dead
	// connection fails the read), op 1 writes a chunk first and op 2
	// nothing, then both wait out the context and report its verdict.
	s.RegisterStream("park", func(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error {
		note("park")
		if op == 0 {
			_, err := io.Copy(io.Discard, in)
			return err
		}
		if op == 1 {
			if _, err := out.Write([]byte("abc")); err != nil {
				return err
			}
		}
		<-ctx.Done()
		return ctx.Err()
	})
	return s
}

// TestGoldenTranscript replays, over a raw socket, each call kind
// against each outcome and compares every frame the server wrote back
// with testdata/golden/transcript.txt. The file was captured at the
// commit before the one-dispatch-path rewrite; the rows that differ from
// that capture are the drifts CHANGES.md names at 06bf690. A request row runs with
// no budget (0 on the wire) or with one.
func TestGoldenTranscript(t *testing.T) {
	const far = 60000 // a budget (ms) no row outlives
	reqBudget := func(id uint64, key string, budget uint32) frame {
		return frame{kind: kindRequest, id: id, key: key, op: 7, body: []byte("hi"), budget: budget}
	}
	req := func(id uint64, key string) frame { return reqBudget(id, key, 0) }
	oneway := func(key string) frame { return frame{kind: kindOneway, key: key, op: 7, body: []byte("hi")} }
	open := func(id uint64, key string, op, budget uint32) frame {
		return frame{kind: kindStreamOpen, id: id, key: key, op: op, budget: budget}
	}
	chunk := func(id uint64, b []byte) frame { return frame{kind: kindStreamChunk, id: id, body: b} }
	closeOK := func(id uint64) frame { return frame{kind: kindStreamClose, id: id} }
	cancel := func(id uint64) frame { return frame{kind: kindCancel, id: id} }

	type row struct {
		name string
		opts []Option
		run  func(p *peer, entered chan string)
	}
	// atCap parks one request on a one-slot connection, runs probe, then
	// frees the slot with a cancel frame and reads the parked call's end.
	atCap := func(probe func(p *peer)) func(p *peer, entered chan string) {
		return func(p *peer, entered chan string) {
			p.send(req(1, "park"))
			<-entered
			probe(p)
			p.send(cancel(1))
			p.expect(1)
		}
	}
	capOne := []Option{WithMaxPerConn(1)}
	torn := testutil.NewClock()
	onTorn := []Option{withClock(torn)}
	rows := []row{
		{"request, no budget / served", nil, func(p *peer, e chan string) { p.send(req(1, "echo")); p.expect(1) }},
		{"request, budget / served", nil, func(p *peer, e chan string) { p.send(reqBudget(1, "echo", far)); p.expect(1) }},
		{"oneway / served", nil, func(p *peer, e chan string) { p.send(oneway("echo")); <-e; p.quiet() }},
		{"open / served, credit top-up from the server", nil, func(p *peer, e chan string) {
			p.send(open(1, "sink", 0, far))
			p.expect(1) // window top-up
			for i := 0; i < 5; i++ {
				p.send(chunk(1, bytes.Repeat([]byte{byte(i)}, 64<<10)))
			}
			p.send(closeOK(1))
			p.expect(3) // re-grant, count chunk, close
		}},
		{"open / served, credit top-up from the peer", nil, func(p *peer, e chan string) {
			p.send(open(1, "big", 0, 0))
			p.send(closeOK(1))
			p.expect(2) // window top-up, first 64 KiB
			p.send(frame{kind: kindStreamCredit, id: 1, op: 64 << 10})
			p.expect(2) // the rest, close
		}},
		{"open / echo", nil, func(p *peer, e chan string) {
			p.send(open(1, "echo", 0, 0))
			p.expect(1)
			p.send(chunk(1, []byte("hello")))
			p.expect(1)
			p.send(closeOK(1))
			p.expect(1)
		}},

		{"request, no budget / handler error", nil, func(p *peer, e chan string) { p.send(req(1, "err")); p.expect(1) }},
		{"request, budget / handler error", nil, func(p *peer, e chan string) { p.send(reqBudget(1, "err", far)); p.expect(1) }},
		{"oneway / handler error", nil, func(p *peer, e chan string) { p.send(oneway("err")); <-e; p.quiet() }},
		{"open / stream error before the first reply chunk", nil, func(p *peer, e chan string) {
			p.send(open(1, "err", 0, 0))
			p.send(closeOK(1))
			p.expect(2)
		}},
		{"open / stream error after the first reply chunk", nil, func(p *peer, e chan string) {
			p.send(open(1, "err", 1, 0))
			p.send(closeOK(1))
			p.expect(3)
		}},

		{"request, no budget / handler panic", nil, func(p *peer, e chan string) { p.send(req(1, "panic")); p.expect(1) }},
		{"request, budget / handler panic", nil, func(p *peer, e chan string) { p.send(reqBudget(1, "panic", far)); p.expect(1) }},
		{"oneway / handler panic", nil, func(p *peer, e chan string) { p.send(oneway("panic")); <-e; p.quiet() }},
		{"open / handler panic", nil, func(p *peer, e chan string) { p.send(open(1, "panic", 0, 0)); p.expect(2) }},

		{"request, no budget / no object", nil, func(p *peer, e chan string) { p.send(req(1, "ghost")); p.expect(1) }},
		{"request, budget / no object", nil, func(p *peer, e chan string) { p.send(reqBudget(1, "ghost", far)); p.expect(1) }},
		{"oneway / no object", nil, func(p *peer, e chan string) { p.send(oneway("ghost")); p.quiet() }},
		{"open / no object", nil, func(p *peer, e chan string) { p.send(open(1, "ghost", 0, 0)); p.expect(1) }},

		{"request, no budget / shed at the cap", capOne, atCap(func(p *peer) { p.send(req(2, "echo")); p.expect(1) })},
		{"request, budget / shed at the cap", capOne, atCap(func(p *peer) { p.send(reqBudget(2, "echo", far)); p.expect(1) })},
		{"oneway / shed at the cap", capOne, atCap(func(p *peer) { p.send(oneway("echo")) })},
		{"open / shed at the cap", capOne, atCap(func(p *peer) { p.send(open(2, "echo", 0, 0)); p.expect(1) })},
		{"request, no budget / no object while at the cap", capOne, atCap(func(p *peer) { p.send(req(2, "ghost")); p.expect(1) })},
		{"open / no object while at the cap", capOne, atCap(func(p *peer) { p.send(open(2, "ghost", 0, 0)); p.expect(1) })},

		{"request, budget / budget spent before dispatch", onTorn, func(p *peer, e chan string) {
			p.sendTorn(reqBudget(1, "echo", 20), torn)
			p.expect(1)
		}},
		{"open / budget spent before dispatch", onTorn, func(p *peer, e chan string) {
			p.sendTorn(open(1, "echo", 0, 20), torn)
			p.expect(1)
		}},
		{"request, budget / budget spent before dispatch, no object", onTorn, func(p *peer, e chan string) {
			p.sendTorn(reqBudget(1, "ghost", 20), torn)
			p.expect(1)
		}},

		{"request, budget / budget spent mid-handler", nil, func(p *peer, e chan string) { p.send(reqBudget(1, "park", 30)); p.expect(1) }},
		{"open / budget spent mid-handler, before the first reply chunk", nil, func(p *peer, e chan string) {
			p.send(open(1, "park", 2, 30))
			p.expect(2)
		}},
		{"open / budget spent mid-handler, after the first reply chunk", nil, func(p *peer, e chan string) {
			p.send(open(1, "park", 1, 30))
			p.expect(3)
		}},

		{"request, no budget / cancel frame", nil, func(p *peer, e chan string) {
			p.send(req(1, "park"))
			<-e
			p.send(cancel(1))
			p.expect(1)
		}},
		{"request, budget / cancel frame", nil, func(p *peer, e chan string) {
			p.send(reqBudget(1, "park", far))
			<-e
			p.send(cancel(1))
			p.expect(1)
		}},
		{"open / cancel frame", nil, func(p *peer, e chan string) {
			p.send(open(1, "park", 0, 0))
			<-e
			p.expect(1)
			p.send(cancel(1))
			p.expect(1)
		}},
		{"cancel frame / no such call", nil, func(p *peer, e chan string) { p.send(cancel(5)); p.quiet() }},
		{"chunk, close, credit / no such stream", nil, func(p *peer, e chan string) {
			p.send(chunk(5, []byte("stray")))
			p.send(closeOK(5))
			p.send(frame{kind: kindStreamCredit, id: 5, op: 10})
			p.quiet()
		}},

		// Not in the capture: at that commit a second frame with a live
		// id orphaned the first call (see TestDuplicateID), so these two
		// rows could not be recorded without hanging the server's Close.
		{"request, no budget / duplicate live id", nil, func(p *peer, e chan string) {
			p.send(req(1, "park"))
			<-e
			p.send(req(1, "echo"))
			p.expect(1)
			p.send(cancel(1))
			p.expect(1)
		}},
		{"open / duplicate live id", nil, func(p *peer, e chan string) {
			p.send(open(1, "park", 0, 0))
			<-e
			p.expect(1)
			p.send(open(1, "echo", 0, 0))
			p.expect(1)
			p.send(cancel(1))
			p.expect(1)
		}},
	}
	var got strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&got, "== %s\n", r.name)
		entered := make(chan string, 8)
		s := goldenServer(t, entered, r.opts...)
		p := newPeer(t, s, &got)
		r.run(p, entered)
		_ = p.conn.Close()
		_ = s.Close()
	}
	const path = "testdata/golden/transcript.txt"
	if *updateGolden {
		if err := os.MkdirAll("testdata/golden", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("transcript differs from %s (rerun with -update to inspect):\n%s", path, sectionDiff(string(want), got.String()))
	}
}

// sectionDiff prints each "== row" section two transcripts disagree on,
// whole, so a row that gained or lost a frame does not misalign the rest.
func sectionDiff(want, got string) string {
	split := func(s string) (names []string, text map[string]string) {
		text = map[string]string{}
		for _, sec := range strings.Split(s, "== ")[1:] {
			name, _, _ := strings.Cut(sec, "\n")
			names = append(names, name)
			text[name] = sec
		}
		return names, text
	}
	wn, wt := split(want)
	gn, gt := split(got)
	var out strings.Builder
	for _, name := range gn {
		if wt[name] != gt[name] {
			fmt.Fprintf(&out, "want == %sgot  == %s", wt[name], gt[name])
		}
	}
	for _, name := range wn {
		if _, ok := gt[name]; !ok {
			fmt.Fprintf(&out, "missing == %s", wt[name])
		}
	}
	return out.String()
}
