package orb

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestGateTable drives the one admission gate with a raw-socket peer:
// one row per outcome (and per pair of outcomes whose order matters),
// one column per frame kind that passes the gate. It asserts frames —
// kind, code and text bytes — not client-side errors, plus the counter
// each refusal bumps, that a refused frame's handler never ran, and that
// the call parked beside it was left untouched.
func TestGateTable(t *testing.T) {
	capOne := []Option{WithMaxPerConn(1)}
	rows := []struct {
		name   string
		opts   []Option
		park   bool // a request with id 0 is in flight when the probe arrives
		id     uint64
		key    string
		budget uint32 // > 0: sent torn, so it is spent before dispatch
		// wantText is the refusal's error text ("*" stands for "stream "
		// in the stream column's no-object text); empty means admitted.
		wantCode uint32
		wantText string
		want     ServerStats
	}{
		{name: "budget spent before dispatch", id: 2, key: "echo", budget: 20,
			wantCode: codeErrExpired, wantText: "budget of 20ms spent", want: ServerStats{Expired: 1}},
		{name: "a spent budget outranks the cap", opts: capOne, park: true, id: 2, key: "echo", budget: 20,
			wantCode: codeErrExpired, wantText: "budget of 20ms spent", want: ServerStats{Expired: 1}},
		{name: "shed at the cap", opts: capOne, park: true, id: 2, key: "echo",
			wantCode: codeErrOverloaded, wantText: "connection exceeds 1 concurrent requests", want: ServerStats{Shed: 1}},
		{name: "the cap outranks a missing object", opts: capOne, park: true, id: 2, key: "ghost",
			wantCode: codeErrOverloaded, wantText: "connection exceeds 1 concurrent requests", want: ServerStats{Shed: 1}},
		{name: "no object", id: 2, key: "ghost", wantCode: codeErrUnavailable, wantText: `no *object "ghost"`},
		{name: "a missing object outranks a duplicate id", park: true, id: 0, key: "ghost",
			wantCode: codeErrUnavailable, wantText: `no *object "ghost"`},
		{name: "duplicate live id", park: true, id: 0, key: "echo",
			wantText: "id 0 names a call still in flight on this connection"},
		{name: "admitted", id: 2, key: "echo"},
	}
	for _, r := range rows {
		for _, kind := range []byte{kindRequest, kindOneway, kindStreamOpen} {
			if kind == kindOneway && r.budget > 0 {
				continue // a oneway frame has no budget field
			}
			t.Run(r.name+"/"+kindName(kind), func(t *testing.T) {
				entered := make(chan string, 8)
				clk := testutil.NewClock()
				s := goldenServer(t, entered, append([]Option{withClock(clk)}, r.opts...)...)
				var log strings.Builder
				p := newPeer(t, s, &log)
				if r.park {
					p.send(frame{kind: kindRequest, id: 0, key: "park"})
					<-entered
				}
				probe := frame{kind: kind, id: r.id, key: r.key, op: 7, budget: r.budget}
				if r.budget > 0 {
					p.sendTorn(probe, clk)
				} else {
					p.send(probe)
				}
				// A oneway shares id 0 with every other oneway and is never
				// a duplicate, and it has no reply to carry a refusal.
				refused := r.wantText != "" && !(kind == kindOneway && strings.HasPrefix(r.wantText, "id 0"))
				switch {
				case refused && kind == kindOneway:
				case refused:
					stream := ""
					if kind == kindStreamOpen {
						stream = "stream "
					}
					text := strings.Replace(r.wantText, "*", stream, 1)
					f := p.expect(1)[0]
					if f.kind != kindError || f.id != r.id || f.op != r.wantCode || !strings.HasPrefix(string(f.body), text) {
						t.Errorf("refusal = %swant error id=%d op=%d body=%q…", frameLine("<", f), r.id, r.wantCode, text)
					}
				case kind == kindRequest:
					if f := p.expect(1)[0]; f.kind != kindReply || f.id != r.id || string(f.body) != "\a" {
						t.Errorf("reply = %s", frameLine("<", f))
					}
				case kind == kindStreamOpen:
					p.send(frame{kind: kindStreamClose, id: r.id})
					if fs := p.expect(2); fs[0].kind != kindStreamCredit || fs[1].kind != kindStreamClose || fs[1].op != 0 {
						t.Errorf("stream = %s%s", frameLine("<", fs[0]), frameLine("<", fs[1]))
					}
				}
				if r.park {
					// The call beside the probe is still there to cancel.
					p.send(frame{kind: kindCancel, id: 0})
					if f := p.expect(1)[0]; f.kind != kindError || f.id != 0 || string(f.body) != "context canceled" {
						t.Errorf("parked call ended with %s", frameLine("<", f))
					}
				}
				p.quiet() // the gate has seen every frame above, and wrote nothing else
				wantRan := !refused && kind != kindStreamOpen
				select {
				case name := <-entered:
					if !wantRan {
						t.Errorf("handler %q ran for a refused frame", name)
					}
				default:
					if wantRan {
						t.Error("handler never ran for an admitted frame")
					}
				}
				want := r.want
				if !refused {
					want = ServerStats{}
				}
				if r.park {
					want.Canceled = 1
				}
				if got := s.Stats(); got != want {
					t.Errorf("stats = %+v, want %+v", got, want)
				}
			})
		}
	}
}

// TestDuplicateID is the regression test for the remote hang: a peer
// that reuses a live id used to replace the first call's table entry, so
// nothing — cancel frame, connection death, Shutdown — could reach the
// first handler again and Server.Close blocked forever waiting for it.
func TestDuplicateID(t *testing.T) {
	request := frame{kind: kindRequest, id: 7, key: "park"}
	open := frame{kind: kindStreamOpen, id: 7, key: "park"}
	closeNow := func(s *Server) { _ = s.Close() }
	shutdown := func(s *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = s.Shutdown(ctx)
	}
	for _, tc := range []struct {
		name  string
		first frame
		drop  bool // the peer goes away before the server stops
		stop  func(s *Server)
	}{
		{"request, peer drops, Close", request, true, closeNow},
		{"open, peer drops, Close", open, true, closeNow},
		{"open, peer drops, Shutdown", open, true, shutdown},
		// A live stream is failed, not drained (a parked unary call would
		// be drained, and only ends with its context).
		{"open, peer stays, Shutdown", open, false, shutdown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			entered := make(chan string, 8)
			s := goldenServer(t, entered)
			var log strings.Builder
			p := newPeer(t, s, &log)
			p.send(tc.first)
			<-entered
			if tc.first.kind == kindStreamOpen {
				p.expect(1) // window top-up
			}
			p.send(tc.first)
			if f := p.expect(1)[0]; f.kind != kindError || f.id != 7 || !strings.Contains(string(f.body), "still in flight") {
				t.Fatalf("second frame with the live id answered with %s", frameLine("<", f))
			}
			if tc.drop {
				_ = p.conn.Close()
			}
			done := make(chan struct{})
			go func() {
				tc.stop(s)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatal("the server was still stopping a second after the peer reused id 7")
			}
		})
	}
}
