package orb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// fuzzFrame is one scripted frame and the version byte it goes out with.
type fuzzFrame struct {
	frame
	ver byte
}

// fuzzFrames decodes a fuzzer-chosen script into frames, well-formed but
// for the version byte: four bytes each — kind (every kind, and two
// unknown ones) in the low nibble and the version byte's distance from
// protoVersion (an xor) in the high one, id from {0,1,2} with key and
// budget bits, op, body length ≤ 64 — followed by the body bytes
// (zero-padded when the script runs out).
func fuzzFrames(script []byte) []fuzzFrame {
	keys := [4]string{"u", "s", "ghost", "u"}
	var out []fuzzFrame
	for len(script) >= 4 {
		b := script[:4]
		script = script[4:]
		f := frame{kind: (b[0] & 15) % 12, id: uint64(b[1]&3) % 3, key: keys[b[1]>>2&3], op: uint32(b[2])}
		if b[1]&0x10 != 0 {
			// Only requests and opens carry the budget field; small
			// budgets make some frames expire before dispatch.
			f.budget = uint32(b[1]>>5) * 10
		}
		body := make([]byte, b[3]%65)
		script = script[copy(body, script):]
		f.body = body
		out = append(out, fuzzFrame{f, protoVersion ^ b[0]>>4})
	}
	return out
}

// fuzzScript is fuzzFrames' inverse for the seed corpus; every frame
// carries protoVersion.
func fuzzScript(cut byte, frames ...frame) []byte {
	keys := map[string]byte{"u": 0, "s": 1, "ghost": 2}
	script := []byte{cut}
	for _, f := range frames {
		b1 := byte(f.id) | keys[f.key]<<2
		if f.budget > 0 {
			b1 |= 0x10 | byte(f.budget/10)<<5
		}
		script = append(script, f.kind, b1, byte(f.op), byte(len(f.body)))
		script = append(script, f.body...)
	}
	return script
}

// FuzzServerFrames writes a fuzzer-chosen sequence of well-formed frames
// — its tail optionally cut off, mid-frame — to a live loopback server
// with one unary and one stream handler, then drops the connection.
// Whatever the sequence, the server must stop promptly: every call it
// dispatched has to be reachable by teardown. (The package's leak fence
// checks the goroutines afterwards.)
func FuzzServerFrames(f *testing.F) {
	open := frame{kind: kindStreamOpen, id: 1, key: "s"}
	f.Add(fuzzScript(0, open, open, frame{kind: kindStreamChunk, id: 1, body: []byte("x")})) // the duplicate-id hang
	f.Add(fuzzScript(0, frame{kind: kindRequest, id: 2, key: "u", op: 1}, frame{kind: kindRequest, id: 2, key: "u"}, frame{kind: kindCancel, id: 2}))
	f.Add(fuzzScript(0, frame{kind: kindRequest, id: 1, key: "u", budget: 10, body: []byte("hi")}, frame{kind: kindOneway, key: "u", op: 1}))
	f.Add(fuzzScript(7, open, frame{kind: kindStreamChunk, id: 1, body: bytes.Repeat([]byte{9}, 64)}, frame{kind: kindStreamClose, id: 1}))
	f.Add(fuzzScript(0, open, frame{kind: kindStreamCredit, id: 1, op: 200}, frame{kind: kindStreamClose, id: 1, op: 3, body: []byte("why")},
		frame{kind: kindReply, id: 1}, frame{kind: kindError, id: 0}, frame{kind: 5, op: 9}, frame{kind: 11, id: 1, key: "ghost"}))
	// A request carrying another version byte: the server drops the
	// connection at it, so the sentinel behind it is never answered.
	for _, ver := range []byte{1, 2, 4} {
		script := fuzzScript(0, frame{kind: kindRequest, id: 1, key: "u", body: []byte("hi")})
		script[1] |= (protoVersion ^ ver) << 4
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 4<<10 {
			return
		}
		s, err := NewServer("127.0.0.1:0", WithMaxPerConn(3))
		if err != nil {
			t.Fatal(err)
		}
		// Odd ops hold their slot a moment, so later frames meet calls in
		// flight. Not until the context ends: a oneway's never does.
		s.Register("u", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
			if op&1 == 1 {
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(2 * time.Millisecond):
				}
			}
			return body, nil
		})
		s.RegisterStream("s", func(ctx context.Context, op uint32, in *StreamReader, out *StreamWriter) error {
			n, err := io.Copy(io.Discard, in)
			if err != nil {
				return err
			}
			_, err = fmt.Fprint(out, n)
			return err
		})
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// Replies must not back up into the server, and a script sent
		// whole ends in a sentinel request whose answer (reply or shed)
		// says the server has been through every frame before it — or,
		// past a frame with another version byte, in the connection's end.
		const sentinel = 99
		lim := Limits{}.withDefaults()
		var readErr error
		answered := make(chan struct{})
		go func() {
			defer close(answered)
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			for fr := newFrameReader(conn, lim, false); ; {
				f, err := fr.read()
				if err != nil || f.id == sentinel {
					readErr = err
					return
				}
			}
		}()
		var wire bytes.Buffer
		wrongVer := false
		frames := append(fuzzFrames(script[1:]), fuzzFrame{frame{kind: kindRequest, id: sentinel, key: "u"}, protoVersion})
		for _, fr := range frames {
			at := wire.Len()
			if _, err := writeFrame(&wire, fr.frame, lim); err != nil {
				t.Fatal(err)
			}
			wire.Bytes()[at+4] = fr.ver
			wrongVer = wrongVer || fr.ver != protoVersion
		}
		raw := wire.Bytes()
		raw = raw[:len(raw)-min(int(script[0]), len(raw))] // cut the tail off, maybe mid-frame
		_, _ = conn.Write(raw)
		if script[0] == 0 {
			<-answered
			if wrongVer && (readErr == nil || errors.Is(readErr, os.ErrDeadlineExceeded)) {
				t.Fatalf("connection still served past a frame with another version byte (%v); frames: %+v", readErr, frames)
			}
		}
		// Leave by reset: a fuzzing run opens thousands of connections a
		// second, and lingering ones would use the port range up.
		_ = conn.(*net.TCPConn).SetLinger(0)
		_ = conn.Close()
		<-answered

		stopped := make(chan struct{})
		go func() {
			_ = s.Close()
			close(stopped)
		}()
		select {
		case <-stopped:
		case <-time.After(2 * time.Second):
			t.Fatalf("Server.Close still blocked 2s after the peer left; frames: %+v", fuzzFrames(script[1:]))
		}
		if st := s.Stats(); st.Panics < 0 || st.Shed < 0 || st.Expired < 0 || st.Canceled < 0 {
			t.Fatalf("negative counter: %+v", st)
		}
	})
}
