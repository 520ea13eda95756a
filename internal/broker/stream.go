package broker

// OpConvertStream: the convert op over orb stream frames, for payloads
// that should not be buffered whole on either side. The request stream
// carries a u32 header length, the CDR pairReqT header (uA, declA, uB,
// declB), then the raw CDR payload of A's Mtype in arbitrary chunk
// splits; the reply stream carries the CDR payload of B's Mtype. Pairs
// whose fused transcoder has a streamable sequence root convert
// chunk-at-a-time in constant memory through internal/stream; fused
// pairs with other roots buffer inside the engine under its cap; tree-
// tier pairs buffer here and take the ordinary convert path. Either
// buffered fallback fails typed (stream.ErrTooLarge) past the cap.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/proto"
	"repro/internal/resil"
	"repro/internal/stream"
)

// OpConvertStream is the streaming convert op (stream frames only; a
// buffered request for this op is an error).
const OpConvertStream uint32 = 9

// maxStreamHeader bounds the pairReqT header of a streamed convert —
// universe and declaration names, not payload, so 1 MiB is generous.
const maxStreamHeader = 1 << 20

// streamHandler serves OpConvertStream on an orb stream. Admission
// control applies to the whole stream (it is one admitted request, like
// a batch); the server RequestTimeout does not — a stream's duration is
// governed by the caller's budget, which rides the open frame.
func streamHandler(b *Broker) orb.StreamHandler {
	return func(ctx context.Context, op uint32, in *orb.StreamReader, out *orb.StreamWriter) error {
		if op != OpConvertStream {
			return fmt.Errorf("broker: unknown stream op %d", op)
		}
		if err := b.chassis.Admit(); err != nil {
			return err
		}
		defer b.chassis.Release()
		b.inFlight.Add(1)
		defer b.inFlight.Add(-1)

		ua, da, ub, db, err := readStreamHeader(in)
		if err != nil {
			return err
		}
		ent, _, err := b.transcoder(ua, da, ub, db, false)
		if err != nil {
			return err
		}
		switch ent.relation {
		case core.RelEquivalent, core.RelSubtypeAB:
		case core.RelSubtypeBA:
			return fmt.Errorf("broker: %s/%s only converts from %s/%s (B is the subtype); swap the pair", ua, da, ub, db)
		default:
			return fmt.Errorf("broker: declarations do not match:\n%s", ent.explain)
		}
		if ent.xc == nil {
			// Tree tier: no bytes-to-bytes program exists, so the payload
			// buffers (capped) and converts through the value tree.
			payload, err := readAllStream(in, stream.DefaultMaxBuffer)
			if err != nil {
				return err
			}
			res, err := b.convertRaw(nil, ua, da, ub, db, payload)
			if err != nil {
				return err
			}
			_, err = out.Write(res)
			return err
		}

		eng := stream.New(ent.xc, stream.Options{})
		defer eng.Release()
		buf := make([]byte, 64<<10)
		for {
			n, rerr := in.Read(buf)
			if n > 0 {
				if err := eng.Push(buf[:n]); err != nil {
					return err
				}
				if o := eng.Take(); len(o) > 0 {
					if _, err := out.Write(o); err != nil {
						return err
					}
				}
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				return rerr
			}
		}
		tail, err := eng.Finish()
		if err != nil {
			return err
		}
		if len(tail) > 0 {
			if _, err := out.Write(tail); err != nil {
				return err
			}
		}
		b.fastConverts.Add(1)
		return nil
	}
}

// readStreamHeader decodes the u32-length-prefixed pairReqT header from
// the front of a convert stream.
func readStreamHeader(in *orb.StreamReader) (ua, da, ub, db string, err error) {
	var lenb [4]byte
	if _, err = io.ReadFull(in, lenb[:]); err != nil {
		return "", "", "", "", fmt.Errorf("broker: stream header length: %w", err)
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	if n == 0 || n > maxStreamHeader {
		return "", "", "", "", fmt.Errorf("broker: stream header of %d bytes", n)
	}
	hdr := make([]byte, n)
	if _, err = io.ReadFull(in, hdr); err != nil {
		return "", "", "", "", fmt.Errorf("broker: stream header: %w", err)
	}
	args, err := proto.UnmarshalStrings(hdr, 4)
	if err != nil {
		return "", "", "", "", fmt.Errorf("broker: stream header: %w", err)
	}
	return args[0], args[1], args[2], args[3], nil
}

// readAllStream buffers a stream to EOF, failing typed past max bytes.
func readAllStream(in *orb.StreamReader, max int) ([]byte, error) {
	var buf []byte
	tmp := make([]byte, 64<<10)
	for {
		n, err := in.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if len(buf) > max {
			return nil, fmt.Errorf("%w: tree-tier pair over %d bytes (cap %d)", stream.ErrTooLarge, len(buf), max)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// ErrNoStreamTransport is returned by ConvertStream when the client's
// transport cannot open orb streams.
var ErrNoStreamTransport = errors.New("broker: transport does not support streaming")

// ConvertStreamContext converts a CDR payload of declaration A read from in
// into a CDR payload of declaration B written to out, streaming both
// legs so neither endpoint holds the whole value. It returns the bytes
// written to out.
func (c *Client) ConvertStreamContext(ctx context.Context, ua, da, ub, db string, in io.Reader, out io.Writer) (written int64, err error) {
	var sc *orb.StreamCall
	done := func(error) {}
	switch t := c.t.(type) {
	case *orb.Client: // a bare connection: no pool to return it to
		sc, err = t.OpenStream(ctx, ObjectKey, OpConvertStream)
	case *resil.Client: // the same call as any other, of the stream kind
		var res resil.Result
		res, err = t.Do(ctx, resil.Call{Key: ObjectKey, Op: OpConvertStream, Kind: resil.Stream})
		sc, done = res.Stream, res.Done
	default:
		return 0, ErrNoStreamTransport
	}
	if err != nil {
		return 0, err
	}
	defer func() { done(err) }()
	defer func() { _ = sc.Close() }()

	hdr := proto.MarshalStrings(ua, da, ub, db)
	// The legs must run concurrently: the broker emits reply chunks while
	// it is still consuming the request, so a caller that wrote the whole
	// request before reading would deadlock against flow control once the
	// converted output outgrows the reply window.
	werr := make(chan error, 1)
	go func() {
		var lenb [4]byte
		binary.LittleEndian.PutUint32(lenb[:], uint32(len(hdr)))
		if _, err := sc.Write(lenb[:]); err != nil {
			werr <- err
			return
		}
		if _, err := sc.Write(hdr); err != nil {
			werr <- err
			return
		}
		buf := make([]byte, 256<<10)
		if _, err := io.CopyBuffer(sc, in, buf); err != nil {
			werr <- err
			return
		}
		werr <- sc.CloseSend()
	}()
	buf := make([]byte, 256<<10)
	written, rerr := io.CopyBuffer(out, sc, buf)
	if rerr != nil {
		// The write leg fails alongside (the stream is dead); its result
		// must still be collected so the goroutine never leaks.
		<-werr
		return written, rerr
	}
	err = <-werr
	return written, err
}
