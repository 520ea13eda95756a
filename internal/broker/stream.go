package broker

// OpConvertStream: the convert op over orb stream frames, for payloads
// that should not be buffered whole on either side. The request stream
// carries a u32 header length, the CDR pairReqT header (uA, declA, uB,
// declB), then the raw CDR payload of A's Mtype in arbitrary chunk
// splits; the reply stream carries the CDR payload of B's Mtype. The
// pair's transcoder runs in internal/stream's engine, which decides from
// the transcoder alone (package transcode's ladder table) between
// chunk-at-a-time in constant memory and buffering under its cap, past
// which it fails typed (stream.ErrTooLarge).

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

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
		atomic.AddInt64(&b.live.InFlight, 1)
		defer atomic.AddInt64(&b.live.InFlight, -1)

		ua, da, ub, db, err := readStreamHeader(in)
		if err != nil {
			return err
		}
		ent, cached, err := b.transcoder(ua, da, ub, db, false)
		if err != nil {
			return err
		}
		if err := ent.gate(ua, da, ub, db); err != nil {
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
		b.served(ent, cached)
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
