package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/broker"
	"repro/internal/proto"
	"repro/internal/resil"
)

// RouteKey derives the ring key for a request from its identifying
// strings — for broker pair operations, the four (universe, declaration)
// names. Universe names are content hashes on the client side, so the
// key is content-addressed: every client hashes the same pair to the
// same owner, which is what makes the owner's cache worth routing to.
// Parts are length-prefixed so ("ab","c") and ("a","bc") differ.
func RouteKey(parts ...string) []byte {
	h := sha256.New()
	var n [4]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint32(n[:], uint32(len(p)))
		_, _ = h.Write(n[:])
		_, _ = h.Write([]byte(p))
	}
	return h.Sum(nil)
}

// BrokerTransport routes the broker protocol across the fleet: it
// implements broker.Transport, so broker.NewTransportClient(t) yields a
// typed client whose requests are sharded by content.
//
//   - Pair operations (compare, plan, convert, batch) decode only their
//     header — four strings: uA, declA, uB, declB — and route by the
//     pair's RouteKey to its ring owner; the body passes through;
//   - loads and annotations broadcast to every member (idempotent —
//     universes are content-addressed), so any member can own any pair;
//   - keyless operations (stats, health) go to the least loaded member.
type BrokerTransport struct {
	c *Client
}

// NewBrokerTransport wraps a cluster Client. The caller keeps ownership
// of the Client only notionally: Close closes it.
func NewBrokerTransport(c *Client) *BrokerTransport { return &BrokerTransport{c: c} }

// Dial builds a fleet transport over the given member addresses.
func Dial(addrs []string, opts Options) *BrokerTransport {
	return NewBrokerTransport(New(addrs, opts))
}

// Client returns the underlying cluster client (for stats and
// membership updates).
func (t *BrokerTransport) Client() *Client { return t.c }

// InvokeContext routes one broker-protocol request across the fleet.
func (t *BrokerTransport) InvokeContext(ctx context.Context, key string, op uint32, body []byte) ([]byte, error) {
	var rk []byte // nil: keyless, the least loaded member serves it
	if key == broker.ObjectKey {
		switch op {
		case broker.OpLoad, broker.OpAnnotate:
			return t.c.Broadcast(ctx, key, op, body)
		case broker.OpCompare, broker.OpPlan, broker.OpConvert, broker.OpConvertBatch:
			args, _, err := proto.UnmarshalStringsPrefix(body, 4)
			if err != nil {
				return nil, fmt.Errorf("cluster: pair header: %w", err)
			}
			rk = RouteKey(args...)
		}
	}
	res, err := t.c.Do(ctx, rk, resil.Call{Key: key, Op: op, Body: body})
	return res.Reply, err
}

// Close closes the underlying cluster client.
func (t *BrokerTransport) Close() error { return t.c.Close() }
