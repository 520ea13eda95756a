package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/orb"
	"repro/internal/resil"
	"repro/internal/testutil"
)

// Departed members' pools drain in the background and an open stream
// keeps a context watcher; the fence proves each of them ends.
func TestMain(m *testing.M) { testutil.LeakFence(m) }

// echoFleet starts n orb servers whose "echo" object replies with the
// server's own address to a buffered call and (after draining the body)
// to a stream, so tests can see which member served a call.
func echoFleet(t *testing.T, n int) (addrs []string, servers map[string]*orb.Server, calls map[string]*atomic.Int64) {
	t.Helper()
	servers = make(map[string]*orb.Server, n)
	calls = make(map[string]*atomic.Int64, n)
	for i := 0; i < n; i++ {
		srv, err := orb.NewServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addr := srv.Addr()
		c := &atomic.Int64{}
		srv.Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
			c.Add(1)
			return []byte(addr), nil
		})
		srv.RegisterStream("echo", func(ctx context.Context, op uint32, in *orb.StreamReader, out *orb.StreamWriter) error {
			c.Add(1)
			if _, err := io.Copy(io.Discard, in); err != nil {
				return err
			}
			_, err := out.Write([]byte(addr))
			return err
		})
		addrs = append(addrs, addr)
		servers[addr] = srv
		calls[addr] = c
	}
	return addrs, servers, calls
}

func testOpts() Options {
	return Options{Resil: resil.Options{
		MaxAttempts: 2,
		DialTimeout: 2 * time.Second,
		CallTimeout: 5 * time.Second,
	}}
}

// failWith makes a member answer "echo" with err under both kinds.
func failWith(srv *orb.Server, calls *atomic.Int64, err error) {
	srv.Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		calls.Add(1)
		return nil, err
	})
	srv.RegisterStream("echo", func(ctx context.Context, op uint32, in *orb.StreamReader, out *orb.StreamWriter) error {
		calls.Add(1)
		return err
	})
}

// finish runs an opened stream to its end — body out, reply in, Close,
// then the result's Done with the terminal error — and is the identity
// on a buffered result, which is already finished.
func finish(res resil.Result) (string, error) {
	if res.Stream == nil {
		return string(res.Reply), nil
	}
	_, err := res.Stream.Write([]byte("body"))
	if err == nil {
		err = res.Stream.CloseSend()
	}
	var reply []byte
	if err == nil {
		reply, err = io.ReadAll(res.Stream)
	}
	_ = res.Stream.Close()
	res.Done(err)
	return string(reply), err
}

// echo runs one keyed "echo" call of the given kind to completion and
// returns the reply: the serving member's address.
func echo(c *Client, kind resil.Kind, rk []byte) (string, error) {
	res, err := c.Do(context.Background(), rk, resil.Call{Key: "echo", Op: 1, Kind: kind})
	if err != nil {
		return "", err
	}
	return finish(res)
}

// idle fails the test unless every member's in-flight gauge is back at 0.
func idle(t *testing.T, c *Client, when string) {
	t.Helper()
	for _, m := range c.Stats().Members {
		if m.InFlight != 0 {
			t.Errorf("%s: member %s in-flight gauge = %d, want 0", when, m.Addr, m.InFlight)
		}
	}
}

// TestClusterCallKinds is the routed call's contract, one row per
// behaviour, every row run for a buffered call and for a stream: the
// fleet has one ranked walk, so both kinds must route, spill, skip, fail
// over, pay and fail static alike. Where a row expects something else of
// a stream it is for one reason: an orb stream open does not wait for the
// server, so whatever the member *answers* arrives after Do handed the
// stream back, past the point where another member could take over.
func TestClusterCallKinds(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, kind resil.Kind)
	}{
		{"routes to the ring owner", func(t *testing.T, kind resil.Kind) {
			addrs, _, _ := echoFleet(t, 3)
			c := New(addrs, testOpts())
			defer c.Close()
			for i := 0; i < 50; i++ {
				rk := RouteKey("route", fmt.Sprint(i))
				got, err := echo(c, kind, rk)
				if err != nil {
					t.Fatal(err)
				}
				if want := NewRing(addrs).Owner(rk); got != want {
					t.Fatalf("key %d served by %s, owner is %s", i, got, want)
				}
			}
			if st := c.Stats(); st.Failovers != 0 || st.Spills != 0 {
				t.Fatalf("healthy fleet recorded failovers=%d spills=%d", st.Failovers, st.Spills)
			}
			idle(t, c, "after success")
		}},
		{"fails over down the rank on a dead owner", func(t *testing.T, kind resil.Kind) {
			addrs, servers, _ := echoFleet(t, 3)
			c := New(addrs, testOpts())
			defer c.Close()
			rk := RouteKey("doomed", "pair")
			ranked := NewRing(addrs).Ranked(rk)
			_ = servers[ranked[0]].Close()
			got, err := echo(c, kind, rk)
			if err != nil {
				t.Fatalf("call with dead owner failed: %v", err)
			}
			if got != ranked[1] {
				t.Fatalf("failover served by %s, want next ranked %s", got, ranked[1])
			}
			if st := c.Stats(); st.Failovers != 1 {
				t.Fatalf("failovers = %d, want 1", st.Failovers)
			}
			idle(t, c, "after failover")
		}},
		// A replica would give the same answer, and retrying it fleet-wide
		// would triple error load.
		{"does not fail over on a deterministic remote error", func(t *testing.T, kind resil.Kind) {
			addrs, servers, calls := echoFleet(t, 3)
			rk := RouteKey("erroring", "pair")
			owner := NewRing(addrs).Owner(rk)
			failWith(servers[owner], calls[owner], errors.New("boom: bad request"))
			c := New(addrs, testOpts())
			defer c.Close()
			_, err := echo(c, kind, rk)
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("err = %v, want the owner's boom", err)
			}
			for addr, n := range calls {
				if addr != owner && n.Load() != 0 {
					t.Fatalf("member %s was tried after a deterministic error", addr)
				}
			}
			idle(t, c, "after failure")
		}},
		// "core: no universe" means the member lost state (restart); the
		// broker codes it "not served here", which fails over because a
		// warm replica CAN answer. A stream learns it too late to move.
		{"fails over on core: no universe", func(t *testing.T, kind resil.Kind) {
			addrs, servers, calls := echoFleet(t, 3)
			rk := RouteKey("amnesiac", "pair")
			owner := NewRing(addrs).Owner(rk)
			failWith(servers[owner], calls[owner], fmt.Errorf("%w: %w \"u42\"", orb.ErrUnavailable, core.ErrNoUniverse))
			c := New(addrs, testOpts())
			defer c.Close()
			got, err := echo(c, kind, rk)
			if kind == resil.Stream {
				if err == nil || !strings.Contains(err.Error(), "core: no universe") || c.Stats().Failovers != 0 {
					t.Fatalf("stream = %q, %v, failovers %d; want the owner's answer as the terminal error", got, err, c.Stats().Failovers)
				}
			} else if err != nil || got == owner {
				t.Fatalf("call = %q, %v, want it served by a replica of %s", got, err, owner)
			}
			idle(t, c, "after the call")
		}},
		{"skips a member whose breaker is open", func(t *testing.T, kind resil.Kind) {
			addrs, _, calls := echoFleet(t, 3)
			c := New(addrs, testOpts())
			defer c.Close()
			rk := RouteKey("tripped", "owner")
			ranked := NewRing(addrs).Ranked(rk)
			c.members[ranked[0]].brk.tripEject()
			got, err := echo(c, kind, rk)
			if err != nil || got != ranked[1] {
				t.Fatalf("call = %q, %v, want the next ranked member %s", got, err, ranked[1])
			}
			if st := c.Stats(); st.BreakerSkips != 1 || st.Failovers != 0 || calls[ranked[0]].Load() != 0 {
				t.Fatalf("skips = %d failovers = %d owner calls = %d, want the owner passed over unpaid", st.BreakerSkips, st.Failovers, calls[ranked[0]].Load())
			}
		}},
		{"probes a fully tripped fleet exactly once", func(t *testing.T, kind resil.Kind) {
			addrs, _, calls := echoFleet(t, 3)
			c := New(addrs, testOpts())
			defer c.Close()
			for _, a := range addrs {
				c.members[a].brk.tripEject()
			}
			rk := RouteKey("fail", "static")
			got, err := echo(c, kind, rk)
			if err != nil || got != NewRing(addrs).Owner(rk) {
				t.Fatalf("call = %q, %v, want the best ranked member forced", got, err)
			}
			var total int64
			for _, n := range calls {
				total += n.Load()
			}
			if st := c.Stats(); total != 1 || st.BreakerSkips != 3 || st.Failovers != 0 {
				t.Fatalf("%d member calls, skips = %d, failovers = %d; want one probe after three skips", total, st.BreakerSkips, st.Failovers)
			}
			idle(t, c, "after the probe")
		}},
		// A shed was received by the member, so moving on duplicates load
		// and costs a token; with the budget dry the walk stops instead.
		{"pays the retry budget for a duplicative failover", func(t *testing.T, kind resil.Kind) {
			addrs, servers, calls := echoFleet(t, 3)
			rk := RouteKey("shedding", "pair")
			owner := NewRing(addrs).Owner(rk)
			failWith(servers[owner], calls[owner], fmt.Errorf("%w: full", orb.ErrOverloaded))
			opts := testOpts()
			opts.Resil.RetryBudget = resil.NewRetryBudget(0.1, 1)
			c := New(addrs, opts)
			defer c.Close()
			got, err := echo(c, kind, rk)
			if kind == resil.Stream {
				if !errors.Is(err, orb.ErrOverloaded) || !opts.Resil.RetryBudget.Withdraw() {
					t.Fatalf("stream = %q, %v; want the shed as the terminal error and the budget untouched", got, err)
				}
				return
			}
			if err != nil || got == owner || c.Stats().Failovers != 1 {
				t.Fatalf("call = %q, %v, failovers %d; want one failover off the shedding owner", got, err, c.Stats().Failovers)
			}
			if opts.Resil.RetryBudget.Withdraw() {
				t.Fatal("the failover left the budget's one token unspent")
			}
			if _, err := echo(c, kind, rk); !errors.Is(err, resil.ErrRetryBudget) || !errors.Is(err, orb.ErrOverloaded) {
				t.Fatalf("dry budget: err = %v, want ErrRetryBudget wrapping the shed", err)
			}
			idle(t, c, "after the refused failover")
		}},
		{"spills to the least loaded replica of a saturated owner", func(t *testing.T, kind resil.Kind) {
			addrs, _, _ := echoFleet(t, 3)
			c := New(addrs, testOpts())
			defer c.Close()
			rk := RouteKey("hot", "pair")
			order := NewRing(addrs).Ranked(rk)
			owner, replica := c.members[order[0]], c.members[order[1]]
			owner.inflight.Store(100)
			if got, err := echo(c, kind, rk); err != nil || got != replica.addr {
				t.Fatalf("saturated owner: call = %q, %v, want replica %s", got, err, replica.addr)
			}
			if st := c.Stats(); st.Spills != 1 {
				t.Fatalf("Spills = %d, want 1", st.Spills)
			}
			// Below the gap threshold the owner keeps the key (cache
			// affinity beats perfect balance).
			owner.inflight.Store(spillInflight)
			if got, err := echo(c, kind, rk); err != nil || got != owner.addr {
				t.Fatalf("mildly loaded owner: call = %q, %v, want the owner", got, err)
			}
		}},
		{"follows a membership change", func(t *testing.T, kind resil.Kind) {
			addrs, _, _ := echoFleet(t, 3)
			c := New(addrs, testOpts())
			defer c.Close()
			rk := RouteKey("moving", "pair")
			departed, err := echo(c, kind, rk)
			if err != nil {
				t.Fatal(err)
			}
			var rest []string
			for _, a := range addrs {
				if a != departed {
					rest = append(rest, a)
				}
			}
			c.SetMembers(rest)
			if got, err := echo(c, kind, rk); err != nil || got == departed {
				t.Fatalf("call = %q, %v, want a member other than the departed %s", got, err, departed)
			}
			if got, want := fmt.Sprint(c.Members()), fmt.Sprint(NewRing(rest).Members()); got != want {
				t.Fatalf("members = %s, want %s", got, want)
			}
		}},
		{"an empty ring is ErrNoMembers", func(t *testing.T, kind resil.Kind) {
			c := New(nil, testOpts())
			defer c.Close()
			if _, err := echo(c, kind, RouteKey("x", "y")); !errors.Is(err, ErrNoMembers) {
				t.Fatalf("err = %v, want ErrNoMembers", err)
			}
		}},
		// An open stream is load: it holds its member's slot until Done.
		{"holds the in-flight gauge for exactly the call's life", func(t *testing.T, kind resil.Kind) {
			addrs, servers, _ := echoFleet(t, 3)
			c := New(addrs, testOpts())
			defer c.Close()
			rk := RouteKey("gauged", "pair")
			owner := c.members[NewRing(addrs).Owner(rk)]
			res, err := c.Do(context.Background(), rk, resil.Call{Key: "echo", Op: 1, Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			held := int64(0) // a buffered call is over when Do returns
			if kind == resil.Stream {
				held = 1
			}
			if got := owner.inflight.Load(); got != held {
				t.Errorf("gauge after Do = %d, want %d", got, held)
			}
			if _, err := finish(res); err != nil {
				t.Fatal(err)
			}
			idle(t, c, "after success")
			for _, srv := range servers {
				_ = srv.Close()
			}
			// A fresh client, so every pool has to dial: a pooled connection
			// that is dying but not yet dead would still take an open frame.
			dead := New(addrs, testOpts())
			defer dead.Close()
			if _, err := echo(dead, kind, rk); err == nil || !strings.Contains(err.Error(), "cluster: all 3 members failed") {
				t.Fatalf("dead fleet: err = %v, want all 3 members failed", err)
			}
			idle(t, dead, "after failure")
		}},
	}
	for _, row := range rows {
		for _, k := range []struct {
			name string
			kind resil.Kind
		}{{"buffered", resil.Buffered}, {"stream", resil.Stream}} {
			t.Run(row.name+"/"+k.name, func(t *testing.T) { row.run(t, k.kind) })
		}
	}
}
