package broker

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/orb"
	"repro/internal/resil"
	"repro/internal/testutil"
)

const overloadSrc = "typedef struct { int count; float ratio; } pair;"

// fillAdmission occupies every admission slot through the gate,
// returning a release for them all.
func fillAdmission(t *testing.T, b *Broker) (release func()) {
	t.Helper()
	n := b.chassis.Cap()
	for i := 0; i < n; i++ {
		if err := b.chassis.Admit(); err != nil {
			t.Fatalf("admission gate already full: %v", err)
		}
	}
	return func() {
		for i := 0; i < n; i++ {
			b.chassis.Release()
		}
	}
}

// TestOverloadShedTyped saturates a MaxInFlight=1 broker and asserts the
// next request is shed with the typed orb.ErrOverloaded, the shed
// counters advance, and the daemon serves again once capacity frees.
func TestOverloadShedTyped(t *testing.T) {
	b, c := startDaemonOpts(t, Options{MaxInFlight: 1, AdmitWait: time.Millisecond})
	if _, _, err := c.Load("u", "c", "ilp32", overloadSrc, ""); err != nil {
		t.Fatal(err)
	}

	release := fillAdmission(t, b)
	_, err := c.CompareContext(context.Background(), "u", "pair", "u", "pair")
	if !errors.Is(err, orb.ErrOverloaded) {
		t.Fatalf("err = %v, want orb.ErrOverloaded", err)
	}
	if st := b.Stats(); st.Sheds != 1 {
		t.Errorf("Sheds = %d, want 1", st.Sheds)
	}

	// Health answers even at full load (it bypasses admission) and
	// reports the saturation.
	h, err := c.HealthContext(context.Background())
	if err != nil {
		t.Fatalf("health under load: %v", err)
	}
	if !h.Ready || h.InFlight != 1 || h.MaxInFlight != 1 || h.Sheds != 1 {
		t.Errorf("health = %+v", h)
	}

	release()
	if v, err := c.CompareContext(context.Background(), "u", "pair", "u", "pair"); err != nil {
		t.Fatalf("post-shed compare: %+v, %v", v, err)
	}
	if h, err := c.HealthContext(context.Background()); err != nil || h.InFlight != 0 {
		t.Fatalf("drained health = %+v, %v", h, err)
	}
}

// TestOverloadRetriedByResil wires the resilient transport against a
// saturated broker: the shed must be classified retryable, backed off,
// and the call must succeed once the slot frees — without the shed
// reply poisoning the pooled connection.
func TestOverloadRetriedByResil(t *testing.T) {
	b := newBroker(Options{MaxInFlight: 1, AdmitWait: time.Millisecond})
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	Serve(srv, b)

	rc := resil.New(srv.Addr(), resil.Options{MaxAttempts: 8})
	c := NewTransportClient(rc)
	t.Cleanup(func() { c.Close() })

	if _, _, err := c.Load("u", "c", "ilp32", overloadSrc, ""); err != nil {
		t.Fatal(err)
	}

	release := fillAdmission(t, b)
	compared := make(chan error, 1)
	go func() {
		_, err := c.CompareContext(context.Background(), "u", "pair", "u", "pair")
		compared <- err
	}()
	// The slot frees once a compare has been shed; resil's backoff then
	// retries it into the free slot.
	testutil.Eventually(t, "a shed", func() bool { return b.Stats().Sheds > 0 })
	release()
	if err := <-compared; err != nil {
		t.Fatalf("compare through overload: %v", err)
	}
	st := rc.Stats()
	if st.Overloads == 0 || st.Retries == 0 {
		t.Errorf("resil stats = %+v, want overload retries recorded", st)
	}
	if st.Discards != 0 {
		t.Errorf("Discards = %d: shed replies must not condemn the connection", st.Discards)
	}
	if b.Stats().Sheds == 0 {
		t.Error("broker recorded no sheds")
	}
}

// TestAdmitUnbounded asserts negative MaxInFlight disables admission
// control entirely — and that health still counts what is in flight.
func TestAdmitUnbounded(t *testing.T) {
	b, c := startDaemonOpts(t, Options{MaxInFlight: -1})
	if b.chassis.Cap() != 0 {
		t.Fatal("admission slots allocated despite MaxInFlight < 0")
	}
	if _, _, err := c.Load("u", "c", "ilp32", overloadSrc, ""); err != nil {
		t.Fatal(err)
	}
	h, err := c.HealthContext(context.Background())
	if err != nil || !h.Ready || h.MaxInFlight != 0 || h.InFlight != 0 {
		t.Fatalf("health = %+v, %v", h, err)
	}

	// Park a streamed convert mid-request: it holds its admission for as
	// long as its request body stays open, and health must count it.
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.ConvertStreamContext(context.Background(), "u", "pair", "u", "pair", pr, io.Discard)
	}()
	awaitInFlight(t, c, 1)
	pw.Close()
	<-done
	awaitInFlight(t, c, 0)
}

// awaitInFlight polls the health op until it reports want admitted
// requests (admission happens on the server's goroutine, after the
// client's stream open returns).
func awaitInFlight(t *testing.T, c *Client, want int64) {
	t.Helper()
	testutil.Eventually(t, fmt.Sprintf("health to report %d in flight", want), func() bool {
		h, err := c.HealthContext(context.Background())
		return err == nil && h.InFlight == want
	})
}
