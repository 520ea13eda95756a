package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gateway"
	"repro/internal/orb"
	"repro/internal/value"
	"repro/internal/wire"
)

// TestGatewayDaemonEndToEnd runs the whole daemon in-process: a route
// table on disk (with file-referenced declaration sources), an upstream
// speaking declaration B, a client speaking declaration A, and a
// file-driven reload.
func TestGatewayDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	mustWrite := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite("mix.h", "typedef struct { float r; int n; } mix;")
	mustWrite("pair.h", "typedef struct { int count; float ratio; } pair;")

	// Upstream: an echo service expecting pair payloads.
	lowered := gateway.New(gateway.Options{})
	defer lowered.Close()
	pd := gateway.DeclConfig{Lang: "c", Source: "typedef struct { int count; float ratio; } pair;", Decl: "pair"}
	mtB, err := lowered.Lower(&pd)
	if err != nil {
		t.Fatal(err)
	}
	up, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	up.Register("svc", func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		if _, err := wire.Unmarshal(mtB, body); err != nil {
			return nil, fmt.Errorf("upstream cannot decode: %w", err)
		}
		return body, nil
	})

	routes := func(extra string) string {
		return fmt.Sprintf(`{
  "upstream": %q,
  "routes": [
    {
      "name": "mix-to-pair", "key": "svc", "op": 7,
      "request": {"from": {"lang": "c", "file": "mix.h", "decl": "mix"},
                  "to":   {"lang": "c", "file": "pair.h", "decl": "pair"}},
      "reply":   {"from": {"lang": "c", "file": "pair.h", "decl": "pair"},
                  "to":   {"lang": "c", "file": "mix.h", "decl": "mix"}}
    }%s
  ]
}`, up.Addr(), extra)
	}
	routesPath := filepath.Join(dir, "routes.json")
	if err := os.WriteFile(routesPath, []byte(routes("")), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, g, err := start(config{addr: "127.0.0.1:0", routes: routesPath})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer g.Close()

	md := gateway.DeclConfig{Lang: "c", Source: "typedef struct { float r; int n; } mix;", Decl: "mix"}
	mtA, err := lowered.Lower(&md)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.Marshal(mtA, value.NewRecord(value.Real{V: 2.5}, value.NewInt(3)))
	if err != nil {
		t.Fatal(err)
	}

	c, err := orb.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Invoke("svc", 7, payload)
	if err != nil {
		t.Fatal(err)
	}
	// mix → pair → mix is lossless for these fields: bytes round-trip.
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip % x, sent % x", got, payload)
	}

	// Reload from the rewritten file through the admin op, as `mbird
	// remote reload` and SIGHUP both do.
	ac := gateway.NewTransportClient(c)
	if err := os.WriteFile(routesPath, []byte(routes(`,
    {"key": "extra", "op": 1}`)), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := ac.ReloadContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("reload reported %d routes, want 2", n)
	}
	h, err := ac.HealthContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !h.Ready || h.Routes != 2 {
		t.Fatalf("health after reload = %+v", h)
	}
	st, err := ac.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Routes) != 2 || st.Routes[0].FastTier+st.Routes[1].FastTier < 2 {
		t.Fatalf("stats after reload = %+v, want surviving fast-tier counters", st.Routes)
	}
}
