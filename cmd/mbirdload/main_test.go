package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// shortCfg is a sub-second run against an in-process target, enough to
// prove the tier wiring end to end.
func shortCfg(tier string) config {
	return config{
		tier: tier, mode: "closed", conc: 2,
		duration: 200 * time.Millisecond, warmup: 50 * time.Millisecond,
		batch: 4, key: "svc", op: 1,
	}
}

// TestAllTiersSelf drives every tier self-contained: run returns an error
// when any operation fails, so a nil error is the gate passing.
func TestAllTiersSelf(t *testing.T) {
	for _, tier := range []string{"compare", "convert", "batch", "gw-pass", "gw-fused", "gw-tree"} {
		t.Run(tier, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(shortCfg(tier), &buf); err != nil {
				t.Fatal(err)
			}
			if want := "tier " + tier + " against self, closed loop, 2 workers"; !strings.HasPrefix(buf.String(), want) {
				t.Fatalf("summary %q does not start with %q", buf.String(), want)
			}
		})
	}
}

// TestOpenLoopSelf exercises the open-loop path against the gateway
// passthrough tier at a modest offered rate.
func TestOpenLoopSelf(t *testing.T) {
	cfg := shortCfg("gw-pass")
	cfg.mode = "open"
	cfg.rate = 500
	cfg.conc = 8
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "open loop, 8 workers, 500/s offered") {
		t.Fatalf("summary %q lacks the open-loop shape", buf.String())
	}
}

// TestBadFlags covers the tier and mode validation paths.
func TestBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if _, err := parseFlags("mbirdload", []string{}, &buf); err == nil {
		t.Error("missing -tier accepted")
	}
	cfg := shortCfg("nope")
	if err := run(cfg, &buf); err == nil {
		t.Error("unknown tier accepted")
	}
	cfg = shortCfg("compare")
	cfg.mode = "open" // no rate
	if err := run(cfg, &buf); err == nil {
		t.Error("open mode without rate accepted")
	}
}
