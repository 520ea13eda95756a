package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/orb"
)

// writeFitterFiles lays out the §2 example as files the CLI consumes.
func writeFitterFiles(t *testing.T) (dir string) {
	t.Helper()
	dir = t.TempDir()
	files := map[string]string{
		"fitter.h": `
typedef float point[2];
void fitter(point pts[], int count, point *start, point *end);
`,
		"fitter.mbird": `
annotate fitter.start out nonnull
annotate fitter.end out nonnull
annotate fitter.pts length-from=count
`,
		"Ideal.java": `
public class Point { private float x; private float y; }
public class Line { private Point start; private Point end; }
public class PointVector extends java.util.Vector;
public interface JavaIdeal { Line fitter(PointVector pts); }
`,
		"Ideal.mbird": `
annotate Line.start nonnull noalias
annotate Line.end nonnull noalias
annotate PointVector collection-of=Point element-nonnull
annotate JavaIdeal.fitter.pts nonnull
annotate JavaIdeal.fitter.return nonnull
`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

func TestParseCommand(t *testing.T) {
	dir := writeFitterFiles(t)
	out, err := runCLI(t, "parse", "-lang", "c", filepath.Join(dir, "fitter.h"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fitter") || !strings.Contains(out, "point") {
		t.Errorf("output = %q", out)
	}
}

func TestMtypeCommand(t *testing.T) {
	dir := writeFitterFiles(t)
	out, err := runCLI(t, "mtype", "-lang", "c",
		"-script", filepath.Join(dir, "fitter.mbird"),
		"-decl", "fitter", filepath.Join(dir, "fitter.h"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "port(record(μL1.choice(unit") {
		t.Errorf("mtype output = %q", out)
	}
}

func TestCompareCommand(t *testing.T) {
	dir := writeFitterFiles(t)
	out, err := runCLI(t, "compare",
		"-a-lang", "java", "-a-file", filepath.Join(dir, "Ideal.java"),
		"-a-script", filepath.Join(dir, "Ideal.mbird"), "-a-decl", "JavaIdeal",
		"-b-lang", "c", "-b-file", filepath.Join(dir, "fitter.h"),
		"-b-script", filepath.Join(dir, "fitter.mbird"), "-b-decl", "fitter")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "relation: equivalent") {
		t.Errorf("output = %q", out)
	}
}

func TestCompareMismatchDiagnoses(t *testing.T) {
	dir := writeFitterFiles(t)
	// Without the annotation scripts the shapes differ.
	out, err := runCLI(t, "compare",
		"-a-lang", "java", "-a-file", filepath.Join(dir, "Ideal.java"), "-a-decl", "JavaIdeal",
		"-b-lang", "c", "-b-file", filepath.Join(dir, "fitter.h"), "-b-decl", "fitter")
	if err == nil {
		t.Fatal("expected mismatch error")
	}
	if !strings.Contains(out, "diagnosis:") {
		t.Errorf("output = %q", out)
	}
}

func TestEmitCommand(t *testing.T) {
	dir := writeFitterFiles(t)
	out, err := runCLI(t, "emit",
		"-a-lang", "java", "-a-file", filepath.Join(dir, "Ideal.java"),
		"-a-script", filepath.Join(dir, "Ideal.mbird"), "-a-decl", "JavaIdeal",
		"-b-lang", "c", "-b-file", filepath.Join(dir, "fitter.h"),
		"-b-script", filepath.Join(dir, "fitter.mbird"), "-b-decl", "fitter",
		"-pkg", "fitterstub", "-func", "JavaToC")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "package fitterstub") || !strings.Contains(out, "func JavaToC(") {
		t.Errorf("emitted source missing pieces:\n%s", out[:200])
	}
}

func TestSaveAndShow(t *testing.T) {
	dir := writeFitterFiles(t)
	proj := filepath.Join(dir, "proj.json")
	out, err := runCLI(t, "save",
		"-a-lang", "java", "-a-file", filepath.Join(dir, "Ideal.java"),
		"-a-script", filepath.Join(dir, "Ideal.mbird"),
		"-b-lang", "c", "-b-file", filepath.Join(dir, "fitter.h"),
		"-b-script", filepath.Join(dir, "fitter.mbird"),
		"-out", proj)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "saved 2 universes") {
		t.Errorf("save output = %q", out)
	}
	out, err = runCLI(t, "show", proj)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"universe a (java)", "universe b (c)", "JavaIdeal", "fitter"} {
		if !strings.Contains(out, want) {
			t.Errorf("show output missing %q:\n%s", want, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus"},
		{"parse"},
		{"mtype", "-lang", "c", "nofile.h"},
		{"compare"},
		{"show"},
		{"show", "/does/not/exist.json"},
	}
	for _, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// TestMissingSideNamesItsFlags: a side without a file is refused with the
// flags that exist on that command: -a-lang/-a-file or -b-lang/-b-file
// where both sides are flags, -lang and the file argument for parse and
// mtype.
func TestMissingSideNamesItsFlags(t *testing.T) {
	dir := writeFitterFiles(t)
	header, addr := filepath.Join(dir, "fitter.h"), startBrokerDaemon(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"compare", "-a-decl", "x", "-b-decl", "y"}, "missing -a-lang/-a-file"},
		{[]string{"compare", "-a-file", header, "-a-decl", "x", "-b-decl", "y"}, "missing -b-lang/-b-file"},
		{[]string{"emit", "-b-file", header, "-a-decl", "x", "-b-decl", "y"}, "missing -a-lang/-a-file"},
		{[]string{"save", "-a-file", header, "-out", filepath.Join(dir, "p.json")}, "missing -b-lang/-b-file"},
		{[]string{"parse", ""}, "missing -lang or the file argument"},
		{[]string{"mtype", "-decl", "fitter", ""}, "missing -lang or the file argument"},
		{[]string{"remote", "compare", "-addr", addr, "-a-decl", "x", "-b-decl", "y"}, "missing -a-lang/-a-file"},
		{[]string{"remote", "compare", "-addr", addr, "-a-file", header, "-a-decl", "x", "-b-decl", "y"}, "missing -b-lang/-b-file"},
	} {
		if _, err := runCLI(t, tc.args...); err == nil || err.Error() != tc.want {
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.want)
		}
	}
}

// startBrokerDaemon serves an in-process broker daemon for the remote
// subcommand tests and returns its address.
func startBrokerDaemon(t *testing.T) string {
	t.Helper()
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	broker.Serve(srv, broker.New(core.NewSession(), broker.Options{}))
	return srv.Addr()
}

func TestRemoteCompareAndStats(t *testing.T) {
	addr := startBrokerDaemon(t)
	dir := t.TempDir()
	aPath := filepath.Join(dir, "a.h")
	bPath := filepath.Join(dir, "b.h")
	if err := os.WriteFile(aPath, []byte("typedef struct { float r; int n; } mix;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bPath, []byte("typedef struct { int count; float ratio; } pair;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"remote", "compare", "-addr", addr,
		"-a-lang", "c", "-a-file", aPath, "-a-decl", "mix",
		"-b-lang", "c", "-b-file", bPath, "-b-decl", "pair"}
	out, err := runCLI(t, args...)
	if err != nil || !strings.Contains(out, "equivalent") || !strings.Contains(out, "compared") {
		t.Fatalf("remote compare out=%q err=%v", out, err)
	}
	// Second run against the same daemon: content-addressed universes and
	// the verdict cache make it a pure cache hit.
	out, err = runCLI(t, args...)
	if err != nil || !strings.Contains(out, "cached") {
		t.Fatalf("warm remote compare out=%q err=%v", out, err)
	}
	out, err = runCLI(t, "remote", "stats", "-addr", addr)
	if err != nil || !strings.Contains(out, "1 runs") {
		t.Fatalf("remote stats out=%q err=%v", out, err)
	}
}

func TestRemoteConvert(t *testing.T) {
	addr := startBrokerDaemon(t)
	dir := t.TempDir()
	aPath := filepath.Join(dir, "a.h")
	bPath := filepath.Join(dir, "b.h")
	inPath := filepath.Join(dir, "in.json")
	if err := os.WriteFile(aPath, []byte("typedef struct { float r; int n; } mix;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bPath, []byte("typedef struct { int count; float ratio; } pair;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(inPath, []byte("[4.5, 9]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "remote", "convert", "-addr", addr, "-in", inPath,
		"-a-lang", "c", "-a-file", aPath, "-a-decl", "mix",
		"-b-lang", "c", "-b-file", bPath, "-b-decl", "pair")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "[9,4.5]" {
		t.Errorf("remote convert out = %q, want [9,4.5]", out)
	}
}

func TestRemoteHealth(t *testing.T) {
	addr := startBrokerDaemon(t)
	out, err := runCLI(t, "remote", "health", "-addr", addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"status:    ready", "in-flight: 0 of 256 admitted", "shed:", "panics:    0 recovered"} {
		if !strings.Contains(out, want) {
			t.Errorf("health output %q lacks %q", out, want)
		}
	}
}

// TestExitCodes pins the documented exit-status contract: scripts rely
// on distinguishing unreachable (2) from handler failure (3) from
// overload (4).
func TestExitCodes(t *testing.T) {
	wrap := func(err error) error {
		// The shape resil presents after retries are exhausted.
		return fmt.Errorf("resil: 3 attempts to x failed: %w", err)
	}
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, 0},
		{"local error", errors.New("no such file"), 1},
		{"dial failure", wrap(fmt.Errorf("%w: connection refused", orb.ErrDial)), 2},
		{"remote handler error", &orb.RemoteError{Msg: "compare: unknown universe"}, 3},
		{"server panic", fmt.Errorf("%w: runtime error", orb.ErrServerPanic), 3},
		{"not served here", fmt.Errorf("%w: no object \"mbird.broker\"", orb.ErrUnavailable), 3},
		{"overload shed", wrap(fmt.Errorf("%w: 256 requests already in flight", orb.ErrOverloaded)), 4},
		{"budget expired", fmt.Errorf("%w: budget of 50ms spent before dispatch", orb.ErrExpired), 5},
		{"budget expired mid-flight", wrap(fmt.Errorf("%w: budget spent while request was in flight", orb.ErrExpired)), 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := exitCode(tc.err); got != tc.want {
				t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
			}
		})
	}
}

// TestDialFailureExitCode runs the real path: a remote subcommand
// against a dead address must map to exit status 2.
func TestDialFailureExitCode(t *testing.T) {
	_, err := runCLI(t, "remote", "stats", "-addr", "127.0.0.1:1",
		"-retries", "1", "-dial-timeout", "200ms")
	if err == nil {
		t.Skip("something is listening on port 1")
	}
	if got := exitCode(err); got != 2 {
		t.Errorf("exitCode(%v) = %d, want 2", err, got)
	}
}

func TestRemoteUsageErrors(t *testing.T) {
	if _, err := runCLI(t, "remote"); err == nil {
		t.Error("bare remote succeeded")
	}
	if _, err := runCLI(t, "remote", "frobnicate"); err == nil {
		t.Error("unknown remote subcommand succeeded")
	}
	if _, err := runCLI(t, "remote", "compare", "-addr", "127.0.0.1:1"); err == nil {
		t.Error("remote compare without decls succeeded")
	}
}

// startGatewayDaemon serves an in-process interop gateway with one
// passthrough route looped back to a local echo upstream.
func startGatewayDaemon(t *testing.T) string {
	t.Helper()
	up, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = up.Close() })
	up.Register("echo", func(ctx context.Context, op uint32, body []byte) ([]byte, error) { return body, nil })

	cfg := &gateway.Config{
		Upstream: up.Addr(),
		Routes:   []gateway.RouteConfig{{Key: "echo", Op: 1}},
	}
	g := gateway.New(gateway.Options{})
	t.Cleanup(func() { _ = g.Close() })
	g.SetReloader(func() (*gateway.Config, error) { return cfg, nil })
	if err := g.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	g.Serve(srv)
	return srv.Addr()
}

// TestRemoteJSONOutput pins the -json scrape contract for both daemons:
// the outputs must parse as JSON and carry the documented stable keys.
func TestRemoteJSONOutput(t *testing.T) {
	addr := startBrokerDaemon(t)
	out, err := runCLI(t, "remote", "stats", "-addr", addr, "-json")
	if err != nil {
		t.Fatal(err)
	}
	var bs map[string]any
	if err := json.Unmarshal([]byte(out), &bs); err != nil {
		t.Fatalf("broker stats -json is not JSON: %v\n%s", err, out)
	}
	// The top-level key set is exact: the warm counters ride along as one
	// new nested object, and everything that predates them is unchanged.
	wantStats := []string{
		"compare", "convert", "xcode", "warm",
		"fast_converts", "tree_converts", "evictions",
		"in_flight", "deadline_exceeded", "sheds",
	}
	for _, key := range wantStats {
		if _, ok := bs[key]; !ok {
			t.Errorf("broker stats JSON lacks %q", key)
		}
	}
	if len(bs) != len(wantStats) {
		t.Errorf("broker stats JSON has %d top-level keys, want %d: %v", len(bs), len(wantStats), bs)
	}
	warm, ok := bs["warm"].(map[string]any)
	if !ok {
		t.Fatalf("broker stats JSON warm = %v", bs["warm"])
	}
	for _, key := range []string{"fills", "hits", "peer_pulls", "peer_pushes"} {
		if _, ok := warm[key]; !ok {
			t.Errorf("broker stats JSON warm lacks %q", key)
		}
	}

	out, err = runCLI(t, "remote", "health", "-addr", addr, "-json")
	if err != nil {
		t.Fatal(err)
	}
	var bh map[string]any
	if err := json.Unmarshal([]byte(out), &bh); err != nil {
		t.Fatalf("broker health -json is not JSON: %v\n%s", err, out)
	}
	if bh["ready"] != true || bh["max_in_flight"] != float64(256) {
		t.Errorf("broker health JSON = %v", bh)
	}
	if _, ok := bh["transcoder_entries"]; !ok {
		t.Error("broker health JSON lacks transcoder_entries")
	}
	if _, ok := bh["routes"]; ok {
		t.Error("broker health JSON carries the gateway-only routes field")
	}
	// Exact key set: expired/canceled are the deadline-propagation
	// counters, peers came with the cluster work.
	wantHealth := []string{
		"ready", "in_flight", "max_in_flight", "sheds", "conn_sheds",
		"panics", "expired", "canceled", "transcoder_entries", "peers",
		"heap_bytes", "gc_pause_ns", "num_gc",
	}
	if bh["heap_bytes"] == float64(0) {
		t.Error("broker health JSON reports zero heap_bytes")
	}
	for _, key := range wantHealth {
		if _, ok := bh[key]; !ok {
			t.Errorf("broker health JSON lacks %q", key)
		}
	}
	if len(bh) != len(wantHealth) {
		t.Errorf("broker health JSON has %d keys, want %d: %v", len(bh), len(wantHealth), bh)
	}
	if bh["peers"] != float64(0) {
		t.Errorf("standalone broker reports peers = %v, want 0", bh["peers"])
	}
}

// TestRemoteGatewayFlag drives stats/health/reload against an interop
// gateway through the -gateway flag.
func TestRemoteGatewayFlag(t *testing.T) {
	addr := startGatewayDaemon(t)

	out, err := runCLI(t, "remote", "health", "-addr", addr, "-gateway")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "status:    ready") || !strings.Contains(out, "routes:    1 live") {
		t.Errorf("gateway health = %q", out)
	}

	out, err = runCLI(t, "remote", "health", "-addr", addr, "-gateway", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var gh map[string]any
	if err := json.Unmarshal([]byte(out), &gh); err != nil {
		t.Fatalf("gateway health -json is not JSON: %v\n%s", err, out)
	}
	if gh["routes"] != float64(1) || gh["ready"] != true {
		t.Errorf("gateway health JSON = %v", gh)
	}

	out, err = runCLI(t, "remote", "stats", "-addr", addr, "-gateway", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var gs map[string]any
	if err := json.Unmarshal([]byte(out), &gs); err != nil {
		t.Fatalf("gateway stats -json is not JSON: %v\n%s", err, out)
	}
	routes, ok := gs["routes"].([]any)
	if !ok || len(routes) != 1 {
		t.Fatalf("gateway stats JSON routes = %v", gs["routes"])
	}
	if name := routes[0].(map[string]any)["name"]; name != "echo/1" {
		t.Errorf("route name = %v, want echo/1", name)
	}
	for _, key := range []string{"expired", "canceled"} {
		if _, ok := gs[key]; !ok {
			t.Errorf("gateway stats JSON lacks %q", key)
		}
	}
	ups, ok := gs["upstreams"].([]any)
	if !ok || len(ups) == 0 {
		t.Fatalf("gateway stats JSON upstreams = %v", gs["upstreams"])
	}
	up0 := ups[0].(map[string]any)
	for _, key := range []string{"budget_exhausted", "breaker_trips"} {
		if _, ok := up0[key]; !ok {
			t.Errorf("gateway stats JSON upstream lacks %q", key)
		}
	}
	for _, key := range []string{"expired", "canceled"} {
		if _, ok := gh[key]; !ok {
			t.Errorf("gateway health JSON lacks %q", key)
		}
	}

	// Exact key sets: the structs the gateway package declares are the
	// scrape contract now, so a dropped or renamed tag must fail here.
	// streamed is the one addition — it was on the wire all along.
	for _, ks := range []struct {
		what string
		got  map[string]any
		want []string
	}{
		{"stats", gs, []string{"routes", "upstreams", "lane_compiles", "lane_unsupported", "lane_reuses",
			"in_flight", "sheds", "expired", "canceled"}},
		{"route", routes[0].(map[string]any), []string{"name", "requests", "fast_tier", "tree_tier", "passthrough",
			"streamed", "transcode_ns", "upstream_errors", "sheds", "budget_rejects"}},
		{"upstream", up0, []string{"addr", "conns", "dials", "discards", "retries", "overloads",
			"hedges", "hedge_wins", "budget_exhausted", "breaker_trips"}},
		{"health", gh, []string{"ready", "in_flight", "max_in_flight", "sheds", "conn_sheds", "panics",
			"expired", "canceled", "routes", "lanes", "heap_bytes", "gc_pause_ns", "num_gc"}},
	} {
		for _, key := range ks.want {
			if _, ok := ks.got[key]; !ok {
				t.Errorf("gateway %s JSON lacks %q", ks.what, key)
			}
		}
		if len(ks.got) != len(ks.want) {
			t.Errorf("gateway %s JSON has %d keys, want %d: %v", ks.what, len(ks.got), len(ks.want), ks.got)
		}
	}
	out, err = runCLI(t, "remote", "stats", "-addr", addr, "-gateway")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0 passthrough, 0 streamed)") {
		t.Errorf("gateway stats text lacks the streamed counter: %q", out)
	}

	out, err = runCLI(t, "remote", "reload", "-addr", addr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "reloaded: 1 routes") {
		t.Errorf("reload = %q", out)
	}
}

// startClusterDaemon is startBrokerDaemon plus the cluster peer service,
// wired to the given member list once every member's address is known.
func startClusterDaemon(t *testing.T) (addr string, wire func(members []string)) {
	t.Helper()
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	b := broker.New(core.NewSession(), broker.Options{})
	broker.Serve(srv, b)
	return srv.Addr(), func(members []string) {
		n := cluster.NewNode(srv.Addr(), members, b, cluster.NodeOptions{})
		t.Cleanup(func() { _ = n.Close() })
		cluster.Serve(srv, n)
	}
}

// TestClusterStatusCommand checks `mbird cluster status -json` against a
// live 2-node fleet plus one dead member: live rows carry ring shares and
// counters, the dead member degrades to an unreachable row instead of
// failing the command, and the shares still cover the whole keyspace.
func TestClusterStatusCommand(t *testing.T) {
	a, wireA := startClusterDaemon(t)
	b, wireB := startClusterDaemon(t)
	dead := "127.0.0.1:1" // reserved port, nothing listens
	members := []string{a, b, dead}
	wireA(members)
	wireB(members)
	list := strings.Join(members, ",")

	out, err := runCLI(t, "cluster", "status", "-cluster", list, "-json",
		"-retries", "1", "-dial-timeout", "500ms")
	if err != nil {
		t.Fatalf("cluster status: %v (out=%q)", err, out)
	}
	var st struct {
		Members []string `json:"members"`
		Nodes   []struct {
			Addr         string  `json:"addr"`
			Reachable    bool    `json:"reachable"`
			Error        string  `json:"error"`
			RingShare    float64 `json:"ring_share"`
			MembersAgree bool    `json:"members_agree"`
		} `json:"nodes"`
	}
	// The raw rows must carry the deadline counters for every member.
	var raw struct {
		Nodes []map[string]any `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(out), &raw); err != nil {
		t.Fatalf("bad JSON %q: %v", out, err)
	}
	for _, n := range raw.Nodes {
		for _, key := range []string{"expired", "canceled"} {
			if _, ok := n[key]; !ok {
				t.Errorf("cluster status row %v lacks %q", n["addr"], key)
			}
		}
	}
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("bad JSON %q: %v", out, err)
	}
	if len(st.Members) != 3 || len(st.Nodes) != 3 {
		t.Fatalf("members=%v nodes=%d, want 3/3", st.Members, len(st.Nodes))
	}
	shares := 0.0
	for _, n := range st.Nodes {
		shares += n.RingShare
		switch n.Addr {
		case dead:
			if n.Reachable || n.Error == "" {
				t.Fatalf("dead member row = %+v, want unreachable with error", n)
			}
		default:
			if !n.Reachable || !n.MembersAgree {
				t.Fatalf("live member row = %+v, want reachable and agreeing", n)
			}
		}
	}
	if shares < 0.999 || shares > 1.001 {
		t.Fatalf("ring shares sum to %f, want 1", shares)
	}

	// Text mode renders one line per member and flags the dead one.
	out, err = runCLI(t, "cluster", "status", "-cluster", list,
		"-retries", "1", "-dial-timeout", "500ms")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cluster: 3 members") || !strings.Contains(out, "unreachable") {
		t.Fatalf("text status = %q", out)
	}

	// Usage errors: unknown subcommand, missing member list.
	if _, err := runCLI(t, "cluster", "bogus"); err == nil {
		t.Fatal("cluster bogus accepted")
	}
	if _, err := runCLI(t, "cluster", "status"); err == nil {
		t.Fatal("cluster status without -cluster accepted")
	}
}

// TestClusterStatusBudget checks that `mbird cluster status` carries
// -budget to each member: a member whose broker handler waits on its
// context comes back as an unreachable row once the budget is spent,
// not after -timeout.
func TestClusterStatusBudget(t *testing.T) {
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	srv.Register(broker.ObjectKey, func(ctx context.Context, op uint32, body []byte) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})

	start := time.Now()
	out, err := runCLI(t, "cluster", "status", "-cluster", srv.Addr(), "-json",
		"-budget", "20ms", "-timeout", "5s", "-retries", "1")
	if err != nil {
		t.Fatalf("cluster status: %v (out=%q)", err, out)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("cluster status took %v with -budget 20ms, want under 1s", took)
	}
	var st struct {
		Nodes []struct {
			Reachable bool   `json:"reachable"`
			Error     string `json:"error"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("bad JSON %q: %v", out, err)
	}
	if len(st.Nodes) != 1 || st.Nodes[0].Reachable || st.Nodes[0].Error == "" {
		t.Fatalf("stalled member rows = %+v, want one unreachable row with an error", st.Nodes)
	}
}
