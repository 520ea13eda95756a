// Command mbird is the Mockingbird stub compiler: it parses pairs of
// declarations (C, Java, CORBA IDL, Go), applies annotation scripts,
// lowers both sides to Mtypes, runs the Comparer, and emits Go stub
// source — the Figure 6 pipeline as a command-line tool.
//
// An empty -lang (or -a-lang/-b-lang) is inferred from the declaration
// file's extension: .h/.c→c, .java→java, .idl→idl, .go→go.
//
// Usage:
//
//	mbird parse   -lang c|java|idl|go [-model ilp32|lp64] [-script file] file
//	mbird mtype   -lang ... [-script file] -decl NAME file
//	mbird compare -a-lang L -a-file F [-a-script S] -a-decl D \
//	              -b-lang L -b-file F [-b-script S] -b-decl D
//	mbird emit    (compare flags) -pkg NAME -func NAME
//	mbird save    (compare flags) -out project.json
//	mbird show    project.json
//	mbird remote compare -addr HOST:PORT (compare flags) (transport flags)
//	mbird remote convert -addr HOST:PORT (compare flags) [-in value.json] [-batch]
//	mbird remote convert -addr HOST:PORT (compare flags) -in payload.cdr -out result.cdr
//	mbird remote stats   -addr HOST:PORT [-json] [-gateway] (transport flags)
//	mbird remote health  -addr HOST:PORT [-json] [-gateway] (transport flags)
//	mbird remote reload  -addr HOST:PORT (transport flags)
//	mbird cluster status -cluster HOST:PORT,... [-json] (transport flags)
//
// remote stats and remote health read a daemon's counters — the broker's
// by default, an interop gateway's (mbirdgw) with -gateway. -json emits
// the same counters as a JSON object with stable snake_case field names,
// for scripts and scrapers; the text rendering is for humans and may
// change. remote reload asks a gateway to re-read its route table (the
// signal-free equivalent of SIGHUP on mbirdgw).
//
// cluster status surveys a sharded broker fleet (mbirdd -cluster): for
// every member it reports the hash-ring keyspace share, cache occupancy,
// hit/warm/shed counters, and the peer cache-warming protocol's
// counters, and flags members whose view of the membership disagrees
// with the -cluster list. Unreachable members render as such without
// failing the survey.
//
// The transport flags tune the resilient client (internal/resil) the
// remote subcommands use: -timeout bounds each call, -dial-timeout each
// connection attempt, -retries the attempts per call for connection-level
// failures, and -hedge duplicates read-only requests (compare, stats)
// onto a second connection when the first is slow.
//
// compare prints the relation (equivalent, subtype, or a mismatch
// diagnosis); emit prints the generated request-direction converter for
// an equivalent pair.
//
// Remote failures exit with distinct codes so scripts and supervisors
// can tell them apart: 1 for local errors, 2 when the daemon cannot be
// reached (dial failure), 3 when the daemon served the request but the
// handler failed or panicked, 4 when the daemon shed the request as
// overloaded and retries were exhausted, 5 when the request's time
// budget expired before the daemon finished (shed pre-dispatch or
// abandoned in flight).
//
// The remote subcommands talk to an mbirdd broker daemon. Sources are
// shipped under content-addressed universe names, so repeated invocations
// against the same daemon reuse its loaded declarations and caches.
// remote convert reads a JSON rendering of a value of the A declaration
// (stdin by default) and prints the converted value of the B declaration;
// the Mtypes for the JSON and CDR codecs are lowered locally from the
// same sources the daemon sees. With -batch the input is a JSON array of
// A values and the output a JSON array of B values, converted in one
// daemon request through the batch protocol op. With -out the JSON
// codecs are bypassed entirely: -in names a raw CDR payload of the A
// declaration (stdin with -), -out receives the raw CDR payload of the
// B declaration (stdout with -), and both legs stream through the
// daemon's streaming convert op in bounded memory — payloads larger
// than RAM convert from disk to disk.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/gen"
	"repro/internal/orb"
	"repro/internal/plan"
	"repro/internal/project"
	"repro/internal/resil"
	"repro/internal/serve"
	"repro/internal/value"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mbird:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps an error to the process exit status: 2 for dial
// failures (daemon unreachable), 5 for expired time budgets (the
// daemon never finished the work inside the request's budget), 4 for
// overload sheds that outlasted the client's retries, 3 for remote
// handler errors, server panics and objects not served there (the
// daemon answered and reported failure), 1 otherwise. Overload is
// checked before the handler-error cases because resil wraps the final
// shed in its attempts-exhausted error; expired is checked before both
// because it is the caller's clock, not a daemon verdict.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var re *orb.RemoteError
	switch {
	case errors.Is(err, orb.ErrDial):
		return 2
	case errors.Is(err, orb.ErrExpired):
		return 5
	case errors.Is(err, orb.ErrOverloaded):
		return 4
	case errors.As(err, &re), errors.Is(err, orb.ErrServerPanic), errors.Is(err, orb.ErrUnavailable):
		return 3
	}
	return 1
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: mbird <parse|mtype|compare|emit|save|show> ...")
	}
	switch args[0] {
	case "parse":
		return cmdParse(args[1:], out)
	case "mtype":
		return cmdMtype(args[1:], out)
	case "compare":
		return cmdCompare(args[1:], out)
	case "emit":
		return cmdEmit(args[1:], out)
	case "save":
		return cmdSave(args[1:], out)
	case "show":
		return cmdShow(args[1:], out)
	case "remote":
		return cmdRemote(args[1:], out)
	case "cluster":
		return cmdCluster(args[1:], out)
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func cmdRemote(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: mbird remote <compare|convert|stats|health|reload> -addr HOST:PORT ...")
	}
	switch args[0] {
	case "compare":
		return cmdRemoteCompare(args[1:], out)
	case "convert":
		return cmdRemoteConvert(args[1:], out)
	case "stats":
		return cmdRemoteStats(args[1:], out)
	case "health":
		return cmdRemoteHealth(args[1:], out)
	case "reload":
		return cmdRemoteReload(args[1:], out)
	default:
		return fmt.Errorf("unknown remote command %q", args[0])
	}
}

// side describes one declaration side's flags; prefix is their common
// prefix ("a-", "b-", or "" where the file is the argument).
type side struct {
	lang, file, script, decl, model, prefix string
}

func (s *side) register(fs *flag.FlagSet, prefix string) {
	s.prefix = prefix
	fs.StringVar(&s.lang, prefix+"lang", "", "language: c, java, idl, or go (inferred from the file extension when empty)")
	fs.StringVar(&s.file, prefix+"file", "", "declaration source file")
	fs.StringVar(&s.script, prefix+"script", "", "annotation script file (optional)")
	fs.StringVar(&s.decl, prefix+"decl", "", "declaration name")
	fs.StringVar(&s.model, prefix+"model", "ilp32", "C data model: ilp32 or lp64")
}

// langExts maps declaration file extensions to their languages, for
// inferring an empty -lang flag.
var langExts = map[string]string{
	".h":    "c",
	".c":    "c",
	".java": "java",
	".idl":  "idl",
	".go":   "go",
}

// resolveLang fills an empty lang from the file extension, or explains
// why it cannot.
func (s *side) resolveLang() error {
	if s.lang != "" {
		return nil
	}
	if s.file == "" {
		return nil // the missing-file error is clearer; let load report it
	}
	ext := strings.ToLower(filepath.Ext(s.file))
	if lang, ok := langExts[ext]; ok {
		s.lang = lang
		return nil
	}
	return fmt.Errorf("cannot infer language from %q (extension %q is not one of .h/.c/.java/.idl/.go); pass -lang c|java|idl|go", s.file, ext)
}

// missing is the error for a side without a language or a file, naming
// the flags that give them.
func (s *side) missing() error {
	if s.prefix == "" {
		return errors.New("missing -lang or the file argument")
	}
	return fmt.Errorf("missing -%slang/-%sfile", s.prefix, s.prefix)
}

// load parses the side's file into the session under the given universe
// name and applies its annotation script.
func (s *side) load(sess *core.Session, universe string) error {
	if err := s.resolveLang(); err != nil {
		return err
	}
	if s.lang == "" || s.file == "" {
		return s.missing()
	}
	src, err := os.ReadFile(s.file)
	if err != nil {
		return err
	}
	if err := sess.LoadSource(universe, s.lang, s.model, string(src)); err != nil {
		return err
	}
	if s.script != "" {
		script, err := os.ReadFile(s.script)
		if err != nil {
			return err
		}
		if _, err := sess.Annotate(universe, string(script)); err != nil {
			return err
		}
	}
	return nil
}

func cmdParse(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("parse", flag.ContinueOnError)
	var s side
	s.register(fs, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mbird parse -lang L [flags] file")
	}
	s.file = fs.Arg(0)
	sess := core.NewSession()
	if err := s.load(sess, "u"); err != nil {
		return err
	}
	names, err := sess.DeclNames("u")
	if err != nil {
		return err
	}
	for _, n := range names {
		d := sess.Universe("u").Lookup(n)
		fmt.Fprintf(out, "%-30s %s\n", n, d.Type)
	}
	return nil
}

func cmdMtype(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mtype", flag.ContinueOnError)
	var s side
	s.register(fs, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || s.decl == "" {
		return fmt.Errorf("usage: mbird mtype -lang L -decl NAME [flags] file")
	}
	s.file = fs.Arg(0)
	sess := core.NewSession()
	if err := s.load(sess, "u"); err != nil {
		return err
	}
	mt, err := sess.Mtype("u", s.decl)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, mt)
	return nil
}

// loadPair builds a session with both sides loaded.
func loadPair(args []string, requireDecls bool, extra func(fs *flag.FlagSet)) (*core.Session, *side, *side, error) {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	var a, b side
	a.register(fs, "a-")
	b.register(fs, "b-")
	if extra != nil {
		extra(fs)
	}
	if err := fs.Parse(args); err != nil {
		return nil, nil, nil, err
	}
	sess := core.NewSession()
	if err := a.load(sess, "a"); err != nil {
		return nil, nil, nil, err
	}
	if err := b.load(sess, "b"); err != nil {
		return nil, nil, nil, err
	}
	if requireDecls && (a.decl == "" || b.decl == "") {
		return nil, nil, nil, fmt.Errorf("missing -a-decl/-b-decl")
	}
	return sess, &a, &b, nil
}

func cmdCompare(args []string, out io.Writer) error {
	sess, a, b, err := loadPair(args, true, nil)
	if err != nil {
		return err
	}
	v, err := sess.Compare("a", a.decl, "b", b.decl)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "relation: %s (%d comparison steps)\n", v.Relation, v.Steps)
	if v.Relation == core.RelNone {
		fmt.Fprintf(out, "diagnosis:\n%s", v.Explain)
		return fmt.Errorf("declarations do not match")
	}
	mtA, _ := sess.Mtype("a", a.decl)
	mtB, _ := sess.Mtype("b", b.decl)
	fmt.Fprintf(out, "left  mtype: %s\n", mtA)
	fmt.Fprintf(out, "right mtype: %s\n", mtB)
	return nil
}

func cmdEmit(args []string, out io.Writer) error {
	var pkg, funcName string
	sess, a, b, err := loadPair(args, true, func(fs *flag.FlagSet) {
		fs.StringVar(&pkg, "pkg", "stubs", "package name for the generated file")
		fs.StringVar(&funcName, "func", "Convert", "exported converter name")
	})
	if err != nil {
		return err
	}
	v, err := sess.Compare("a", a.decl, "b", b.decl)
	if err != nil {
		return err
	}
	if v.Relation == core.RelNone {
		return fmt.Errorf("declarations do not match:\n%s", v.Explain)
	}
	p, err := plan.Build(v.Match)
	if err != nil {
		return err
	}
	src, err := gen.Converter(p, pkg, funcName)
	if err != nil {
		return err
	}
	fmt.Fprint(out, src)
	return nil
}

func cmdSave(args []string, out io.Writer) error {
	var outPath string
	sess, _, _, err := loadPair(args, false, func(fs *flag.FlagSet) {
		fs.StringVar(&outPath, "out", "", "project file to write")
	})
	if err != nil {
		return err
	}
	if outPath == "" {
		return fmt.Errorf("missing -out")
	}
	data, err := project.Save(sess)
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "saved %d universes to %s\n", len(sess.Universes()), outPath)
	return nil
}

func cmdShow(args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: mbird show project.json")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	sess, err := project.Load(data)
	if err != nil {
		return err
	}
	for _, uname := range sess.Universes() {
		u := sess.Universe(uname)
		fmt.Fprintf(out, "universe %s (%s):\n", uname, u.Lang())
		names, err := sess.DeclNames(uname)
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Fprintf(out, "  %-28s %s\n", n, u.Lookup(n).Type)
		}
	}
	return nil
}

// sources reads the side's declaration file and optional script.
func (s *side) sources() (src, script string, err error) {
	if err := s.resolveLang(); err != nil {
		return "", "", err
	}
	if s.lang == "" || s.file == "" {
		return "", "", s.missing()
	}
	data, err := os.ReadFile(s.file)
	if err != nil {
		return "", "", err
	}
	src = string(data)
	if s.script != "" {
		data, err := os.ReadFile(s.script)
		if err != nil {
			return "", "", err
		}
		script = string(data)
	}
	return src, script, nil
}

// remoteLoad ships one side to the daemon. The universe name is a content
// hash of everything that determines the lowering, so reloading identical
// sources is a no-op on the daemon and distinct sources never collide.
func (s *side) remoteLoad(c *broker.Client) (universe string, err error) {
	src, script, err := s.sources()
	if err != nil {
		return "", err
	}
	h := sha256.Sum256([]byte(s.lang + "\x00" + s.model + "\x00" + src + "\x00" + script))
	universe = "u" + hex.EncodeToString(h[:8])
	_, _, err = c.Load(universe, s.lang, s.model, src, script)
	return universe, err
}

// transportFlags are the shared resilient-transport knobs of the remote
// subcommands.
type transportFlags struct {
	addr        string
	timeout     time.Duration
	dialTimeout time.Duration
	retries     int
	hedge       bool
	budget      time.Duration
}

func (tf *transportFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&tf.addr, "addr", "127.0.0.1:7465", "broker daemon address")
	fs.DurationVar(&tf.timeout, "timeout", 15*time.Second, "per-call deadline (0 = library default, negative = none)")
	fs.DurationVar(&tf.dialTimeout, "dial-timeout", 5*time.Second, "per-connection dial deadline")
	fs.IntVar(&tf.retries, "retries", 3, "attempts per call for connection-level failures")
	fs.BoolVar(&tf.hedge, "hedge", false, "hedge slow read-only requests on a second connection")
	fs.DurationVar(&tf.budget, "budget", 0, "explicit deadline budget carried in each request frame, independent of -timeout (0 = derive from the call deadline)")
}

// ctx returns the base context for the subcommand's calls: Background,
// or one carrying the explicit -budget as the wire deadline budget. The
// local -timeout still bounds the call either way; -budget only
// overrides what the server is told about the remaining time.
func (tf *transportFlags) ctx() context.Context {
	if tf.budget > 0 {
		return orb.ContextWithBudget(context.Background(), tf.budget)
	}
	return context.Background()
}

// pool builds the resilient pooled transport the remote subcommands
// speak through.
func (tf *transportFlags) pool() *resil.Client {
	return resil.New(tf.addr, resil.Options{
		CallTimeout: tf.timeout,
		DialTimeout: tf.dialTimeout,
		MaxAttempts: tf.retries,
		Hedge:       tf.hedge,
	})
}

// dial builds a broker client over the resilient pooled transport.
func (tf *transportFlags) dial() *broker.Client { return broker.NewTransportClient(tf.pool()) }

// remotePair parses the shared remote flags, connects, and loads both
// sides onto the daemon. ctx is the base context for the subcommand's
// calls, carrying the explicit -budget when one was given.
func remotePair(name string, args []string, extra func(fs *flag.FlagSet)) (ctx context.Context, c *broker.Client, a, b *side, ua, ub string, err error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	var tf transportFlags
	tf.register(fs)
	a, b = &side{}, &side{}
	a.register(fs, "a-")
	b.register(fs, "b-")
	if extra != nil {
		extra(fs)
	}
	if err = fs.Parse(args); err != nil {
		return nil, nil, nil, nil, "", "", err
	}
	if a.decl == "" || b.decl == "" {
		return nil, nil, nil, nil, "", "", fmt.Errorf("missing -a-decl/-b-decl")
	}
	c = tf.dial()
	if ua, err = a.remoteLoad(c); err == nil {
		ub, err = b.remoteLoad(c)
	}
	if err != nil {
		_ = c.Close()
		return nil, nil, nil, nil, "", "", err
	}
	return tf.ctx(), c, a, b, ua, ub, nil
}

func cmdRemoteCompare(args []string, out io.Writer) error {
	ctx, c, a, b, ua, ub, err := remotePair("remote compare", args, nil)
	if err != nil {
		return err
	}
	defer c.Close()
	v, err := c.CompareContext(ctx, ua, a.decl, ub, b.decl)
	if err != nil {
		return err
	}
	source := "compared"
	if v.Cached {
		source = "cached"
	}
	fmt.Fprintf(out, "relation: %s (%d comparison steps, %s)\n", v.Relation, v.Steps, source)
	if v.Relation == core.RelNone {
		fmt.Fprintf(out, "diagnosis:\n%s", v.Explain)
		return fmt.Errorf("declarations do not match")
	}
	return nil
}

func cmdRemoteConvert(args []string, out io.Writer) error {
	var inPath, outPath string
	var batch bool
	ctx, c, a, b, ua, ub, err := remotePair("remote convert", args, func(fs *flag.FlagSet) {
		fs.StringVar(&inPath, "in", "-", "JSON value of the A declaration (- for stdin); with -out, raw CDR payload bytes instead")
		fs.StringVar(&outPath, "out", "", "write raw CDR payload bytes of the B declaration to this file (- for stdout), streaming both legs; disables the JSON codecs")
		fs.BoolVar(&batch, "batch", false, "input is a JSON array of A values; convert them in one batch request")
	})
	if err != nil {
		return err
	}
	defer c.Close()

	if outPath != "" {
		if batch {
			return fmt.Errorf("-batch and -out are exclusive")
		}
		return streamConvert(ctx, c, a, b, ua, ub, inPath, outPath, out)
	}

	// Lower both sides locally: the daemon converts CDR payloads, the
	// client owns the JSON⇄CDR codecs.
	sess := core.NewSession()
	if err := a.load(sess, "a"); err != nil {
		return err
	}
	if err := b.load(sess, "b"); err != nil {
		return err
	}
	mtA, err := sess.Mtype("a", a.decl)
	if err != nil {
		return err
	}
	mtB, err := sess.Mtype("b", b.decl)
	if err != nil {
		return err
	}

	var data []byte
	if inPath == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(inPath)
	}
	if err != nil {
		return err
	}
	if batch {
		var raws []json.RawMessage
		if err := json.Unmarshal(data, &raws); err != nil {
			return fmt.Errorf("batch input must be a JSON array: %w", err)
		}
		ins := make([]value.Value, len(raws))
		for i, r := range raws {
			if ins[i], err = value.FromJSON(mtA, r); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		outs, err := c.ConvertBatchContext(ctx, ua, a.decl, ub, b.decl, mtA, mtB, ins)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "[")
		for i, v := range outs {
			js, err := value.ToJSON(mtB, v)
			if err != nil {
				return err
			}
			sep := ","
			if i == len(outs)-1 {
				sep = ""
			}
			fmt.Fprintf(out, "  %s%s\n", js, sep)
		}
		fmt.Fprintln(out, "]")
		return nil
	}

	in, err := value.FromJSON(mtA, data)
	if err != nil {
		return err
	}
	res, err := c.ConvertContext(ctx, ua, a.decl, ub, b.decl, mtA, mtB, in)
	if err != nil {
		return err
	}
	js, err := value.ToJSON(mtB, res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", js)
	return nil
}

// streamConvert is the raw-CDR mode of remote convert: payload bytes
// flow file→daemon→file through the streaming convert op, so neither
// the client nor the daemon ever holds the whole value — the path for
// payloads bigger than memory. The JSON codecs (and therefore the local
// lowering they need) are skipped entirely.
func streamConvert(ctx context.Context, c *broker.Client, a, b *side, ua, ub string, inPath, outPath string, stdout io.Writer) error {
	var src io.Reader = os.Stdin
	if inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	var dst io.Writer = stdout
	if outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	n, err := c.ConvertStreamContext(ctx, ua, a.decl, ub, b.decl, bufio.NewReaderSize(src, 256<<10), dst)
	if err != nil {
		return err
	}
	if outPath != "-" {
		fmt.Fprintf(stdout, "wrote %d bytes to %s\n", n, outPath)
	}
	return nil
}

// dialGateway builds a gateway admin client over the same resilient
// pooled transport the broker client uses.
func (tf *transportFlags) dialGateway() *gateway.Client { return gateway.NewTransportClient(tf.pool()) }

// emitJSON writes v as indented JSON. The json tags — on brokerStatsJSON
// below, and on the gateway stats and the health structs in their own
// packages — are the stable scrape contract; the text renderings are for
// humans and may change.
func emitJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// brokerStatsJSON is the stable -json shape of `mbird remote stats`
// against a broker daemon.
type brokerStatsJSON struct {
	Compare struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
		Runs      int64 `json:"runs"`
		TotalNs   int64 `json:"total_ns"`
		Entries   int   `json:"entries"`
	} `json:"compare"`
	Convert struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
		Compiles  int64 `json:"compiles"`
		TotalNs   int64 `json:"total_ns"`
		Entries   int   `json:"entries"`
	} `json:"convert"`
	Xcode struct {
		Hits        int64 `json:"hits"`
		Misses      int64 `json:"misses"`
		Coalesced   int64 `json:"coalesced"`
		Compiles    int64 `json:"compiles"`
		Unsupported int64 `json:"unsupported"`
		Entries     int   `json:"entries"`
	} `json:"xcode"`
	Warm struct {
		Fills      int64 `json:"fills"`
		Hits       int64 `json:"hits"`
		PeerPulls  int64 `json:"peer_pulls"`
		PeerPushes int64 `json:"peer_pushes"`
	} `json:"warm"`
	FastConverts     int64 `json:"fast_converts"`
	TreeConverts     int64 `json:"tree_converts"`
	Evictions        int64 `json:"evictions"`
	InFlight         int64 `json:"in_flight"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Sheds            int64 `json:"sheds"`
}

func cmdRemoteStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("remote stats", flag.ContinueOnError)
	var tf transportFlags
	tf.register(fs)
	asJSON := fs.Bool("json", false, "emit JSON with stable field names")
	gw := fs.Bool("gateway", false, "read an interop gateway's stats instead of a broker's")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gw {
		c := tf.dialGateway()
		defer c.Close()
		st, err := c.StatsContext(tf.ctx())
		if err != nil {
			return err
		}
		if *asJSON {
			return emitJSON(out, st)
		}
		for _, r := range st.Routes {
			fmt.Fprintf(out, "route %-20s %d requests (%d wire-to-wire, %d via trees, %d passthrough, %d streamed), %v transcoding, %d upstream errors, %d shed, %d over budget\n",
				r.Name+":", r.Requests, r.FastTier, r.TreeTier, r.Passthrough, r.Streamed,
				r.TranscodeTotal, r.UpstreamErrors, r.Sheds, r.BudgetRejects)
		}
		for _, u := range st.Upstreams {
			fmt.Fprintf(out, "upstream %-17s %d conns, %d dials, %d discards, %d retries, %d overloads, %d hedges (%d won), %d budget-refused, %d breaker trips\n",
				u.Addr+":", u.Conns, u.Dials, u.Discards, u.Retries, u.Overloads, u.Hedges, u.HedgeWins,
				u.BudgetExhausted, u.BreakerTrips)
		}
		fmt.Fprintf(out, "lanes:    %d compiled (%d tree-only), %d cache reuses\n",
			st.LaneCompiles, st.LaneUnsupported, st.LaneReuses)
		fmt.Fprintf(out, "in-flight: %d, shed: %d, expired: %d, canceled: %d\n",
			st.InFlight, st.Sheds, st.Expired, st.Canceled)
		return nil
	}
	c := tf.dial()
	defer c.Close()
	st, err := c.StatsContext(tf.ctx())
	if err != nil {
		return err
	}
	if *asJSON {
		var js brokerStatsJSON
		js.Compare.Hits, js.Compare.Misses, js.Compare.Coalesced = st.CompareHits, st.CompareMisses, st.CompareCoalesced
		js.Compare.Runs, js.Compare.TotalNs, js.Compare.Entries = st.CompareRuns, st.CompareTotal.Nanoseconds(), st.VerdictEntries
		js.Convert.Hits, js.Convert.Misses, js.Convert.Coalesced = st.ConvertHits, st.ConvertMisses, st.ConvertCoalesced
		js.Convert.Compiles, js.Convert.TotalNs, js.Convert.Entries = st.Compiles, st.CompileTotal.Nanoseconds(), st.ConverterEntries
		js.Xcode.Hits, js.Xcode.Misses, js.Xcode.Coalesced = st.XcodeHits, st.XcodeMisses, st.XcodeCoalesced
		js.Xcode.Compiles, js.Xcode.Unsupported, js.Xcode.Entries = st.XcodeCompiles, st.XcodeUnsupported, st.XcodeEntries
		js.Warm.Fills, js.Warm.Hits = st.WarmFills, st.WarmHits
		js.Warm.PeerPulls, js.Warm.PeerPushes = st.PeerPulls, st.PeerPushes
		js.FastConverts, js.TreeConverts = st.FastConverts, st.TreeConverts
		js.Evictions, js.InFlight, js.DeadlineExceeded, js.Sheds = st.Evictions, st.InFlight, st.DeadlineExceeded, st.Sheds
		return emitJSON(out, js)
	}
	fmt.Fprintf(out, "compare:  %d hits, %d misses, %d coalesced, %d runs (%v total), %d cached verdicts\n",
		st.CompareHits, st.CompareMisses, st.CompareCoalesced, st.CompareRuns, st.CompareTotal, st.VerdictEntries)
	fmt.Fprintf(out, "convert:  %d hits, %d misses, %d coalesced, %d compiles (%v total), %d cached converters\n",
		st.ConvertHits, st.ConvertMisses, st.ConvertCoalesced, st.Compiles, st.CompileTotal, st.ConverterEntries)
	fmt.Fprintf(out, "xcode:    %d hits, %d misses, %d coalesced, %d compiles (%d unsupported), %d cached transcoders\n",
		st.XcodeHits, st.XcodeMisses, st.XcodeCoalesced, st.XcodeCompiles, st.XcodeUnsupported, st.XcodeEntries)
	fmt.Fprintf(out, "tiers:    %d conversions wire-to-wire, %d via value trees\n",
		st.FastConverts, st.TreeConverts)
	fmt.Fprintf(out, "warm:     %d peer-warmed fills, %d warm hits, %d peer pulls, %d peer pushes\n",
		st.WarmFills, st.WarmHits, st.PeerPulls, st.PeerPushes)
	fmt.Fprintf(out, "evictions: %d, in-flight: %d, server deadlines exceeded: %d, shed: %d\n",
		st.Evictions, st.InFlight, st.DeadlineExceeded, st.Sheds)
	return nil
}

func cmdRemoteHealth(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("remote health", flag.ContinueOnError)
	var tf transportFlags
	tf.register(fs)
	asJSON := fs.Bool("json", false, "emit JSON with stable field names")
	gw := fs.Bool("gateway", false, "read an interop gateway's health instead of a broker's")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// js is the daemon's whole health struct, for -json; the text
	// rendering is the shared core plus the daemon's own lines.
	var js any
	var h serve.Health
	var own string
	if *gw {
		c := tf.dialGateway()
		defer c.Close()
		gh, err := c.HealthContext(tf.ctx())
		if err != nil {
			return err
		}
		js, h = gh, gh.Health
		own = fmt.Sprintf("routes:    %d live, %d compiled lanes\n", gh.Routes, gh.Lanes)
	} else {
		c := tf.dial()
		defer c.Close()
		bh, err := c.HealthContext(tf.ctx())
		if err != nil {
			return err
		}
		js, h = bh, bh.Health
		own = fmt.Sprintf("xcoders:   %d cached\npeers:     %d cluster peers\n", bh.TranscoderEntries, bh.Peers)
	}
	if *asJSON {
		return emitJSON(out, js)
	}
	ready := "ready"
	if !h.Ready {
		ready = "draining"
	}
	fmt.Fprintf(out, "status:    %s\n", ready)
	fmt.Fprintf(out, "in-flight: %d of %s admitted\n", h.InFlight, inflightCap(h.MaxInFlight))
	fmt.Fprintf(out, "shed:      %d overload, %d per-connection\n", h.Sheds, h.ConnSheds)
	fmt.Fprintf(out, "panics:    %d recovered\n", h.Panics)
	fmt.Fprintf(out, "deadlines: %d expired, %d canceled\n", h.Expired, h.Canceled)
	fmt.Fprint(out, own)
	fmt.Fprintf(out, "memory:    %d heap bytes in use, %d GCs (%v paused)\n",
		h.HeapBytes, h.NumGC, time.Duration(h.GCPauseNs))
	return nil
}

// cmdRemoteReload asks an interop gateway to re-read its route table —
// the signal-free equivalent of SIGHUP on mbirdgw.
func cmdRemoteReload(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("remote reload", flag.ContinueOnError)
	var tf transportFlags
	tf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := tf.dialGateway()
	defer c.Close()
	n, err := c.ReloadContext(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "reloaded: %d routes\n", n)
	return nil
}

// inflightCap renders the admission capacity, which may be unbounded.
func inflightCap(n int) string {
	if n <= 0 {
		return "unbounded"
	}
	return fmt.Sprint(n)
}

func cmdCluster(args []string, out io.Writer) error {
	if len(args) == 0 || args[0] != "status" {
		return fmt.Errorf("usage: mbird cluster status -cluster HOST:PORT,... [-json]")
	}
	return cmdClusterStatus(args[1:], out)
}

// clusterNodeJSON is one member's row in the stable -json shape of
// `mbird cluster status`. Unreachable members keep their addr and ring
// share but report reachable=false and carry the error.
type clusterNodeJSON struct {
	Addr         string  `json:"addr"`
	Reachable    bool    `json:"reachable"`
	Error        string  `json:"error,omitempty"`
	RingShare    float64 `json:"ring_share"`
	MembersAgree bool    `json:"members_agree"`
	Verdicts     int     `json:"verdicts"`
	Converters   int     `json:"converters"`
	Transcoders  int     `json:"transcoders"`
	Hits         int64   `json:"hits"`
	Sheds        int64   `json:"sheds"`
	Expired      int64   `json:"expired"`
	Canceled     int64   `json:"canceled"`
	Warm         struct {
		Fills      int64 `json:"fills"`
		Hits       int64 `json:"hits"`
		PeerPulls  int64 `json:"peer_pulls"`
		PeerPushes int64 `json:"peer_pushes"`
	} `json:"warm"`
	Peer struct {
		PullsSent   int64 `json:"pulls_sent"`
		PushesSent  int64 `json:"pushes_sent"`
		PushErrs    int64 `json:"push_errs"`
		PushDrops   int64 `json:"push_drops"`
		PushesRecv  int64 `json:"pushes_recv"`
		PullsServed int64 `json:"pulls_served"`
		ListsServed int64 `json:"lists_served"`
		Synced      int64 `json:"synced"`
	} `json:"peer"`
}

type clusterStatusJSON struct {
	Members []string          `json:"members"`
	Nodes   []clusterNodeJSON `json:"nodes"`
}

func cmdClusterStatus(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cluster status", flag.ContinueOnError)
	var tf transportFlags
	tf.register(fs)
	members := fs.String("cluster", "", "comma-separated fleet member list")
	asJSON := fs.Bool("json", false, "emit JSON with stable field names")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := cluster.SplitMembers(*members)
	if len(addrs) == 0 {
		return fmt.Errorf("missing -cluster member list")
	}
	ring := cluster.NewRing(addrs)
	shares := ring.Shares(4096)

	js := clusterStatusJSON{Members: ring.Members(), Nodes: []clusterNodeJSON{}}
	for _, addr := range ring.Members() {
		row := clusterNodeJSON{Addr: addr, RingShare: shares[addr]}
		member := tf
		member.addr = addr
		rc := member.pool()
		err := func() error {
			st, err := broker.NewTransportClient(rc).StatsContext(tf.ctx())
			if err != nil {
				return err
			}
			ns, err := cluster.FetchStatus(tf.ctx(), rc)
			if err != nil {
				return err
			}
			row.Reachable = true
			row.MembersAgree = slices.Equal(cluster.NewRing(ns.Members).Members(), ring.Members())
			row.Verdicts, row.Converters, row.Transcoders = st.VerdictEntries, st.ConverterEntries, st.XcodeEntries
			row.Hits = st.CompareHits + st.ConvertHits + st.XcodeHits
			row.Sheds = st.Sheds
			row.Warm.Fills, row.Warm.Hits = st.WarmFills, st.WarmHits
			row.Warm.PeerPulls, row.Warm.PeerPushes = st.PeerPulls, st.PeerPushes
			row.Peer.PullsSent, row.Peer.PushesSent = ns.PullsSent, ns.PushesSent
			row.Peer.PushErrs, row.Peer.PushDrops = ns.PushErrs, ns.PushDrops
			row.Peer.PushesRecv, row.Peer.PullsServed = ns.PushesRecv, ns.PullsServed
			row.Peer.ListsServed, row.Peer.Synced = ns.ListsServed, ns.Synced
			row.Expired, row.Canceled = ns.Expired, ns.Canceled
			return nil
		}()
		_ = rc.Close()
		if err != nil {
			row.Error = err.Error()
		}
		js.Nodes = append(js.Nodes, row)
	}
	if *asJSON {
		return emitJSON(out, js)
	}
	fmt.Fprintf(out, "cluster: %d members\n", len(js.Members))
	for _, n := range js.Nodes {
		if !n.Reachable {
			fmt.Fprintf(out, "node %-21s %4.1f%% of keyspace, unreachable: %s\n", n.Addr+":", 100*n.RingShare, n.Error)
			continue
		}
		fmt.Fprintf(out, "node %-21s %4.1f%% of keyspace, %d verdicts / %d converters / %d xcoders cached, %d hits (%d warm), %d shed, %d expired, %d canceled\n",
			n.Addr+":", 100*n.RingShare, n.Verdicts, n.Converters, n.Transcoders, n.Hits, n.Warm.Hits, n.Sheds, n.Expired, n.Canceled)
		fmt.Fprintf(out, "  warm: %d fills, %d pulls sent / %d served, %d pushes sent / %d recv (%d errs, %d drops), %d synced at start\n",
			n.Warm.Fills, n.Peer.PullsSent, n.Peer.PullsServed, n.Peer.PushesSent, n.Peer.PushesRecv,
			n.Peer.PushErrs, n.Peer.PushDrops, n.Peer.Synced)
		if !n.MembersAgree {
			fmt.Fprintf(out, "  WARNING: member list disagrees with -cluster\n")
		}
	}
	return nil
}
