// Route configuration for the interop gateway: a JSON document mapping
// operation keys (orb object key + op number) to declaration pairs. The
// gateway compiles each pair at route load and transcodes matching
// traffic in flight; the file is hot-reloadable (SIGHUP on mbirdgw, or
// the admin reload op), so routes can be added, retired, or retargeted
// without dropping client connections.
package gateway

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cmem"
	"repro/internal/stype"
)

// Config is the gateway's route table.
type Config struct {
	// Upstream is the default upstream address for routes that do not
	// name their own.
	Upstream string `json:"upstream,omitempty"`
	// Routes maps operation keys to declaration pairs.
	Routes []RouteConfig `json:"routes"`
}

// RouteConfig describes one proxied operation: which (key, op) it
// matches on the client side, where it forwards, and which declaration
// pair each payload direction is transcoded through.
type RouteConfig struct {
	// Name labels the route in stats; defaults to "key/op".
	Name string `json:"name,omitempty"`
	// Key is the orb object key the route matches on client connections.
	Key string `json:"key"`
	// Op is the operation number the route matches.
	Op uint32 `json:"op"`
	// Upstream overrides Config.Upstream for this route.
	Upstream string `json:"upstream,omitempty"`
	// UpstreamKey rewrites the object key on the upstream leg (defaults
	// to Key).
	UpstreamKey string `json:"upstream_key,omitempty"`
	// UpstreamOp rewrites the op on the upstream leg (defaults to Op).
	UpstreamOp *uint32 `json:"upstream_op,omitempty"`
	// Request is the client→upstream payload transcoding; nil forwards
	// request bodies untouched.
	Request *LaneConfig `json:"request,omitempty"`
	// Reply is the upstream→client payload transcoding; nil forwards
	// reply bodies untouched.
	Reply *LaneConfig `json:"reply,omitempty"`
}

// LaneConfig is one payload direction: the declaration the sender
// marshals against and the declaration the receiver expects. For the
// request lane the sender is the connecting client; for the reply lane
// the sender is the upstream server.
type LaneConfig struct {
	From DeclConfig `json:"from"`
	To   DeclConfig `json:"to"`
}

// DeclConfig names one declaration: its language, source (inline or a
// file resolved relative to the config), optional annotation script,
// and the declaration name within the source.
type DeclConfig struct {
	// Lang is "c", "java", "idl", or "go".
	Lang string `json:"lang"`
	// Model is the C data model, "ilp32" (default) or "lp64".
	Model string `json:"model,omitempty"`
	// Source is the inline declaration source. Exactly one of Source
	// and File must be set.
	Source string `json:"source,omitempty"`
	// File is a path to the declaration source, resolved relative to
	// the config file's directory by LoadConfig.
	File string `json:"file,omitempty"`
	// Script is an inline annotation script applied after parsing.
	Script string `json:"script,omitempty"`
	// ScriptFile is a path to the annotation script (exclusive with
	// Script), resolved like File.
	ScriptFile string `json:"script_file,omitempty"`
	// Decl is the declaration name to lower.
	Decl string `json:"decl"`
}

// universe derives the content-addressed universe name for the
// declaration's (resolved) sources, so identical sources share one
// loaded universe and distinct sources never collide — the same scheme
// mbird remote uses against the broker daemon.
func (d *DeclConfig) universe() string {
	h := sha256.Sum256([]byte(d.Lang + "\x00" + d.Model + "\x00" + d.Source + "\x00" + d.Script))
	return "u" + hex.EncodeToString(h[:8])
}

func (d *DeclConfig) validate(where string) error {
	if d.Lang == "" {
		return fmt.Errorf("gateway: %s: missing lang", where)
	}
	var lang stype.Lang
	if err := lang.UnmarshalText([]byte(d.Lang)); err != nil {
		return fmt.Errorf("gateway: %s: %w", where, err)
	}
	if _, err := cmem.ParseModel(d.Model); err != nil {
		return fmt.Errorf("gateway: %s: %w", where, err)
	}
	if (d.Source == "") == (d.File == "") {
		return fmt.Errorf("gateway: %s: exactly one of source and file must be set", where)
	}
	if d.Script != "" && d.ScriptFile != "" {
		return fmt.Errorf("gateway: %s: script and script_file are exclusive", where)
	}
	if d.Decl == "" {
		return fmt.Errorf("gateway: %s: missing decl", where)
	}
	return nil
}

// resolve inlines File/ScriptFile contents (relative paths joined onto
// dir) so the rest of the gateway only ever sees inline sources.
func (d *DeclConfig) resolve(dir string) error {
	read := func(p string) (string, error) {
		if !filepath.IsAbs(p) {
			p = filepath.Join(dir, p)
		}
		b, err := os.ReadFile(p)
		return string(b), err
	}
	if d.File != "" {
		src, err := read(d.File)
		if err != nil {
			return fmt.Errorf("gateway: declaration source: %w", err)
		}
		d.Source, d.File = src, ""
	}
	if d.ScriptFile != "" {
		script, err := read(d.ScriptFile)
		if err != nil {
			return fmt.Errorf("gateway: annotation script: %w", err)
		}
		d.Script, d.ScriptFile = script, ""
	}
	return nil
}

// DisplayName is the route's stats label.
func (r *RouteConfig) DisplayName() string {
	if r.Name != "" {
		return r.Name
	}
	return fmt.Sprintf("%s/%d", r.Key, r.Op)
}

// Validate checks the config for structural problems: missing keys,
// duplicate (key, op) matches, lanes without declarations, routes with
// no upstream to forward to.
func (c *Config) Validate() error {
	seen := make(map[string]bool)
	for i := range c.Routes {
		r := &c.Routes[i]
		where := fmt.Sprintf("route %d (%s)", i, r.DisplayName())
		if r.Key == "" {
			return fmt.Errorf("gateway: %s: missing key", where)
		}
		if r.Key == AdminKey {
			return fmt.Errorf("gateway: %s: key %q is reserved for the admin service", where, AdminKey)
		}
		match := fmt.Sprintf("%s\x00%d", r.Key, r.Op)
		if seen[match] {
			return fmt.Errorf("gateway: %s: duplicate match for key %q op %d", where, r.Key, r.Op)
		}
		seen[match] = true
		if r.Upstream == "" && c.Upstream == "" {
			return fmt.Errorf("gateway: %s: no upstream address (set route upstream or the config default)", where)
		}
		for _, lane := range []struct {
			tag string
			lc  *LaneConfig
		}{{"request", r.Request}, {"reply", r.Reply}} {
			if lane.lc == nil {
				continue
			}
			if err := lane.lc.From.validate(where + " " + lane.tag + ".from"); err != nil {
				return err
			}
			if err := lane.lc.To.validate(where + " " + lane.tag + ".to"); err != nil {
				return err
			}
		}
	}
	return nil
}

// ParseConfig decodes a route-table JSON document. Unknown fields are
// rejected so typos fail loudly instead of silently forwarding
// untranscoded traffic. File references are resolved relative to dir
// ("" means the current directory).
func ParseConfig(data []byte, dir string) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("gateway: route config: %w", err)
	}
	for i := range c.Routes {
		r := &c.Routes[i]
		for _, lc := range []*LaneConfig{r.Request, r.Reply} {
			if lc == nil {
				continue
			}
			if err := lc.From.resolve(dir); err != nil {
				return nil, err
			}
			if err := lc.To.resolve(dir); err != nil {
				return nil, err
			}
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadConfig reads and parses a route-table file; relative source-file
// references resolve against the config file's directory.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseConfig(data, filepath.Dir(path))
}
