// Package node runs the protocol day as separate operating-system processes
// (cmd/ecod). It is wiring: every process builds, from one ClusterConfig,
// the cluster experiments.ProtocolDay builds. Node 0 runs that day on the
// netsim fabric at zero latency — an exchange takes no virtual time — and a
// delivery to a server another process owns becomes one blocking call to
// that process over its tcptransport link: node 0 dials every other
// process, which only answers its calls. The callee runs the protocol's
// own handler on its replica of the fleet and returns what the handler did,
// and node 0 applies it (internal/protocol, remote.go). Every decision is
// the protocol's, so the merged ecod.csv is the netsim day of the same
// config, byte for byte, plus the fleet's energy; each process also writes
// a summary of its own span. See DESIGN.md "Real-process deployment".
package node

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// Span is one node's slice of the global server fleet: the half-open ID
// range [Lo, Hi). Spans must partition [0, Servers) with no gaps or overlap.
type Span struct {
	Lo, Hi int
}

// NodeSpec is one line of the cluster map: which process owns which span,
// reachable where.
type NodeSpec struct {
	ID   int
	Addr string
	Span Span
}

// ClusterConfig is the static cluster description every ecod process is
// started with. There is no coordinator: two processes agree they belong to
// the same run iff their configs hash identically and they carry the same
// seed — checked in the transport handshake.
type ClusterConfig struct {
	// Seed drives everything: the churn workload (Seed) and the protocol
	// streams (Seed+1), the same convention as the protocolday experiment.
	Seed uint64

	// Fleet shape: Servers uniform machines of Cores x CoreMHz.
	Servers int
	Cores   int
	CoreMHz float64

	// Workload (trace.ChurnConfig defaults for everything not listed).
	Horizon        time.Duration
	InitialVMs     int
	ArrivalPerHour float64
	MeanLifetime   time.Duration

	// ScanInterval is the migration-scan cadence (protocol.Config semantics).
	ScanInterval time.Duration

	// Drop and Dup make the virtual fabric lossy: every protocol message is
	// dropped or duplicated with netsim.Impairments semantics, decided in
	// virtual time on node 0. TCP frames are never impaired.
	Drop, Dup float64

	Nodes []NodeSpec
}

// DefaultClusterConfig returns a single-process 48-server cluster running a
// short protocol day; callers add Nodes.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Seed:           1,
		Servers:        48,
		Cores:          6,
		CoreMHz:        2000,
		Horizon:        4 * time.Hour,
		InitialVMs:     150,
		ArrivalPerHour: 150,
		MeanLifetime:   90 * time.Minute,
		ScanInterval:   5 * time.Minute,
	}
}

// Validate checks the configuration, including that the node spans exactly
// partition [0, Servers).
func (c *ClusterConfig) Validate() error {
	switch {
	case c.Servers <= 0:
		return fmt.Errorf("node: servers = %d", c.Servers)
	case c.Cores <= 0 || c.CoreMHz <= 0:
		return fmt.Errorf("node: cores = %d, core_mhz = %v", c.Cores, c.CoreMHz)
	case c.Horizon <= 0:
		return fmt.Errorf("node: horizon = %v", c.Horizon)
	case c.InitialVMs < 0 || c.ArrivalPerHour < 0:
		return fmt.Errorf("node: initial_vms = %d, arrival_per_hour = %v", c.InitialVMs, c.ArrivalPerHour)
	case c.MeanLifetime <= 0:
		return fmt.Errorf("node: mean_lifetime = %v", c.MeanLifetime)
	case c.ScanInterval <= 0:
		return fmt.Errorf("node: scan_interval = %v", c.ScanInterval)
	case len(c.Nodes) == 0:
		return fmt.Errorf("node: no nodes")
	}
	if err := c.Impairments().Validate(); err != nil {
		return err
	}
	next := 0
	for i, n := range c.sortedNodes() {
		if n.ID != i {
			return fmt.Errorf("node: node IDs must be 0..%d contiguous, got %d", len(c.Nodes)-1, n.ID)
		}
		if n.Addr == "" {
			return fmt.Errorf("node: node %d has no address", n.ID)
		}
		if n.Span.Lo != next || n.Span.Hi <= n.Span.Lo {
			return fmt.Errorf("node: node %d span %d:%d does not continue the partition at %d",
				n.ID, n.Span.Lo, n.Span.Hi, next)
		}
		next = n.Span.Hi
	}
	if next != c.Servers {
		return fmt.Errorf("node: spans cover [0, %d), want [0, %d)", next, c.Servers)
	}
	return nil
}

// Churn returns the workload generator configuration. Every node generates
// the identical workload locally from (Churn, Seed): VM objects never cross
// the wire, only their IDs do.
func (c *ClusterConfig) Churn() trace.ChurnConfig {
	churn := trace.DefaultChurnConfig()
	churn.Horizon = c.Horizon
	churn.InitialVMs = c.InitialVMs
	churn.ArrivalPerHour = c.ArrivalPerHour
	churn.MeanLifetime = c.MeanLifetime
	return churn
}

// Proto returns the protocol parameters the run uses: the paper defaults
// with migration enabled, this cluster's scan cadence and a zero-latency
// fabric. With Drop or Dup set the fabric is lossy, and the faults
// experiment's round timeout, assign retry and migration timeout recover
// what it loses.
func (c *ClusterConfig) Proto() protocol.Config {
	p := protocol.DefaultConfig()
	p.EnableMigration = true
	p.ScanInterval = c.ScanInterval
	p.Latency = netsim.LatencyModel{}
	p.Impairments = c.Impairments()
	if p.Impairments.Enabled() {
		f := experiments.DefaultFaultsOptions().Proto
		p.RoundTimeout, p.AssignRetry, p.MigTimeout = f.RoundTimeout, f.AssignRetry, f.MigTimeout
	}
	return p
}

// bounds returns the spans in the form protocol.Cluster.Distribute takes:
// node k owns servers [bounds[k], bounds[k+1]).
func (c *ClusterConfig) bounds() []int {
	b := []int{0}
	for _, n := range c.sortedNodes() {
		b = append(b, n.Span.Hi)
	}
	return b
}

// sortedNodes returns a copy of Nodes in ID order; once Validate passes,
// node k is at index k.
func (c *ClusterConfig) sortedNodes() []NodeSpec {
	nodes := append([]NodeSpec(nil), c.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	return nodes
}

// Impairments returns the fabric's impairments in the shared netsim form,
// so validation and the guard contract come from one place.
func (c *ClusterConfig) Impairments() netsim.Impairments {
	return netsim.Impairments{DropProb: c.Drop, DupProb: c.Dup}
}

// Canonical renders the configuration in the parseable text format with
// fields in a fixed order — the serialization that is hashed, so two
// processes started from differently formatted but semantically identical
// files still agree.
func (c *ClusterConfig) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed = %d\n", c.Seed)
	fmt.Fprintf(&b, "servers = %d\n", c.Servers)
	fmt.Fprintf(&b, "cores = %d\n", c.Cores)
	fmt.Fprintf(&b, "core_mhz = %v\n", c.CoreMHz)
	fmt.Fprintf(&b, "horizon = %v\n", c.Horizon)
	fmt.Fprintf(&b, "initial_vms = %d\n", c.InitialVMs)
	fmt.Fprintf(&b, "arrival_per_hour = %v\n", c.ArrivalPerHour)
	fmt.Fprintf(&b, "mean_lifetime = %v\n", c.MeanLifetime)
	fmt.Fprintf(&b, "scan_interval = %v\n", c.ScanInterval)
	fmt.Fprintf(&b, "drop = %v\n", c.Drop)
	fmt.Fprintf(&b, "dup = %v\n", c.Dup)
	for _, n := range c.sortedNodes() {
		fmt.Fprintf(&b, "node = %d %s %d:%d\n", n.ID, n.Addr, n.Span.Lo, n.Span.Hi)
	}
	return b.String()
}

// Hash is the cluster identity carried in the transport handshake.
func (c *ClusterConfig) Hash() [32]byte {
	return sha256.Sum256([]byte(c.Canonical()))
}

// ParseConfig reads the key = value cluster config format:
//
//	# comment
//	seed = 42
//	servers = 48
//	horizon = 4h
//	node = 0 127.0.0.1:7101 0:16
//
// Durations use Go syntax (4h, 90m, 5m30s). Unknown keys are errors: a typo
// must not silently fall back to a default and change the config hash story.
func ParseConfig(r io.Reader) (*ClusterConfig, error) {
	cfg := DefaultClusterConfig()
	cfg.Nodes = nil
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("node: config line %d: no '=' in %q", lineNo, line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if err := cfg.setField(key, val); err != nil {
			return nil, fmt.Errorf("node: config line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("node: reading config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// LoadConfig reads and parses a cluster config file.
func LoadConfig(path string) (*ClusterConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseConfig(f)
}

// setField applies one key = value line.
func (c *ClusterConfig) setField(key, val string) error {
	switch key {
	case "seed":
		return parseInto(val, &c.Seed)
	case "servers":
		return parseInto(val, &c.Servers)
	case "cores":
		return parseInto(val, &c.Cores)
	case "core_mhz":
		return parseInto(val, &c.CoreMHz)
	case "horizon":
		return parseInto(val, &c.Horizon)
	case "initial_vms":
		return parseInto(val, &c.InitialVMs)
	case "arrival_per_hour":
		return parseInto(val, &c.ArrivalPerHour)
	case "mean_lifetime":
		return parseInto(val, &c.MeanLifetime)
	case "scan_interval":
		return parseInto(val, &c.ScanInterval)
	case "drop":
		return parseInto(val, &c.Drop)
	case "dup":
		return parseInto(val, &c.Dup)
	case "node":
		n, err := parseNodeSpec(val)
		if err != nil {
			return err
		}
		c.Nodes = append(c.Nodes, n)
		return nil
	default:
		return fmt.Errorf("unknown key %q", key)
	}
}

// parseNodeSpec parses "<id> <addr> <lo>:<hi>".
func parseNodeSpec(val string) (NodeSpec, error) {
	fields := strings.Fields(val)
	if len(fields) != 3 {
		return NodeSpec{}, fmt.Errorf("node spec %q: want <id> <addr> <lo>:<hi>", val)
	}
	var n NodeSpec
	if err := parseInto(fields[0], &n.ID); err != nil {
		return NodeSpec{}, fmt.Errorf("node spec %q: %v", val, err)
	}
	n.Addr = fields[1]
	lo, hi, ok := strings.Cut(fields[2], ":")
	if !ok {
		return NodeSpec{}, fmt.Errorf("node spec %q: span must be <lo>:<hi>", val)
	}
	if err := parseInto(lo, &n.Span.Lo); err != nil {
		return NodeSpec{}, fmt.Errorf("node spec %q: %v", val, err)
	}
	if err := parseInto(hi, &n.Span.Hi); err != nil {
		return NodeSpec{}, fmt.Errorf("node spec %q: %v", val, err)
	}
	return n, nil
}

// parseInto parses val into the pointed-to config field type.
func parseInto(val string, dst any) error {
	switch p := dst.(type) {
	case *int:
		v, err := strconv.Atoi(val)
		if err != nil {
			return err
		}
		*p = v
	case *uint64:
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return err
		}
		*p = v
	case *float64:
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return err
		}
		*p = v
	case *time.Duration:
		v, err := time.ParseDuration(val)
		if err != nil {
			return err
		}
		if v < 0 {
			return fmt.Errorf("negative duration %v", v)
		}
		*p = v
	default:
		panic(fmt.Sprintf("node: parseInto: unsupported type %T", dst))
	}
	return nil
}
