package node

import (
	"fmt"
	"net"
	"time"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/node/tcptransport"
	"repro/internal/trace"
)

// Node is one ecod process: the shard agent for its span, plus — on node 0
// — the workload driver. Every node is started from the same ClusterConfig;
// the transport handshake (config hash + seed) is the only join protocol.
type Node struct {
	cfg    *ClusterConfig
	self   int
	tr     *tcptransport.Transport
	agent  *agent
	driver *driver // nil unless self == 0
}

// Options tunes process-level wiring; the zero value is right for real
// deployments. Tests pre-bind listeners so one config (and one hash) can
// name concrete ports before any node starts.
type Options struct {
	Listener       net.Listener  // optional pre-bound listener for cfg's addr
	ConnectTimeout time.Duration // mesh formation timeout (default 30s)
}

// New builds the node: workload regenerated locally from the shared seed,
// transport keyed to the config hash, agent (and driver on node 0) wired to
// the codec.
func New(cfg *ClusterConfig, self int, opts Options) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if self < 0 || self >= len(cfg.Nodes) {
		return nil, fmt.Errorf("node: self = %d with %d nodes", self, len(cfg.Nodes))
	}
	ws, err := trace.GenerateChurn(cfg.Churn(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	addrs := make(map[int]string, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		addrs[n.ID] = n.Addr
	}
	timeout := opts.ConnectTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	tr, err := tcptransport.New(tcptransport.Config{
		Self:           self,
		Addrs:          addrs,
		Listener:       opts.Listener,
		Codec:          BuildCodec(),
		ConfigHash:     cfg.Hash(),
		Seed:           cfg.Seed,
		Impair:         cfg.Impairments(),
		Impaired:       TransferImpaired,
		ConnectTimeout: timeout,
	})
	if err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, self: self, tr: tr}
	n.agent, err = newAgent(cfg, self, ws, tr, tr.Stats)
	if err != nil {
		tr.Close()
		return nil, err
	}
	if self == driverNode {
		n.driver, err = newDriver(cfg, ws, tr)
		if err != nil {
			tr.Close()
			return nil, err
		}
		tr.Register(netsim.NodeID(self), func(m netsim.Message) {
			// Node 0 hosts both roles on one mesh address: acks go to the
			// driver's barrier channels, requests to the agent loop.
			if !n.driver.handle(m) {
				n.agent.handle(m)
			}
		})
	} else {
		tr.Register(netsim.NodeID(self), n.agent.handle)
	}
	return n, nil
}

// Run forms the mesh, plays the protocol day, and writes this node's
// summary CSV (plus, on node 0, the merged cluster figure) into outDir
// when non-empty. The merged figure is returned on node 0, nil elsewhere.
func (n *Node) Run(outDir string) (*experiments.Figure, error) {
	if err := n.tr.Start(); err != nil {
		return nil, err
	}
	defer n.tr.Close()
	agentDone := make(chan struct{})
	//ecolint:allow goroutine — the agent loop must consume requests while Run's goroutine blocks in driver barriers (node 0) or waits for completion; the loop owns all shard state, the channels are the only interface
	go func() {
		defer close(agentDone)
		n.agent.run()
	}()

	var merged *experiments.Figure
	if n.driver != nil {
		sums := n.driver.run()
		merged = n.mergedFigure(sums)
	}
	<-agentDone

	if outDir != "" {
		if _, err := n.nodeFigure().SaveCSV(outDir); err != nil {
			return nil, err
		}
		if merged != nil {
			if _, err := merged.SaveCSV(outDir); err != nil {
				return nil, err
			}
		}
	}
	return merged, nil
}

// nodeFigure renders this node's shard totals as a one-row figure.
func (n *Node) nodeFigure() *experiments.Figure {
	s := n.agent.final
	f := &experiments.Figure{
		ID:    fmt.Sprintf("ecod_node%d", n.self),
		Title: fmt.Sprintf("ecod node %d shard summary (servers %d:%d)", n.self, n.agent.span.Lo, n.agent.span.Hi),
		Columns: []string{
			"node", "placements", "removals", "migrations_in", "migrations_out",
			"hibernates", "activations", "final_active", "energy_kwh", "messages", "megabytes",
		},
	}
	f.Add(
		float64(s.Node), float64(s.Placements), float64(s.Removals),
		float64(s.MigrationsIn), float64(s.MigrationsOut),
		float64(s.Hibernates), float64(s.Activations),
		float64(s.FinalActive), s.EnergyKWh,
		float64(s.MsgsSent), float64(s.BytesSent)/(1<<20),
	)
	return f
}

// mergedFigure folds every node's summary into the cluster row, shaped like
// the protocolday figure so the two reports compare column for column.
func (n *Node) mergedFigure(sums []summaryMsg) *experiments.Figure {
	d := n.driver
	var energy float64
	var active, msgs, bytes int64
	for _, s := range sums {
		energy += s.EnergyKWh
		active += s.FinalActive
		msgs += s.MsgsSent
		bytes += s.BytesSent
	}
	f := &experiments.Figure{
		ID:    "ecod",
		Title: "Protocol day on real processes over TCP",
		Columns: []string{
			"placements", "migrations_low", "migrations_high", "migrations_aborted",
			"wakes", "saturations", "messages", "megabytes", "energy_kwh", "final_active",
		},
	}
	f.Add(
		float64(d.stats.Placements),
		float64(d.stats.MigrationsLow), float64(d.stats.MigrationsHigh),
		float64(d.stats.MigrationsAborted),
		float64(d.stats.Wakes), float64(d.stats.Saturations),
		float64(msgs), float64(bytes)/(1<<20), energy, float64(active),
	)
	hash := n.cfg.Hash()
	f.Notef("%d nodes, %d servers, horizon %v, seed %d (config %x)",
		len(n.cfg.Nodes), n.cfg.Servers, n.cfg.Horizon, n.cfg.Seed, hash[:6])
	migrations := d.stats.MigrationsLow + d.stats.MigrationsHigh
	f.Notef("%d placements, %d migrations (%d aborted), %d wakes; end of day %d of %d servers active, %.3f kWh",
		d.stats.Placements, migrations, d.stats.MigrationsAborted, d.stats.Wakes,
		active, n.cfg.Servers, energy)
	if n.cfg.Impairments().Enabled() {
		f.Notef("impaired transfers: drop=%v dup=%v expired %d migrations via the %v watchdog",
			n.cfg.Drop, n.cfg.Dup, d.stats.MigrationsExpired, d.watchdog)
	}
	return f
}
