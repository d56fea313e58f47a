package node

import (
	"fmt"
	"net"
	"time"

	"repro/internal/dc"
	"repro/internal/experiments"
	"repro/internal/node/tcptransport"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// Node is one ecod process. Every node is started from the same
// ClusterConfig; the link handshake (config hash + seed) is the only join
// protocol.
type Node struct {
	cfg     *ClusterConfig
	self    int
	opts    Options
	cluster *protocol.Cluster
	ws      *trace.Set
	meter   *meter
	// links are this process's links: on node 0, links[k-1] goes to node
	// k; on a serving process, the one link goes to node 0.
	links []*tcptransport.Link
}

// DefaultConnectTimeout bounds how long node 0 waits for each serving
// process to accept its link, and a serving process for node 0 to dial.
const DefaultConnectTimeout = 30 * time.Second

// Options tunes process-level wiring; the zero value is right for real
// deployments. Tests pre-bind listeners so one config (and one hash) can
// name concrete ports before any node starts.
type Options struct {
	Listener       net.Listener  // optional pre-bound listener for cfg's addr; node 0 dials and never listens
	ConnectTimeout time.Duration // link formation timeout (default DefaultConnectTimeout)
}

// New builds the node: the workload regenerated locally from the shared
// seed, and the cluster experiments.ProtocolDay builds, on node 0 spread
// over the other nodes, elsewhere serving node 0's calls.
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
	if opts.ConnectTimeout <= 0 {
		opts.ConnectTimeout = DefaultConnectTimeout
	}
	n := &Node{cfg: cfg, self: self, opts: opts, ws: ws}
	specs, bounds := dc.UniformFleet(cfg.Servers, cfg.Cores, cfg.CoreMHz), cfg.bounds()
	observe := func(ev dc.Event) { n.meter.observe(ev, n.cluster.Engine().Now()) }
	if self == 0 {
		n.cluster, err = protocol.New(cfg.Proto(), specs, cfg.Seed+1)
		if err == nil {
			err = n.cluster.Distribute(bounds, ws.VMs, n.call, observe)
		}
	} else {
		n.cluster, err = protocol.NewServing(cfg.Proto(), specs, cfg.Seed+1, ws.VMs, observe)
	}
	if err != nil {
		return nil, err
	}
	n.meter = newMeter(n.cluster.DC(), bounds)
	return n, nil
}

// connect opens this node's links: node 0 dials every serving process in
// node order, and a serving process accepts node 0.
func (n *Node) connect() error {
	nodes := n.cfg.sortedNodes()
	id := tcptransport.Identity{Node: n.self, Hash: n.cfg.Hash(), Seed: n.cfg.Seed}
	if n.self == 0 {
		for _, spec := range nodes[1:] {
			id.Node = spec.ID
			l, err := tcptransport.Dial(spec.Addr, id, n.opts.ConnectTimeout)
			if err != nil {
				return err
			}
			n.links = append(n.links, l)
		}
		return nil
	}
	ln := n.opts.Listener
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", nodes[n.self].Addr); err != nil {
			return fmt.Errorf("node %d: %w", n.self, err)
		}
	}
	defer ln.Close()
	l, err := tcptransport.Accept(ln, id, n.opts.ConnectTimeout)
	if err != nil {
		return err
	}
	n.links = []*tcptransport.Link{l}
	return nil
}

// call is node 0's protocol.Caller: one call frame, then the reply. The
// reply is valid until the next call, as node 0 applies it before then.
func (n *Node) call(k int, req []byte) ([]byte, error) {
	l := n.links[k-1]
	if err := l.Write(tcptransport.Call, req); err != nil {
		return nil, fmt.Errorf("node %d: %w", k, err)
	}
	kind, res, err := l.Read()
	switch {
	case err != nil:
		return nil, fmt.Errorf("node %d: reading the reply: %w", k, err)
	case kind == tcptransport.Failed:
		return nil, fmt.Errorf("node %d: %s", k, res)
	case kind != tcptransport.Result:
		return nil, fmt.Errorf("node %d answered with a frame of kind %d", k, kind)
	}
	return res, nil
}

// serve answers node 0's calls until the day's last one. A call that fails
// is answered with failed and the error's text, and stops the node.
func (n *Node) serve() error {
	l := n.links[0]
	for {
		kind, req, err := l.Read()
		if err != nil {
			return fmt.Errorf("node %d: node 0 left before the day ended: %w", n.self, err)
		}
		if kind != tcptransport.Call {
			return fmt.Errorf("node %d: node 0 sent a frame of kind %d", n.self, kind)
		}
		res, last, err := n.cluster.Serve(req)
		if err != nil {
			// Best effort: node 0 learns why, and this node fails with err
			// whether or not the frame gets through.
			_ = l.Write(tcptransport.Failed, []byte(err.Error()))
			return err
		}
		if err := l.Write(tcptransport.Result, res); err != nil {
			return fmt.Errorf("node %d: %w", n.self, err)
		}
		if last {
			return nil
		}
	}
}

// Run opens the links, plays the protocol day — node 0 runs it, the others
// serve its calls — and writes this node's summary CSV (plus, on node 0,
// the merged cluster figure) into outDir when non-empty. The merged figure
// is returned on node 0, nil elsewhere.
func (n *Node) Run(outDir string) (*experiments.Figure, error) {
	defer func() {
		for _, l := range n.links {
			l.Close()
		}
	}()
	if err := n.connect(); err != nil {
		return nil, err
	}
	if n.self == 0 {
		if err := n.cluster.RunDay(n.ws, n.cfg.Horizon); err != nil {
			return nil, err
		}
	} else {
		if err := n.serve(); err != nil {
			return nil, err
		}
		if err := n.cluster.DC().CheckInvariants(); err != nil {
			return nil, fmt.Errorf("node %d: replica left inconsistent: %v", n.self, err)
		}
	}
	n.meter.advance(n.cfg.Horizon)
	figs := []*experiments.Figure{n.nodeFigure()}
	var merged *experiments.Figure
	if n.self == 0 {
		merged = n.mergedFigure()
		figs = append(figs, merged)
	}
	if outDir != "" {
		for _, f := range figs {
			if _, err := f.SaveCSV(outDir); err != nil {
				return nil, err
			}
		}
	}
	return merged, nil
}

// frames returns the frames and payload bytes this process wrote.
func (n *Node) frames() (frames int, bytes int64) {
	for _, l := range n.links {
		f, b := l.Stats()
		frames, bytes = frames+f, bytes+b
	}
	return frames, bytes
}

// nodeFigure renders this node's span of the day as a one-row figure, with
// the frames and payload bytes this process wrote.
func (n *Node) nodeFigure() *experiments.Figure {
	k := n.self
	lo, hi := n.meter.bounds[k], n.meter.bounds[k+1]
	active := 0
	for _, s := range n.cluster.DC().Servers[lo:hi] {
		if s.State() == dc.Active {
			active++
		}
	}
	frames, bytes := n.frames()
	c := n.meter.counts[k]
	f := &experiments.Figure{
		ID:    fmt.Sprintf("ecod_node%d", k),
		Title: fmt.Sprintf("ecod node %d summary (servers %d:%d)", k, lo, hi),
		Columns: []string{
			"node", "placements", "removals", "migrations_in", "migrations_out",
			"hibernates", "activations", "final_active", "energy_kwh", "frames", "megabytes",
		},
	}
	f.Add(
		float64(k), float64(c.placements), float64(c.removals),
		float64(c.migrationsIn), float64(c.migrationsOut),
		float64(c.hibernates), float64(c.activations),
		float64(active), n.meter.kwh(k),
		float64(frames), float64(bytes)/(1<<20),
	)
	return f
}

// mergedFigure is the protocolday row of node 0's day plus the fleet's
// energy, the sum of every span's.
func (n *Node) mergedFigure() *experiments.Figure {
	columns, row := experiments.ProtocolDayRow(n.cluster)
	energy := 0.0
	for k := range n.cfg.Nodes {
		energy += n.meter.kwh(k)
	}
	f := &experiments.Figure{
		ID:      "ecod",
		Title:   "Protocol day on real processes over TCP",
		Columns: append(columns, "energy_kwh"),
	}
	f.Add(append(row, energy)...)
	st := n.cluster.Stats
	hash := n.cfg.Hash()
	calls, _ := n.frames()
	f.Notef("%d nodes, %d servers, horizon %v, seed %d (config %x); node 0 made %d calls",
		len(n.cfg.Nodes), n.cfg.Servers, n.cfg.Horizon, n.cfg.Seed, hash[:6], calls)
	f.Notef("%d placements, %d migrations (%d aborted), %d wakes; end of day %d of %d servers active, %.3f kWh",
		st.Placements, st.MigrationsLow+st.MigrationsHigh, st.MigrationsAborted, st.Wakes,
		n.cluster.DC().ActiveCount(), n.cfg.Servers, energy)
	if n.cfg.Impairments().Enabled() {
		f.Notef("lossy fabric: drop=%v dup=%v; %d placements retried, %d migrations expired",
			n.cfg.Drop, n.cfg.Dup, st.Replacements, st.MigrationsExpired)
	}
	return f
}

// meter follows the fleet's power span by span. After each data-center
// mutation it re-reads every span's draw at the mutation's virtual time and
// holds it until the next one, which is exact for VMs of constant demand, as
// a churn day's are. It also counts each span's mutations. Every process
// sees the same mutations at the same times, so node 0's account of a span
// equals its owner's bit for bit.
type meter struct {
	d      *dc.DataCenter
	pm     dc.PowerModel
	bounds []int // span k is servers [bounds[k], bounds[k+1])
	last   time.Duration
	watts  []float64
	joules []float64
	counts []spanCounts
}

type spanCounts struct {
	placements, removals, migrationsIn, migrationsOut, hibernates, activations int
}

func newMeter(d *dc.DataCenter, bounds []int) *meter {
	spans := len(bounds) - 1
	m := &meter{
		d: d, pm: dc.DefaultPowerModel(), bounds: bounds,
		watts: make([]float64, spans), joules: make([]float64, spans), counts: make([]spanCounts, spans),
	}
	m.read(0)
	return m
}

// observe accounts for one mutation at virtual time now.
func (m *meter) observe(ev dc.Event, now time.Duration) {
	m.advance(now)
	switch ev.Kind {
	case dc.EventPlace:
		m.counts[m.span(ev.Server)].placements++
	case dc.EventRemove:
		m.counts[m.span(ev.Server)].removals++
	case dc.EventMigrate:
		m.counts[m.span(ev.Server)].migrationsOut++
		m.counts[m.span(ev.Dest)].migrationsIn++
	case dc.EventActivate:
		m.counts[m.span(ev.Server)].activations++
	case dc.EventHibernate:
		m.counts[m.span(ev.Server)].hibernates++
	}
	m.read(now)
}

// advance integrates the held draw up to now.
func (m *meter) advance(now time.Duration) {
	dt := (now - m.last).Seconds()
	for k, w := range m.watts {
		m.joules[k] += w * dt
	}
	m.last = now
}

// read takes every span's draw at now.
func (m *meter) read(now time.Duration) {
	for k := range m.watts {
		w := 0.0
		for _, s := range m.d.Servers[m.bounds[k]:m.bounds[k+1]] {
			w += m.pm.Power(s.State(), s.UtilizationAt(now))
		}
		m.watts[k] = w
	}
}

// span returns the span holding server id.
func (m *meter) span(id int) int {
	k := 0
	for id >= m.bounds[k+1] {
		k++
	}
	return k
}

// kwh returns span k's energy so far.
func (m *meter) kwh(k int) float64 { return m.joules[k] / 3.6e6 }
