package node

import (
	"fmt"
	"net"
	"time"

	"repro/internal/dc"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/node/tcptransport"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// Node is one ecod process. Every node is started from the same
// ClusterConfig; the transport handshake (config hash + seed) is the only
// join protocol.
type Node struct {
	cfg     *ClusterConfig
	self    int
	tr      *tcptransport.Transport
	cluster *protocol.Cluster
	vms     []*trace.VM
	meter   *meter

	results chan reply    // node 0: the reply to its call in flight
	done    chan struct{} // other nodes: closed after the last call
	err     error         // other nodes: why serving stopped
}

// reply is what node 0's call in flight gets back.
type reply struct {
	res []byte
	err error
}

// Options tunes process-level wiring; the zero value is right for real
// deployments. Tests pre-bind listeners so one config (and one hash) can
// name concrete ports before any node starts.
type Options struct {
	Listener       net.Listener  // optional pre-bound listener for cfg's addr
	ConnectTimeout time.Duration // mesh formation timeout (default 30s)
}

// The frames on the mesh: node 0 sends calls, and the callee answers each
// with its result, or with failed and the error's text.
const (
	kindCall   = "call"
	kindResult = "result"
	kindFailed = "failed"
)

// blob is a frame payload of opaque bytes.
type blob []byte

func (b blob) AppendWire(dst []byte) []byte { return append(dst, b...) }

func decodeBlob(r *tcptransport.Reader) (any, error) { return blob(r.Take(r.Len())), r.Err() }

// New builds the node: the workload regenerated locally from the shared
// seed, the cluster experiments.ProtocolDay builds (on node 0 spread over
// the other nodes, elsewhere serving node 0's calls), and the transport
// keyed to the config hash.
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
	n := &Node{cfg: cfg, self: self, vms: ws.VMs}
	specs, bounds := dc.UniformFleet(cfg.Servers, cfg.Cores, cfg.CoreMHz), cfg.bounds()
	observe := func(ev dc.Event) { n.meter.observe(ev, n.cluster.Engine().Now()) }
	if self == 0 {
		n.results = make(chan reply, 1)
		n.cluster, err = protocol.New(cfg.Proto(), specs, cfg.Seed+1)
		if err == nil {
			err = n.cluster.Distribute(bounds, ws.VMs, n.call, observe)
		}
	} else {
		n.done = make(chan struct{})
		n.cluster, err = protocol.NewServing(cfg.Proto(), specs, cfg.Seed+1, ws.VMs, observe)
	}
	if err != nil {
		return nil, err
	}
	n.meter = newMeter(n.cluster.DC(), bounds)

	codec := tcptransport.NewCodec()
	for _, kind := range []string{kindCall, kindResult, kindFailed} {
		codec.Register(kind, decodeBlob)
	}
	addrs := make(map[int]string, len(cfg.Nodes))
	for _, spec := range cfg.Nodes {
		addrs[spec.ID] = spec.Addr
	}
	timeout := opts.ConnectTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	n.tr, err = tcptransport.New(tcptransport.Config{
		Self:           self,
		Addrs:          addrs,
		Listener:       opts.Listener,
		Codec:          codec,
		ConfigHash:     cfg.Hash(),
		Seed:           cfg.Seed,
		ConnectTimeout: timeout,
	})
	if err != nil {
		return nil, err
	}
	n.tr.Register(netsim.NodeID(self), n.handle)
	return n, nil
}

// call is node 0's protocol.Caller: one call frame, then the reply.
func (n *Node) call(node int, req []byte) ([]byte, error) {
	n.send(node, kindCall, req)
	r := <-n.results
	return r.res, r.err
}

// send writes one frame. The transport encodes it before returning, so b
// may be reused at once.
func (n *Node) send(to int, kind string, b []byte) {
	n.tr.Send(netsim.Message{
		From: netsim.NodeID(n.self), To: netsim.NodeID(to),
		Kind: kind, Payload: blob(b), Size: len(b),
	})
}

// handle runs on the transport's dispatch goroutine: node 0 takes replies,
// the other nodes serve calls. A frame of any other kind is dropped.
func (n *Node) handle(m netsim.Message) {
	b, _ := m.Payload.(blob)
	switch {
	case n.self == 0 && m.Kind == kindResult:
		n.results <- reply{res: b}
	case n.self == 0 && m.Kind == kindFailed:
		n.results <- reply{err: fmt.Errorf("node %d: %s", m.From, b)}
	case n.self != 0 && m.Kind == kindCall:
		n.serve(b)
	}
}

// serve answers one call from node 0.
func (n *Node) serve(req []byte) {
	select {
	case <-n.done:
		return // the day is over
	default:
	}
	res, last, err := n.cluster.Serve(req)
	if err != nil {
		n.err = err
		n.send(0, kindFailed, []byte(err.Error()))
		close(n.done)
		return
	}
	n.send(0, kindResult, res)
	if last {
		close(n.done)
	}
}

// Run forms the mesh, plays the protocol day — node 0 runs it, the others
// serve its calls — and writes this node's summary CSV (plus, on node 0,
// the merged cluster figure) into outDir when non-empty. The merged figure
// is returned on node 0, nil elsewhere.
func (n *Node) Run(outDir string) (*experiments.Figure, error) {
	if err := n.tr.Start(); err != nil {
		return nil, err
	}
	defer n.tr.Close()
	if n.self == 0 {
		if err := n.cluster.RunDay(n.vms, n.cfg.Horizon); err != nil {
			return nil, err
		}
	} else {
		<-n.done
		if n.err != nil {
			return nil, n.err
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
	frames, bytes := n.tr.Stats()
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
	calls, _ := n.tr.Stats()
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
