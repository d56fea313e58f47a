package tcptransport

import (
	"fmt"
	"net"
	//ecolint:allow goroutine — the TCP transport is quarantined I/O infrastructure (boundary rule); it owns sockets and goroutines so the deterministic core never has to
	"sync"
	//ecolint:allow wallclock — socket deadlines and reconnect backoff are host-time by definition; no simulation decision reads them
	"time"

	"repro/internal/netsim"
)

// Transport carries messages between ecod processes over a full mesh of TCP
// connections, with the node index as the NodeID: Send(msg) routes msg.To to
// the process hosting that node, loopback when it is this process.
//
// Mesh shape: every pair of nodes shares one connection; the lower-indexed
// node dials (and redials with 100 ms → 2 s exponential backoff after any
// failure, so a restarted peer is rejoined without a coordinator), the
// higher-indexed node accepts. The handshake is a hello frame in each direction
// carrying the sender's node index, the cluster config hash and the run
// seed; a mismatch on any of the three means the peer is running a
// different experiment, and the connection is refused — this is the whole
// join protocol.
//
// Delivery: one dispatch goroutine drains every decoded frame and invokes
// the registered handlers serially, satisfying the Transport contract that
// handlers never run concurrently. A frame addressed to an unregistered
// node is dropped rather than panicking: unlike
// netsim, where a bad address is a local programming error, here it is
// adversarial input from a peer. Frames are never dropped or duplicated on
// purpose: a lossy fabric is the protocol's netsim fabric's business.
type Transport struct {
	cfg   Config
	codec *Codec
	ln    net.Listener
	links map[int]*link

	inbox chan netsim.Message

	hmu      sync.Mutex
	handlers map[netsim.NodeID]netsim.Handler

	mu      sync.Mutex
	sent    int
	bytes   int64
	upCount int
	started bool

	allUp     chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Config describes one process's place in the cluster.
type Config struct {
	// Self is this process's node index.
	Self int
	// Addrs maps every node index (including Self) to its TCP address.
	Addrs map[int]string
	// Listener optionally supplies a pre-bound listener for Self, letting
	// tests bind 127.0.0.1:0 and exchange the chosen ports before Start.
	Listener net.Listener
	// Codec decodes the application's message kinds. The transport works on
	// a private copy extended with its handshake kind.
	Codec *Codec
	// ConfigHash and Seed identify the run; peers must present the same
	// pair in their hello or the connection is refused.
	ConfigHash [32]byte
	Seed       uint64
	// ConnectTimeout bounds Start's wait for the full mesh (default 10 s).
	ConnectTimeout time.Duration
}

// link is one peer connection slot: the conn (nil while down) and a cond to
// wake blocked senders when it changes.
type link struct {
	peer   int
	addr   string
	dialer bool

	mu     sync.Mutex
	cond   *sync.Cond
	conn   net.Conn
	everUp bool
}

const (
	helloKind        = "ecod/hello"
	handshakeTimeout = 5 * time.Second
	backoffFloor     = 100 * time.Millisecond
	backoffCeil      = 2 * time.Second
)

// hello is the handshake payload: who is connecting, and proof it was built
// from the same cluster config and seed.
type hello struct {
	Node int
	Hash [32]byte
	Seed uint64
}

func (h hello) AppendWire(b []byte) []byte {
	b = AppendU32(b, uint32(int32(h.Node)))
	b = append(b, h.Hash[:]...)
	b = AppendU64(b, h.Seed)
	return b
}

func decodeHello(r *Reader) (any, error) {
	var h hello
	h.Node = int(int32(r.U32()))
	copy(h.Hash[:], r.Take(len(h.Hash)))
	h.Seed = r.U64()
	return h, r.Err()
}

// New builds the transport. It does not touch the network until Start.
func New(cfg Config) (*Transport, error) {
	if cfg.Codec == nil {
		return nil, fmt.Errorf("tcptransport: nil codec")
	}
	if _, ok := cfg.Addrs[cfg.Self]; !ok && cfg.Listener == nil {
		return nil, fmt.Errorf("tcptransport: node %d has no address and no listener", cfg.Self)
	}
	codec := NewCodec()
	for kind, dec := range cfg.Codec.dec {
		codec.Register(kind, dec)
	}
	codec.Register(helloKind, decodeHello)
	t := &Transport{
		cfg:      cfg,
		codec:    codec,
		ln:       cfg.Listener,
		links:    make(map[int]*link),
		inbox:    make(chan netsim.Message, 1024),
		handlers: make(map[netsim.NodeID]netsim.Handler),
		allUp:    make(chan struct{}),
		done:     make(chan struct{}),
	}
	for peer, addr := range cfg.Addrs {
		if peer == cfg.Self {
			continue
		}
		l := &link{peer: peer, addr: addr, dialer: peer > cfg.Self}
		l.cond = sync.NewCond(&l.mu)
		t.links[peer] = l
	}
	if len(t.links) == 0 {
		close(t.allUp)
	}
	return t, nil
}

// Register installs the handler for messages to node id. Handlers must be
// installed before Start; re-registering replaces.
func (t *Transport) Register(id netsim.NodeID, h netsim.Handler) {
	if h == nil {
		panic(fmt.Sprintf("tcptransport: nil handler for node %d", id))
	}
	t.hmu.Lock()
	t.handlers[id] = h
	t.hmu.Unlock()
}

// Start listens, dials every higher-indexed peer, and blocks until the full
// mesh has handshaken or ConnectTimeout elapses. On timeout the transport is
// closed and the error names the missing peers.
func (t *Transport) Start() error {
	t.mu.Lock()
	if t.started {
		t.mu.Unlock()
		return fmt.Errorf("tcptransport: already started")
	}
	t.started = true
	t.mu.Unlock()
	if t.ln == nil {
		ln, err := net.Listen("tcp", t.cfg.Addrs[t.cfg.Self])
		if err != nil {
			return fmt.Errorf("tcptransport: node %d listen: %w", t.cfg.Self, err)
		}
		t.ln = ln
	}
	t.spawn(t.acceptLoop)
	t.spawn(t.dispatch)
	for _, l := range t.links {
		if l.dialer {
			l := l
			t.spawn(func() { t.dialLoop(l) })
		}
	}
	timeout := t.cfg.ConnectTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	select {
	case <-t.allUp:
		return nil
	//ecolint:allow wallclock — mesh-formation timeout is an operational bound on real socket setup, not simulation time
	case <-time.After(timeout):
		missing := t.downPeers()
		t.Close()
		return fmt.Errorf("tcptransport: node %d: peers %v not connected after %v", t.cfg.Self, missing, timeout)
	case <-t.done:
		return fmt.Errorf("tcptransport: closed during start")
	}
}

// Addr returns the listen address (useful with a :0 Listener).
func (t *Transport) Addr() net.Addr {
	if t.ln == nil {
		return nil
	}
	return t.ln.Addr()
}

// spawn runs f on a tracked goroutine.
func (t *Transport) spawn(f func()) {
	t.wg.Add(1)
	//ecolint:allow goroutine — quarantined socket infrastructure; accept/dial/dispatch loops cannot share the caller's thread
	go func() {
		defer t.wg.Done()
		f()
	}()
}

// Close tears the mesh down and stops every goroutine. Safe to call twice;
// senders blocked on a down link return without delivering.
func (t *Transport) Close() {
	t.closeOnce.Do(func() {
		close(t.done)
		if t.ln != nil {
			t.ln.Close()
		}
		for _, l := range t.links {
			l.mu.Lock()
			if l.conn != nil {
				l.conn.Close()
				l.conn = nil
			}
			l.cond.Broadcast()
			l.mu.Unlock()
		}
	})
	t.wg.Wait()
}

// Send queues one message, counting it and its Size in Stats.
func (t *Transport) Send(msg netsim.Message) {
	t.mu.Lock()
	t.sent++
	t.bytes += int64(msg.Size)
	t.mu.Unlock()
	t.transmit(msg)
}

// Broadcast sends the same payload to every destination. TCP has no
// hardware broadcast: every destination costs one frame, and Stats counts it
// so.
func (t *Transport) Broadcast(from netsim.NodeID, tos []netsim.NodeID, kind string, payload any, size int) {
	for _, to := range tos {
		t.Send(netsim.Message{From: from, To: to, Kind: kind, Payload: payload, Size: size})
	}
}

// Stats returns the messages sent so far and the sum of their Sizes.
func (t *Transport) Stats() (sent int, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sent, t.bytes
}

// transmit routes one message: loopback to the local inbox, or a frame on
// the peer's link.
func (t *Transport) transmit(msg netsim.Message) {
	peer := int(msg.To)
	if peer == t.cfg.Self {
		select {
		case t.inbox <- msg:
		case <-t.done:
		}
		return
	}
	l, ok := t.links[peer]
	if !ok {
		panic(fmt.Sprintf("tcptransport: send to unknown node %d", peer))
	}
	frame, err := EncodeFrame(msg, t.codec)
	if err != nil {
		panic(err.Error()) // unregistered kind / bad payload: local programming error
	}
	t.writeLink(l, frame)
}

// writeLink writes one frame, blocking while the link is down (the dial
// loop or accept loop will restore it). A closing transport drops it.
func (t *Transport) writeLink(l *link, frame []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for l.conn == nil {
			select {
			case <-t.done:
				return
			default:
			}
			l.cond.Wait()
		}
		conn := l.conn
		if _, err := conn.Write(frame); err == nil {
			return
		}
		// Poisoned connection: drop it and wait for the redial.
		conn.Close()
		if l.conn == conn {
			l.conn = nil
		}
	}
}

// install makes conn the link's live connection and reports mesh progress.
// Only a link's first-ever connection advances the mesh-up count, so a
// flapping peer cannot mask one that never joined.
func (t *Transport) install(l *link, conn net.Conn) {
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
	}
	first := !l.everUp
	l.everUp = true
	l.conn = conn
	l.cond.Broadcast()
	l.mu.Unlock()
	if !first {
		return
	}
	t.mu.Lock()
	t.upCount++
	if t.upCount == len(t.links) {
		close(t.allUp)
	}
	t.mu.Unlock()
}

// uninstall clears conn from the link if it is still current.
func (l *link) uninstall(conn net.Conn) {
	conn.Close()
	l.mu.Lock()
	if l.conn == conn {
		l.conn = nil
	}
	l.mu.Unlock()
}

// downPeers lists peers with no live connection, for Start's timeout error.
func (t *Transport) downPeers() []int {
	var down []int
	for peer, l := range t.links {
		l.mu.Lock()
		if l.conn == nil {
			down = append(down, peer)
		}
		l.mu.Unlock()
	}
	return down
}

// dialLoop owns one higher-indexed peer: dial, handshake, read until the
// connection dies, back off, repeat. Backoff doubles 100 ms → 2 s and
// resets after a successful handshake.
func (t *Transport) dialLoop(l *link) {
	backoff := backoffFloor
	for {
		select {
		case <-t.done:
			return
		default:
		}
		//ecolint:allow wallclock — dial timeout bounds a real socket connect
		conn, err := net.DialTimeout("tcp", l.addr, handshakeTimeout)
		if err == nil {
			err = t.handshake(conn, l.peer)
			if err != nil {
				conn.Close()
			}
		}
		if err != nil {
			select {
			case <-t.done:
				return
			//ecolint:allow wallclock — reconnect backoff paces retries against a real peer
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > backoffCeil {
				backoff = backoffCeil
			}
			continue
		}
		backoff = backoffFloor
		t.install(l, conn)
		t.readLoop(conn)
		l.uninstall(conn)
	}
}

// handshake (dialer side): send hello, read the peer's hello back, verify
// identity, config hash and seed.
func (t *Transport) handshake(conn net.Conn, wantPeer int) error {
	//ecolint:allow wallclock — handshake deadline on a real socket
	deadline := time.Now().Add(handshakeTimeout)
	if err := conn.SetDeadline(deadline); err != nil {
		return err
	}
	if err := t.sendHello(conn); err != nil {
		return err
	}
	h, err := t.readHello(conn)
	if err != nil {
		return err
	}
	if h.Node != wantPeer {
		return fmt.Errorf("tcptransport: dialed node %d, got hello from node %d", wantPeer, h.Node)
	}
	return conn.SetDeadline(time.Time{})
}

// acceptLoop admits lower-indexed peers: read their hello, verify, reply.
func (t *Transport) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			// Transient accept error (or listener torn down mid-close).
			select {
			case <-t.done:
				return
			//ecolint:allow wallclock — pacing retries of a failed accept on a real listener
			case <-time.After(backoffFloor):
			}
			continue
		}
		c := conn
		t.spawn(func() { t.serve(c) })
	}
}

// serve runs the acceptor side of one connection to completion.
func (t *Transport) serve(conn net.Conn) {
	//ecolint:allow wallclock — handshake deadline on a real socket
	if err := conn.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		conn.Close()
		return
	}
	h, err := t.readHello(conn)
	if err != nil {
		conn.Close()
		return
	}
	l, ok := t.links[h.Node]
	if !ok || l.dialer {
		// Unknown peer, or one that should be accepting us: refuse.
		conn.Close()
		return
	}
	if err := t.sendHello(conn); err != nil {
		conn.Close()
		return
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		conn.Close()
		return
	}
	t.install(l, conn)
	t.readLoop(conn)
	l.uninstall(conn)
}

func (t *Transport) sendHello(conn net.Conn) error {
	frame, err := EncodeFrame(netsim.Message{
		From: netsim.NodeID(t.cfg.Self), To: -1, Kind: helloKind,
		Payload: hello{Node: t.cfg.Self, Hash: t.cfg.ConfigHash, Seed: t.cfg.Seed},
	}, t.codec)
	if err != nil {
		return err
	}
	_, err = conn.Write(frame)
	return err
}

// readHello reads and verifies the peer's hello frame.
func (t *Transport) readHello(conn net.Conn) (hello, error) {
	msg, err := DecodeFrame(conn, t.codec)
	if err != nil {
		return hello{}, err
	}
	if msg.Kind != helloKind {
		return hello{}, fmt.Errorf("tcptransport: expected hello, got %q", msg.Kind)
	}
	h := msg.Payload.(hello)
	if h.Hash != t.cfg.ConfigHash {
		return hello{}, fmt.Errorf("tcptransport: node %d built from a different cluster config", h.Node)
	}
	if h.Seed != t.cfg.Seed {
		return hello{}, fmt.Errorf("tcptransport: node %d runs seed %d, this node runs %d", h.Node, h.Seed, t.cfg.Seed)
	}
	return h, nil
}

// readLoop decodes frames until the connection dies. Any codec error —
// malformed frame, oversize announcement, unknown kind — poisons the
// connection: it is closed and the mesh's reconnect machinery takes over.
// A bad peer costs us a connection, never a panic.
func (t *Transport) readLoop(conn net.Conn) {
	for {
		msg, err := DecodeFrame(conn, t.codec)
		if err != nil {
			return
		}
		if msg.Kind == helloKind {
			continue // late duplicate handshake; harmless
		}
		select {
		case t.inbox <- msg:
		case <-t.done:
			return
		}
	}
}

// dispatch is the single delivery goroutine: the serial-handler guarantee
// of the Transport contract lives here.
func (t *Transport) dispatch() {
	for {
		select {
		case <-t.done:
			return
		case msg := <-t.inbox:
			t.hmu.Lock()
			h := t.handlers[msg.To]
			t.hmu.Unlock()
			if h == nil {
				continue
			}
			h(msg)
		}
	}
}
