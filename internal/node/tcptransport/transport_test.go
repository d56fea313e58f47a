package tcptransport

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
)

// ping is the test payload flowing over the mesh.
type ping struct{ N uint64 }

func (p ping) AppendWire(b []byte) []byte { return AppendU64(b, p.N) }

func pingCodec() *Codec {
	c := NewCodec()
	c.Register("ping", func(r *Reader) (any, error) { return ping{N: r.U64()}, r.Err() })
	return c
}

// startMesh brings up an n-node loopback mesh with pre-bound :0 listeners
// and returns the transports, already started.
func startMesh(t *testing.T, n int, mutate func(i int, cfg *Config)) []*Transport {
	t.Helper()
	addrs := make(map[int]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	trs := make([]*Transport, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			Self:           i,
			Addrs:          addrs,
			Listener:       listeners[i],
			Codec:          pingCodec(),
			ConfigHash:     [32]byte{1, 2, 3},
			Seed:           99,
			ConnectTimeout: 5 * time.Second,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		t.Cleanup(tr.Close)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, tr := range trs {
		wg.Add(1)
		go func(i int, tr *Transport) { defer wg.Done(); errs[i] = tr.Start() }(i, tr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d start: %v", i, err)
		}
	}
	return trs
}

func TestMeshDelivery(t *testing.T) {
	const n = 3
	type rec struct {
		from netsim.NodeID
		n    uint64
	}
	inboxes := make([]chan rec, n)
	trs := startMesh(t, n, nil)
	for i, tr := range trs {
		ch := make(chan rec, 64)
		inboxes[i] = ch
		tr.Register(netsim.NodeID(i), func(msg netsim.Message) {
			ch <- rec{from: msg.From, n: msg.Payload.(ping).N}
		})
	}

	// Every node sends one ping to every node, itself included (loopback).
	for i, tr := range trs {
		for j := 0; j < n; j++ {
			tr.Send(netsim.Message{
				From: netsim.NodeID(i), To: netsim.NodeID(j),
				Kind: "ping", Payload: ping{N: uint64(100*i + j)}, Size: 8,
			})
		}
	}
	for j := 0; j < n; j++ {
		got := map[netsim.NodeID]uint64{}
		for len(got) < n {
			select {
			case r := <-inboxes[j]:
				got[r.from] = r.n
			case <-time.After(5 * time.Second):
				t.Fatalf("node %d: timed out with %d/%d pings", j, len(got), n)
			}
		}
		for i := 0; i < n; i++ {
			if got[netsim.NodeID(i)] != uint64(100*i+j) {
				t.Fatalf("node %d: ping from %d = %d", j, i, got[netsim.NodeID(i)])
			}
		}
	}

	// Broadcast pays one frame per destination, and Stats says so.
	trs[0].Broadcast(0, []netsim.NodeID{1, 2}, "ping", ping{N: 7}, 8)
	for _, j := range []int{1, 2} {
		select {
		case r := <-inboxes[j]:
			if r.n != 7 {
				t.Fatalf("node %d: broadcast payload %d", j, r.n)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("node %d: broadcast not delivered", j)
		}
	}
	sent, bytes := trs[0].Stats()
	if sent != n+2 || bytes != int64(8*(n+2)) {
		t.Fatalf("node 0 stats = (%d, %d), want (%d, %d)", sent, bytes, n+2, 8*(n+2))
	}
}

func TestHandshakeRejectsForeignRun(t *testing.T) {
	// Two nodes that disagree on the seed must never form a mesh: the
	// acceptor refuses the hello, the dialer retries until its Start times
	// out. This is the coordinator-free join check.
	addrs := map[int]string{}
	var listeners [2]net.Listener
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	mk := func(self int, seed uint64) *Transport {
		tr, err := New(Config{
			Self: self, Addrs: addrs, Listener: listeners[self],
			Codec: pingCodec(), Seed: seed,
			ConnectTimeout: 700 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		return tr
	}
	a, b := mk(0, 1), mk(1, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, tr := range []*Transport{a, b} {
		wg.Add(1)
		go func(i int, tr *Transport) { defer wg.Done(); errs[i] = tr.Start() }(i, tr)
	}
	wg.Wait()
	if errs[0] == nil || errs[1] == nil {
		t.Fatalf("mismatched seeds formed a mesh: %v / %v", errs[0], errs[1])
	}
}
