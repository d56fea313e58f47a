package netsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
)

func fixedLatency(d time.Duration) LatencyModel {
	return LatencyModel{Base: d}
}

func TestSendDelivers(t *testing.T) {
	eng := sim.New()
	net := New(eng, fixedLatency(time.Millisecond), rng.New(1))
	var got []string
	net.Register(2, func(m Message) {
		got = append(got, m.Kind)
		if m.From != 1 || m.Payload.(int) != 42 {
			t.Errorf("message mangled: %+v", m)
		}
	})
	net.Send(Message{From: 1, To: 2, Kind: "ping", Payload: 42, Size: 100})
	eng.Run(0)
	if len(got) != 1 || got[0] != "ping" {
		t.Fatalf("delivered = %v", got)
	}
	if eng.Now() != time.Millisecond {
		t.Fatalf("delivery at %v, want 1ms", eng.Now())
	}
	if net.Sent != 1 || net.Bytes != 100 {
		t.Fatalf("counters = %d msgs / %d bytes", net.Sent, net.Bytes)
	}
}

func TestSizeProportionalLatency(t *testing.T) {
	eng := sim.New()
	lat := LatencyModel{Base: time.Millisecond, PerKB: time.Millisecond}
	net := New(eng, lat, rng.New(1))
	var at time.Duration
	net.Register(1, func(Message) { at = eng.Now() })
	net.Send(Message{To: 1, Kind: "big", Size: 2048}) // base + 2 KB = 3 ms
	eng.Run(0)
	if at != 3*time.Millisecond {
		t.Fatalf("delivery at %v, want 3ms", at)
	}
}

func TestJitterBounded(t *testing.T) {
	eng := sim.New()
	lat := LatencyModel{Base: time.Millisecond, Jitter: time.Millisecond}
	net := New(eng, lat, rng.New(7))
	var times []time.Duration
	net.Register(1, func(Message) { times = append(times, eng.Now()) })
	sent := make([]time.Duration, 0)
	for i := 0; i < 100; i++ {
		d := lat.delay(0, rng.New(uint64(i)))
		sent = append(sent, d)
	}
	for _, d := range sent {
		if d < time.Millisecond || d >= 2*time.Millisecond {
			t.Fatalf("delay %v outside [1ms, 2ms)", d)
		}
	}
	_ = net
}

func TestBroadcastCountsOneSend(t *testing.T) {
	eng := sim.New()
	net := New(eng, fixedLatency(time.Millisecond), rng.New(3))
	delivered := 0
	for id := NodeID(1); id <= 5; id++ {
		net.Register(id, func(Message) { delivered++ })
	}
	net.Broadcast(0, []NodeID{1, 2, 3, 4, 5}, "invite", nil, 64)
	eng.Run(0)
	if delivered != 5 {
		t.Fatalf("delivered = %d, want 5", delivered)
	}
	if net.Sent != 1 {
		t.Fatalf("sent = %d, want 1 (hardware broadcast)", net.Sent)
	}
	if net.Bytes != 5*64 {
		t.Fatalf("bytes = %d, want 320", net.Bytes)
	}
}

func TestBroadcastEmptyIsNoop(t *testing.T) {
	eng := sim.New()
	net := New(eng, fixedLatency(time.Millisecond), rng.New(3))
	net.Broadcast(0, nil, "invite", nil, 64)
	if net.Sent != 0 {
		t.Fatal("empty broadcast counted a send")
	}
}

// TestUnregisteredDeliveryPanics sends past the handler table, into a hole
// below a registered ID, and to a negative ID: each panics at delivery.
func TestUnregisteredDeliveryPanics(t *testing.T) {
	for _, to := range []NodeID{99, 2, -1} {
		t.Run(fmt.Sprint(to), func(t *testing.T) {
			eng := sim.New()
			net := New(eng, fixedLatency(time.Millisecond), rng.New(1))
			net.Register(1, func(Message) {})
			net.Register(3, func(Message) {})
			net.Send(Message{To: to, Kind: "void"})
			defer func() {
				if recover() == nil {
					t.Fatalf("delivery to unregistered node %d did not panic", to)
				}
			}()
			eng.Run(0)
		})
	}
}

func TestNilHandlerPanics(t *testing.T) {
	eng := sim.New()
	net := New(eng, fixedLatency(time.Millisecond), rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler accepted")
		}
	}()
	net.Register(1, nil)
}

func TestNegativeNodeIDPanics(t *testing.T) {
	eng := sim.New()
	net := New(eng, fixedLatency(time.Millisecond), rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("negative node ID accepted")
		}
	}()
	net.Register(-1, func(Message) {})
}

func TestRequestReplyRoundTrip(t *testing.T) {
	eng := sim.New()
	net := New(eng, fixedLatency(time.Millisecond), rng.New(1))
	var replyAt time.Duration
	net.Register(1, func(m Message) { // server: echo
		net.Send(Message{From: 1, To: m.From, Kind: "reply", Size: 32})
	})
	net.Register(0, func(m Message) { replyAt = eng.Now() })
	net.Send(Message{From: 0, To: 1, Kind: "request", Size: 32})
	eng.Run(0)
	if replyAt != 2*time.Millisecond {
		t.Fatalf("round trip = %v, want 2ms", replyAt)
	}
	if net.Sent != 2 {
		t.Fatalf("sent = %d, want 2", net.Sent)
	}
}

func TestImpairmentsValidate(t *testing.T) {
	bad := []Impairments{{DropProb: -0.1}, {DropProb: 1}, {DupProb: -1}, {DupProb: 1.5}}
	for i, imp := range bad {
		if err := imp.Validate(); err == nil {
			t.Errorf("bad impairments %d accepted: %+v", i, imp)
		}
	}
	if err := (Impairments{DropProb: 0.5, DupProb: 0.5}).Validate(); err != nil {
		t.Error(err)
	}
}

func TestDropLosesDeliveries(t *testing.T) {
	eng := sim.New()
	net := New(eng, fixedLatency(time.Millisecond), rng.New(5))
	net.SetImpairments(Impairments{DropProb: 0.5})
	delivered := 0
	net.Register(1, func(Message) { delivered++ })
	const sent = 1000
	for i := 0; i < sent; i++ {
		net.Send(Message{To: 1, Kind: "ping", Size: 8})
	}
	eng.Run(0)
	if delivered+net.Dropped != sent {
		t.Fatalf("delivered %d + dropped %d != sent %d", delivered, net.Dropped, sent)
	}
	if net.Dropped < 400 || net.Dropped > 600 {
		t.Fatalf("dropped = %d of %d at p=0.5", net.Dropped, sent)
	}
	// The wire transmission still happened and still counts.
	if net.Sent != sent || net.Bytes != 8*sent {
		t.Fatalf("counters = %d msgs / %d bytes", net.Sent, net.Bytes)
	}
}

func TestDupDoublesDeliveries(t *testing.T) {
	eng := sim.New()
	net := New(eng, fixedLatency(time.Millisecond), rng.New(6))
	net.SetImpairments(Impairments{DupProb: 0.5})
	delivered := 0
	net.Register(1, func(Message) { delivered++ })
	const sent = 1000
	for i := 0; i < sent; i++ {
		net.Send(Message{To: 1, Kind: "ping", Size: 8})
	}
	eng.Run(0)
	if delivered != sent+net.Duplicated {
		t.Fatalf("delivered %d != sent %d + duplicated %d", delivered, sent, net.Duplicated)
	}
	if net.Duplicated < 400 || net.Duplicated > 600 {
		t.Fatalf("duplicated = %d of %d at p=0.5", net.Duplicated, sent)
	}
}

func TestBroadcastImpairsPerDelivery(t *testing.T) {
	eng := sim.New()
	net := New(eng, fixedLatency(time.Millisecond), rng.New(7))
	net.SetImpairments(Impairments{DropProb: 0.5})
	delivered := 0
	tos := make([]NodeID, 100)
	for i := range tos {
		tos[i] = NodeID(i + 1)
		net.Register(tos[i], func(Message) { delivered++ })
	}
	net.Broadcast(0, tos, "invite", nil, 64)
	eng.Run(0)
	if net.Sent != 1 {
		t.Fatalf("sent = %d, want 1", net.Sent)
	}
	if delivered+net.Dropped != 100 {
		t.Fatalf("delivered %d + dropped %d != 100", delivered, net.Dropped)
	}
	if net.Dropped == 0 || net.Dropped == 100 {
		t.Fatalf("dropped = %d, want a strict subset lost", net.Dropped)
	}
}

// TestZeroImpairmentsPreserveDrawSequence pins the compatibility contract:
// a network with the zero Impairments must schedule byte-identical
// deliveries to one that never heard of the feature, because the drop/dup
// guards may not touch the jitter rng stream.
func TestZeroImpairmentsPreserveDrawSequence(t *testing.T) {
	run := func(set bool) []time.Duration {
		eng := sim.New()
		lat := LatencyModel{Base: time.Millisecond, Jitter: time.Millisecond}
		net := New(eng, lat, rng.New(9))
		if set {
			net.SetImpairments(Impairments{})
		}
		var times []time.Duration
		net.Register(1, func(Message) { times = append(times, eng.Now()) })
		for i := 0; i < 50; i++ {
			net.Send(Message{To: 1, Kind: "ping", Size: 64})
		}
		eng.Run(0)
		return times
	}
	a, b := run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSetImpairmentsRejectsInvalid(t *testing.T) {
	eng := sim.New()
	net := New(eng, fixedLatency(time.Millisecond), rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("invalid impairments accepted")
		}
	}()
	net.SetImpairments(Impairments{DropProb: 2})
}

func TestImpairmentMethodsPreserveDrawSequence(t *testing.T) {
	// The guard contract Drop/Dup promise to every reusing layer: a zero
	// probability consumes no draw, so the deciding stream's sequence is
	// untouched by a disabled impairment.
	a, b := rng.New(7), rng.New(7)
	imp := Impairments{}
	for i := 0; i < 16; i++ {
		if imp.Drop(a) || imp.Dup(a) {
			t.Fatal("zero-probability impairment fired")
		}
	}
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("draw %d diverged: the zero-rate guard consumed a draw", i)
		}
	}
	// Positive probabilities do draw, exactly once per decision.
	c, d := rng.New(7), rng.New(7)
	lossy := Impairments{DropProb: 0.5, DupProb: 0.5}
	lossy.Drop(c)
	d.Float64()
	if c.Uint64() != d.Uint64() {
		t.Fatal("Drop with positive probability must consume exactly one draw")
	}
}

func TestImpairmentsValidateRejectsNegative(t *testing.T) {
	// One shared Validate rejects negative rates for every layer that embeds
	// Impairments (netsim delivery, protocol config, the TCP codec boundary).
	for _, imp := range []Impairments{{DropProb: -0.1}, {DupProb: -0.1}} {
		if imp.Validate() == nil {
			t.Fatalf("negative rates accepted: %+v", imp)
		}
	}
	if (Impairments{}).Enabled() {
		t.Fatal("zero impairments report enabled")
	}
	if !(Impairments{DupProb: 0.1}).Enabled() {
		t.Fatal("positive DupProb reports disabled")
	}
}

// TestDeliveryZeroAlloc pins the delivery path's zero-allocation property:
// after one warm-up delivery, a Send and an 8-node Broadcast of a pre-boxed
// payload to registered handlers allocate nothing, from the send through the
// engine queue to the handler call.
func TestDeliveryZeroAlloc(t *testing.T) {
	eng := sim.New()
	net := New(eng, DefaultLatency(), rng.New(1))
	delivered := 0
	tos := make([]NodeID, 8)
	for i := range tos {
		tos[i] = NodeID(i + 1)
		net.Register(tos[i], func(Message) { delivered++ })
	}
	var payload any = struct{ round, server int }{7, 3}
	send := func() {
		net.Send(Message{From: 0, To: 1, Kind: "assign", Payload: payload, Size: 256})
		eng.Run(0)
	}
	broadcast := func() {
		net.Broadcast(0, tos, "invite", payload, 64)
		eng.Run(0)
	}
	send()
	broadcast()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Errorf("Send + delivery allocates %v per message, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, broadcast); allocs != 0 {
		t.Errorf("8-node Broadcast + delivery allocates %v per broadcast, want 0", allocs)
	}
	// The warm-up pair, then AllocsPerRun's own warm-up run plus 100 of each.
	if want := 1 + 8 + 101*(1+8); delivered != want {
		t.Fatalf("delivered %d messages, want %d", delivered, want)
	}
}

// TestEventNamesFollowKind checks each delivery's engine event name while
// message kinds alternate and repeat, starting with the empty kind: the
// recorder times every delivery under sim.handler.netsim:<kind>, so a name
// carried over from the previous kind shows up as a wrong count.
func TestEventNamesFollowKind(t *testing.T) {
	eng := sim.New()
	rec := obs.NewRecorder(nil, nil)
	eng.SetRecorder(rec)
	net := New(eng, fixedLatency(time.Millisecond), rng.New(1))
	got := map[string]int{}
	net.Register(1, func(m Message) {
		got[m.Kind]++
		if m.Kind == "invite" {
			net.Send(Message{From: 1, To: 1, Kind: "reply", Size: 48})
		}
	})
	for _, kind := range []string{"", "invite", "probe", "invite", "invite", "", "probe", "invite"} {
		net.Send(Message{From: 0, To: 1, Kind: kind, Size: 64})
	}
	eng.Run(0)
	timers := rec.Snapshot().Timers
	for _, c := range []struct {
		kind string
		want int
	}{{"invite", 4}, {"reply", 4}, {"probe", 2}, {"", 2}} {
		if got[c.kind] != c.want {
			t.Errorf("delivered %d %q messages, want %d", got[c.kind], c.kind, c.want)
		}
		name := "sim.handler.netsim:" + c.kind
		if n := timers[name].Count; n != int64(c.want) {
			t.Errorf("timer %s counted %d deliveries, want %d", name, n, c.want)
		}
	}
	if len(timers) != 4 {
		t.Errorf("%d handler timers, want 4: %v", len(timers), timers)
	}
}

// BenchmarkSendDeliver measures one request/reply round trip between two
// registered nodes in steady state: two sends, two latency draws and two
// deliveries through the engine per op.
func BenchmarkSendDeliver(b *testing.B) {
	eng := sim.New()
	net := New(eng, DefaultLatency(), rng.New(1))
	left := 0
	net.Register(1, func(m Message) {
		net.Send(Message{From: 1, To: 0, Kind: "reply", Payload: m.Payload, Size: 48})
	})
	net.Register(0, func(m Message) {
		if left > 0 {
			left--
			net.Send(Message{From: 0, To: 1, Kind: "request", Payload: m.Payload, Size: 64})
		}
	})
	var payload any = struct{ round, server int }{7, 3}
	b.ReportAllocs()
	b.ResetTimer()
	left = b.N - 1
	net.Send(Message{From: 0, To: 1, Kind: "request", Payload: payload, Size: 64})
	eng.Run(0)
	if net.Sent != 2*b.N {
		b.Fatalf("sent %d messages for %d round trips", net.Sent, b.N)
	}
}
