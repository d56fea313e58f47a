package protocol

import (
	"testing"
	"time"

	"repro/internal/dc"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/trace"
)

// countingTransport delegates every call to an inner Transport while
// counting them: the minimal foreign implementation. Running the cluster
// through it must be bit-identical to running on the bare fabric — the
// cluster may depend on the Transport contract only, never on netsim
// internals.
type countingTransport struct {
	inner      Transport
	registers  int
	sends      int
	broadcasts int
}

func (t *countingTransport) Register(id netsim.NodeID, h netsim.Handler) {
	t.registers++
	t.inner.Register(id, h)
}

func (t *countingTransport) Send(msg netsim.Message) {
	t.sends++
	t.inner.Send(msg)
}

func (t *countingTransport) Broadcast(from netsim.NodeID, tos []netsim.NodeID, kind string, payload any, size int) {
	t.broadcasts++
	t.inner.Broadcast(from, tos, kind, payload, size)
}

func (t *countingTransport) Stats() (int, int64) { return t.inner.Stats() }

// runDay drives a small churning day and returns the cluster. wrap, when
// set, interposes the counting transport between the cluster and the fabric
// before any message flows; rec, when non-nil, records the day.
func runDay(t *testing.T, wrap bool, rec *obs.Recorder) (*Cluster, *countingTransport) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.EnableMigration = true
	cfg.Obs = rec
	churn := trace.DefaultChurnConfig()
	churn.Horizon = 4 * time.Hour
	churn.InitialVMs = 120
	churn.ArrivalPerHour = 120
	ws, err := trace.GenerateChurn(churn, 11)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, dc.UniformFleet(16, 6, 2000), 12)
	if err != nil {
		t.Fatal(err)
	}
	var ct *countingTransport
	if wrap {
		ct = &countingTransport{inner: c.net}
		c.net = ct
	}
	if err := c.RunDay(ws, churn.Horizon); err != nil {
		t.Fatal(err)
	}
	return c, ct
}

// TestClusterIsTransportAgnostic pins the Transport seam: interposing a
// delegating implementation changes nothing — same stats, same wire volume,
// same final fleet state — and the interface carried real traffic.
func TestClusterIsTransportAgnostic(t *testing.T) {
	plain, _ := runDay(t, false, nil)
	wrapped, ct := runDay(t, true, nil)
	if plain.Stats != wrapped.Stats {
		t.Fatalf("stats diverged through the interface:\nplain   %+v\nwrapped %+v", plain.Stats, wrapped.Stats)
	}
	if a, b := plain.MessagesSent(), wrapped.MessagesSent(); a != b {
		t.Fatalf("messages diverged: %d vs %d", a, b)
	}
	if a, b := plain.BytesSent(), wrapped.BytesSent(); a != b {
		t.Fatalf("bytes diverged: %d vs %d", a, b)
	}
	if a, b := plain.DC().ActiveCount(), wrapped.DC().ActiveCount(); a != b {
		t.Fatalf("final active servers diverged: %d vs %d", a, b)
	}
	if ct.sends == 0 || ct.broadcasts == 0 {
		t.Fatalf("wrapper saw no traffic (sends=%d broadcasts=%d); the seam is not exercised", ct.sends, ct.broadcasts)
	}
}
