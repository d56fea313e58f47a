package protocol

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/dc"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// replicaState is a data center's state without the demand kernel's cache,
// whose hit and miss counts depend on which process read a server.
func replicaState(d *dc.DataCenter) dc.Snapshot {
	snap := d.Snapshot()
	for i := range snap.Servers {
		snap.Servers[i].Kernel = dc.KernelSnapshot{}
	}
	return snap
}

// TestDistributedDayMatchesOneProcess runs one churn day in one process and
// again spread over three processes, whose calls here are plain function
// calls into serving clusters. The distributed day must be the same day:
// the same statistics, the same traffic, and every replica equal to the
// one-process data center.
func TestDistributedDayMatchesOneProcess(t *testing.T) {
	churn := trace.DefaultChurnConfig()
	churn.Horizon = 4 * time.Hour
	churn.InitialVMs = 60
	churn.ArrivalPerHour = 150
	ws, err := trace.GenerateChurn(churn, 3)
	if err != nil {
		t.Fatal(err)
	}
	specs := dc.UniformFleet(16, 6, 2000)
	bounds := []int{0, 6, 11, 16}

	lossy := DefaultConfig()
	lossy.Impairments = netsim.Impairments{DropProb: 0.05, DupProb: 0.02}
	lossy.RoundTimeout = 10 * time.Millisecond
	lossy.AssignRetry = 30 * time.Second
	// Longer than the scan interval, so a scan meets the in-flight marks of
	// migrations that lost a message.
	lossy.MigTimeout = 12 * time.Minute
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"lossy", lossy}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.EnableMigration = true
			one, err := New(cfg, specs, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := one.RunDay(ws, churn.Horizon); err != nil {
				t.Fatal(err)
			}

			node0, err := New(cfg, specs, 4)
			if err != nil {
				t.Fatal(err)
			}
			served := make([]*Cluster, len(bounds)-1)
			for k := 1; k < len(served); k++ {
				if served[k], err = NewServing(cfg, specs, 4, ws.VMs, nil); err != nil {
					t.Fatal(err)
				}
			}
			calls, lasts := 0, 0
			call := func(k int, req []byte) ([]byte, error) {
				calls++
				res, last, err := served[k].Serve(req)
				if last {
					lasts++
				}
				return res, err
			}
			if err := node0.Distribute(bounds, ws.VMs, call, nil); err != nil {
				t.Fatal(err)
			}
			if err := node0.RunDay(ws, churn.Horizon); err != nil {
				t.Fatal(err)
			}

			if one.Stats != node0.Stats {
				t.Fatalf("stats differ:\none process %+v\ndistributed %+v", one.Stats, node0.Stats)
			}
			if one.MessagesSent() != node0.MessagesSent() || one.BytesSent() != node0.BytesSent() {
				t.Fatalf("traffic differs: %d/%d vs %d/%d messages/bytes",
					one.MessagesSent(), one.BytesSent(), node0.MessagesSent(), node0.BytesSent())
			}
			want := replicaState(one.DC())
			if got := replicaState(node0.DC()); !reflect.DeepEqual(got, want) {
				t.Fatal("node 0's replica differs from the one-process data center")
			}
			for k := 1; k < len(served); k++ {
				if err := served[k].DC().CheckInvariants(); err != nil {
					t.Fatalf("process %d: %v", k, err)
				}
				if got := replicaState(served[k].DC()); !reflect.DeepEqual(got, want) {
					t.Fatalf("process %d's replica differs from node 0's", k)
				}
			}
			if one.Stats.Placements == 0 || one.Stats.MigrationsLow+one.Stats.MigrationsHigh == 0 {
				t.Fatalf("the day placed or migrated nothing: %+v", one.Stats)
			}
			if lasts != len(served)-1 || calls <= lasts {
				t.Fatalf("%d calls, %d of them final; want traffic and one final call per process", calls, lasts)
			}
		})
	}
}

// TestServeRejectsMalformedCalls feeds a serving cluster truncated and
// garbled calls: each must fail with an error, not a panic. A reply with a
// send no server makes fails node 0's apply the same way.
func TestServeRejectsMalformedCalls(t *testing.T) {
	ws, err := trace.GenerateChurn(trace.DefaultChurnConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for _, req := range [][]byte{
		nil,
		{0},                                      // time 0, no work
		{0, 99},                                  // unknown work tag
		{0, tagMutation},                         // truncated mutation
		{0, tagMutation, 7, 0, 0, 0, 0, tagSync}, // a crash-evict cannot be replayed
		{0, tagScan, 0},                          // truncated scan
		{0, tagScan, 0, 8, 4, 1},                 // fewer marks than announced
		{0, tagMessage, 42},                      // unknown message kind
		{0, tagMessage, 1, 0, 2, 0, 2, 0},        // a reply, which no server receives
		{0, tagMessage, 6, 0, 40, 0},             // a wake to node 20, past the fleet
		{0, tagSync, 0},                          // trailing byte
		{4, 0},                                   // time 2, then work tag 0
	} {
		c, err := NewServing(cfg, dc.UniformFleet(4, 6, 2000), 1, ws.VMs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Serve(req); err == nil {
			t.Errorf("call %v served without error", req)
		}
	}
}

func TestApplyRejectsForeignSends(t *testing.T) {
	c, err := New(DefaultConfig(), dc.UniformFleet(4, 6, 2000), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []netsim.Message{
		{From: 1, To: 2, Kind: "reply", Payload: &reply{}},                // a reply to a server
		{From: 1, To: managerNode, Kind: "transfer", Payload: transfer{}}, // a transfer to the manager
		{From: 1, To: 9, Kind: "transfer", Payload: transfer{}},           // past the fleet
		{From: 1, To: 2, Kind: "wake"},                                    // the manager's to send
	} {
		if err := c.apply(appendMessage([]byte{tagSend}, m)); err == nil {
			t.Errorf("applied a server's send of %q to node %d", m.Kind, m.To)
		}
	}
	if sent, _ := c.net.Stats(); sent != 0 {
		t.Fatalf("%d rejected sends reached the fabric", sent)
	}
}
