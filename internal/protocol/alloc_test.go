package protocol

import (
	"slices"
	"testing"

	"repro/internal/dc"
	"repro/internal/netsim"
)

// TestInviteReplyZeroAlloc pins the invitation round's per-invitee path:
// once the network and the server streams have warmed up, an invite
// delivered to a server and its reply delivered to the manager allocate
// nothing, for an accepting and for a rejecting server.
func TestInviteReplyZeroAlloc(t *testing.T) {
	c, err := New(fixedConfig(), dc.UniformFleet(2, 6, 2000), 1)
	if err != nil {
		t.Fatal(err)
	}
	d := c.DC()
	for _, s := range d.Servers {
		if err := d.Activate(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Server 0 is empty and in its grace period, so it accepts; server 1 is
	// too full for the invited demand, so it rejects.
	if err := d.Place(constVM(1, 11000), d.Servers[1]); err != nil {
		t.Fatal(err)
	}
	// A third invitee never replies, so the round stays open across runs.
	r := &round{
		id: 1, expected: 3, accepts: make([]int, 0, 3), seen: make([]uint64, 1),
		decide: func(*round) { t.Error("round closed") },
	}
	c.rounds[r.id] = r
	req := newInvite(r.id, 500, c.core.Ta)
	exchange := func() {
		r.replies, r.accepts, r.seen[0] = 0, r.accepts[:0], 0
		for _, s := range d.Servers {
			c.onServerMessage(s, netsim.Message{
				From: managerNode, To: serverNode(s.ID), Kind: "invite",
				Payload: req, Size: inviteSize,
			})
		}
		c.eng.Run(0)
	}
	exchange()
	if r.replies != 2 || !slices.Equal(r.accepts, []int{0}) {
		t.Fatalf("%d replies, accepts %v; want 2 replies, accepts [0]", r.replies, r.accepts)
	}
	if allocs := testing.AllocsPerRun(100, exchange); allocs != 0 {
		t.Errorf("two invite->reply exchanges allocate %v, want 0", allocs)
	}
}
