package ecocloud

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dc"
	"repro/internal/rng"
)

// newCheckpointFixture builds a policy with warmed-up mutable state: derived
// per-server streams that have consumed draws, cooldown clocks, and a
// rotated invitation group.
func newCheckpointFixture(t *testing.T) *Policy {
	t.Helper()
	p, err := New(DefaultConfig(), 99)
	if err != nil {
		t.Fatalf("policy: %v", err)
	}
	for _, id := range []int{4, 1, 7} {
		src := p.serverSrc(id)
		for i := 0; i < id+1; i++ {
			src.Float64()
		}
	}
	p.mgr.Float64()
	p.lastMig.set(4, 40*time.Minute)
	p.lastMig.set(1, 10*time.Minute)
	p.nextGroup = 5
	return p
}

func TestPolicyCheckpointRoundTrip(t *testing.T) {
	p := newCheckpointFixture(t)

	reg := rng.NewRegistry()
	p.RegisterStreams(reg)
	states := reg.States()
	raw, err := p.MarshalCheckpoint()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}

	// A fresh policy from the same config+seed, with the captured state
	// adopted on top, must behave identically from here on.
	q, err := New(DefaultConfig(), 99)
	if err != nil {
		t.Fatalf("policy: %v", err)
	}
	if err := q.UnmarshalCheckpoint(raw); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := q.AdoptStreams(states); err != nil {
		t.Fatalf("adopt: %v", err)
	}

	if q.nextGroup != p.nextGroup {
		t.Fatalf("nextGroup %d want %d", q.nextGroup, p.nextGroup)
	}
	// The whole table, unset entries included: a cooldown restored onto a
	// server that had none would fail here.
	if !slices.Equal(q.lastMig, p.lastMig) {
		t.Fatalf("lastMig %v want %v", q.lastMig, p.lastMig)
	}
	// Every stream — including the per-server ones the fresh policy had not
	// derived — continues exactly where the original left off.
	for _, id := range []int{4, 1, 7} {
		if a, b := p.serverSrc(id).Float64(), q.serverSrc(id).Float64(); a != b {
			t.Fatalf("server %d stream diverged: %v vs %v", id, a, b)
		}
	}
	if a, b := p.mgr.Float64(), q.mgr.Float64(); a != b {
		t.Fatalf("manager stream diverged: %v vs %v", a, b)
	}
	if a, b := p.master.Float64(), q.master.Float64(); a != b {
		t.Fatalf("master stream diverged: %v vs %v", a, b)
	}
	// A lazily derived stream NOT in the checkpoint still derives
	// identically on both sides (Split is draw-order independent).
	if a, b := p.serverSrc(30).Float64(), q.serverSrc(30).Float64(); a != b {
		t.Fatalf("post-adopt derivation diverged: %v vs %v", a, b)
	}
}

func TestAdoptStreamsRejectsUnknownLabel(t *testing.T) {
	p := newCheckpointFixture(t)
	reg := rng.NewRegistry()
	p.RegisterStreams(reg)
	states := reg.States()
	states["protocol/bogus"] = rng.New(1).State()

	q, err := New(DefaultConfig(), 99)
	if err != nil {
		t.Fatalf("policy: %v", err)
	}
	if err := q.AdoptStreams(states); err == nil {
		t.Fatal("unknown stream label accepted")
	}
}

// TestPolicyCheckpointRejectsBadServerID adds to a valid checkpoint one
// stream label or cooldown naming a server ID outside [0, 2^24), which must
// fail rather than size a per-server table to it, or a label writing ID 4
// in a form RegisterStreams never writes, which would restore one stream
// twice in map order.
func TestPolicyCheckpointRejectsBadServerID(t *testing.T) {
	reg := rng.NewRegistry()
	newCheckpointFixture(t).RegisterStreams(reg)
	for _, label := range []string{"ecocloud/server/-1", "ecocloud/server/16777216", "ecocloud/server/04", "ecocloud/server/+4"} {
		states := reg.States()
		states[label] = states["ecocloud/server/1"]
		q := mustPolicy(t, DefaultConfig(), 99)
		if err := q.AdoptStreams(states); err == nil {
			t.Errorf("stream label %q accepted", label)
		}
	}
	for _, raw := range []string{
		`{"last_mig_ns":[{"server":-1,"at_ns":0}]}`,
		`{"last_mig_ns":[{"server":16777216,"at_ns":0}]}`,
	} {
		q := mustPolicy(t, DefaultConfig(), 99)
		if err := q.UnmarshalCheckpoint(json.RawMessage(raw)); err == nil {
			t.Errorf("cooldown state %s accepted", raw)
		}
	}
}

// TestPolicyCheckpointEncodingPinned pins the policy's checkpoint bytes and
// stream labels on state built through the control path: server 1 makes a
// consolidation migration at t = 0 and server 4 one at 10 min, both onto
// server 7, which stays in its grace period; the scans derive streams 1, 4
// and 7. A cooldown recorded at t = 0 is written out, not taken for "never".
func TestPolicyCheckpointEncodingPinned(t *testing.T) {
	d := dc.New(dc.UniformFleet(8, 6, 2000)) // 12,000 MHz each
	for _, c := range []struct {
		server int
		at     time.Duration // activation time
		mhz    float64
	}{
		{1, -1000 * time.Hour, 600}, // past grace at u = 0.05: migrates at t = 0
		{4, -25 * time.Minute, 600}, // in grace until 5 min: migrates at 10 min
		{7, 0, 7200},                // in grace throughout: accepts outright
	} {
		s := d.Servers[c.server]
		if err := d.Activate(s, c.at); err != nil {
			t.Fatal(err)
		}
		if err := d.Place(constVM(c.server, c.mhz), s); err != nil {
			t.Fatal(err)
		}
	}
	p := mustPolicy(t, DefaultConfig(), 99)
	for _, now := range []time.Duration{0, 10 * time.Minute} {
		p.OnControl(newEnv(d, now))
	}

	raw, err := p.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	const wantState = `{"last_mig_ns":[{"server":1,"at_ns":0},{"server":4,"at_ns":600000000000}]}`
	if string(raw) != wantState {
		t.Fatalf("checkpoint state\n got %s\nwant %s", raw, wantState)
	}
	reg := rng.NewRegistry()
	p.RegisterStreams(reg)
	const wantLabels = "ecocloud/manager ecocloud/master ecocloud/server/1 ecocloud/server/4 ecocloud/server/7"
	if got := strings.Join(reg.Labels(), " "); got != wantLabels {
		t.Fatalf("stream labels\n got %s\nwant %s", got, wantLabels)
	}
	const wantStates = "0aa62e370a574003d66a9b18618d57481ea6f5ecdf198dbd688ccc28d61a94b7"
	if got := statesDigest(t, reg); got != wantStates {
		t.Fatalf("stream states digest %s, want %s", got, wantStates)
	}
}

// statesDigest is the SHA-256 of reg's captured stream states as JSON
// (keys sorted by label).
func statesDigest(t *testing.T, reg *rng.Registry) string {
	t.Helper()
	raw, err := json.Marshal(reg.States())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(raw))
}
