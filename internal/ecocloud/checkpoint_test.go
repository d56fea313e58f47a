package ecocloud

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/dc"
	"repro/internal/rng"
)

// newCheckpointFixture builds a policy with warmed-up mutable state: derived
// per-server streams that have consumed draws and a rotated invitation
// group.
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
	p.mgr.NormFloat64() // leave a spare cached
	p.nextGroup = 5
	return p
}

// fixtureState returns the fixture's checkpoint state decoded into its
// parts, for a test to corrupt.
func fixtureState(t *testing.T) policyState {
	t.Helper()
	raw, err := newCheckpointFixture(t).MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	var st policyState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// mustRestoreFails restores raw on a fresh policy, wants an error naming
// want, and wants the policy left as New built it.
func mustRestoreFails(t *testing.T, raw []byte, want string) {
	t.Helper()
	q := mustPolicy(t, DefaultConfig(), 99)
	err := q.UnmarshalCheckpoint(raw)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("restore of %s: err = %v, want one naming %q", raw, err, want)
		return
	}
	fresh := mustPolicy(t, DefaultConfig(), 99)
	if q.master.State() != fresh.master.State() || q.mgr.State() != fresh.mgr.State() || len(q.servers.srcs) != 0 || q.nextGroup != 0 {
		t.Errorf("restore of %s failed but installed state", raw)
	}
}

func marshalState(t *testing.T, st any) []byte {
	t.Helper()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestPolicyCheckpointRoundTrip(t *testing.T) {
	p := newCheckpointFixture(t)
	raw, err := p.MarshalCheckpoint()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}

	// A fresh policy from the same config+seed, with the captured state
	// restored on top, must behave identically from here on.
	q := mustPolicy(t, DefaultConfig(), 99)
	if err := q.UnmarshalCheckpoint(raw); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if q.nextGroup != p.nextGroup {
		t.Fatalf("nextGroup %d want %d", q.nextGroup, p.nextGroup)
	}
	// Every stream — including the per-server ones the fresh policy had not
	// derived — continues exactly where the original left off.
	for _, id := range []int{4, 1, 7} {
		if a, b := p.serverSrc(id).Float64(), q.serverSrc(id).Float64(); a != b {
			t.Fatalf("server %d stream diverged: %v vs %v", id, a, b)
		}
	}
	if a, b := p.mgr.NormFloat64(), q.mgr.NormFloat64(); a != b {
		t.Fatalf("manager stream diverged: %v vs %v", a, b)
	}
	if a, b := p.master.Float64(), q.master.Float64(); a != b {
		t.Fatalf("master stream diverged: %v vs %v", a, b)
	}
	// A lazily derived stream NOT in the checkpoint still derives
	// identically on both sides (Split is draw-order independent).
	if a, b := p.serverSrc(30).Float64(), q.serverSrc(30).Float64(); a != b {
		t.Fatalf("post-restore derivation diverged: %v vs %v", a, b)
	}
}

// TestPolicyCheckpointRejectsZeroStream: a stream in the all-zero state
// draws 0 forever and would hang a resumed run, so each of the master, the
// manager and a server stream fails the restore, naming the stream.
func TestPolicyCheckpointRejectsZeroStream(t *testing.T) {
	for _, c := range []struct {
		name string
		zero func(*policyState)
	}{
		{"master stream", func(st *policyState) { st.Master = &rng.State{Base: 1} }},
		{"manager stream", func(st *policyState) { st.Manager = &rng.State{} }},
		{"server 4 stream", func(st *policyState) { st.Servers[1].State = rng.State{} }},
	} {
		st := fixtureState(t)
		c.zero(&st)
		mustRestoreFails(t, marshalState(t, st), c.name)
	}
}

// TestPolicyCheckpointRejectsUnknownKey: the state holds only the keys the
// policy writes, so a key it does not own, such as the separate stream
// section of format 1 or a clock an older policy kept, fails the restore,
// and so does a state without the master or manager stream.
func TestPolicyCheckpointRejectsUnknownKey(t *testing.T) {
	raw := marshalState(t, fixtureState(t))
	for _, key := range []string{"rng", "last_mig_ns"} {
		mustRestoreFails(t, append([]byte(`{"`+key+`":{},`), raw[1:]...), key)
	}
	st := fixtureState(t)
	st.Master = nil
	mustRestoreFails(t, marshalState(t, st), "master")
	st = fixtureState(t)
	st.Manager = nil
	mustRestoreFails(t, marshalState(t, st), "manager")
}

// TestPolicyCheckpointRejectsBadServerID: server IDs must rise strictly and
// stay in [0, 2^24), so a corrupt file can neither size a per-server table
// past any fleet nor restore one stream twice.
func TestPolicyCheckpointRejectsBadServerID(t *testing.T) {
	// The fixture's three server IDs, rewritten: negative, too large,
	// repeated and falling.
	for _, ids := range [][]int{{-1, 4, 7}, {1, 4, 1 << 24}, {1, 4, 4}, {1, 7, 4}} {
		st := fixtureState(t)
		for i, id := range ids {
			st.Servers[i].ID = id
		}
		mustRestoreFails(t, marshalState(t, st), "IDs must rise strictly")
	}
}

// TestPolicyCheckpointEncodingPinned pins the policy's checkpoint bytes on
// state built through the control path: server 1 makes a consolidation
// migration at t = 0 and server 4 one at 10 min, both onto server 7, which
// stays in its grace period; the scans derive streams 1, 4 and 7. Without
// invitation groups the cursor is 0 and omitted. The stream states are the
// ones format 1 wrote for the same run under its stream labels.
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
	const want = `{"master":{"s":[4824385676517010403,583982616703494564,15398599001720869627,1887459716761070807],"base":4824385676517010403},` +
		`"manager":{"s":[8821440611544763941,13948602688831090191,9968429346796798998,6975400733260627616],"base":12755916654718394324},` +
		`"servers":[` +
		`{"id":1,"s":[9861651609460494974,13018938265730919556,5033775179760586600,17682655502009204003],"base":6546708071462170675},` +
		`{"id":4,"s":[2675700722892512026,9198704915371165056,12251650731775883392,1533669696722048116],"base":5799055357905706838},` +
		`{"id":7,"s":[4239872842346804664,13766792129259066729,11603030865598993620,14944751806052459756],"base":4239872842346804664}]}`
	if string(raw) != want {
		t.Fatalf("checkpoint state\n got %s\nwant %s", raw, want)
	}
}
