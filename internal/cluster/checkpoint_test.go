package cluster_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/ecocloud"
	"repro/internal/trace"
)

var errSink = errors.New("sink failed")

func newEcoPolicy(t *testing.T) cluster.Policy {
	t.Helper()
	pol, err := ecocloud.New(ecocloud.DefaultConfig(), 7)
	if err != nil {
		t.Fatalf("policy: %v", err)
	}
	return pol
}

func TestCheckpointConfigValidation(t *testing.T) {
	ws := &trace.Set{RefCapacityMHz: 8000, VMs: []*trace.VM{constVM(0, 100, 0, time.Hour)}}
	sink := func(*checkpoint.Checkpoint) error { return nil }
	cases := []struct {
		name string
		opts []cluster.Option
	}{
		{"misaligned", []cluster.Option{cluster.WithCheckpointAt(7*time.Minute, sink)}},
		{"at horizon", []cluster.Option{cluster.WithCheckpointAt(2*time.Hour, sink)}},
		{"past horizon", []cluster.Option{cluster.WithCheckpointAt(3*time.Hour, sink)}},
		{"nil sink", []cluster.Option{cluster.WithCheckpointAt(time.Hour, nil)}},
		{"stop without at", []cluster.Option{cluster.WithCheckpointStop()}},
	}
	for _, tc := range cases {
		if _, err := cluster.Run(baseConfig(ws), &stuffer{}, tc.opts...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestResumeValidation(t *testing.T) {
	// All VMs start after the cut so resume gets past the placement check
	// and the failures under test are reached.
	ws := &trace.Set{RefCapacityMHz: 8000, VMs: []*trace.VM{constVM(0, 100, time.Hour, 90*time.Minute)}}
	ck := func(mut func(*checkpoint.Checkpoint)) *checkpoint.Checkpoint {
		c := checkpoint.New(int64(5 * time.Minute))
		c.Policy = "stuffer"
		if mut != nil {
			mut(c)
		}
		return c
	}
	cases := []struct {
		name string
		ck   *checkpoint.Checkpoint
		want string
	}{
		{"wrong policy", ck(func(c *checkpoint.Checkpoint) { c.Policy = "other" }), "belongs to policy"},
		{"past horizon", ck(func(c *checkpoint.Checkpoint) { c.AtNS = int64(2 * time.Hour) }), "not before the horizon"},
		{"misaligned", ck(func(c *checkpoint.Checkpoint) { c.AtNS = int64(7 * time.Minute) }), "not aligned"},
		{"invalid", ck(func(c *checkpoint.Checkpoint) { c.Version = 99 }), "version"},
	}
	for _, tc := range cases {
		_, err := cluster.Run(baseConfig(ws), &stuffer{}, cluster.WithResume(tc.ck))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}

	// Re-checkpointing a resumed run must aim past the resume point.
	sink := func(*checkpoint.Checkpoint) error { return nil }
	_, err := cluster.Run(baseConfig(ws), &stuffer{},
		cluster.WithResume(ck(nil)),
		cluster.WithCheckpointAt(5*time.Minute, sink))
	if err == nil || !strings.Contains(err.Error(), "not after the resume point") {
		t.Errorf("re-checkpoint at the resume point: err = %v", err)
	}
}

// TestCheckpointRequiresCapablePolicy: a policy without the checkpoint
// interfaces fails the capture (and the resume) loudly instead of writing a
// partial state.
func TestCheckpointRequiresCapablePolicy(t *testing.T) {
	ws := &trace.Set{RefCapacityMHz: 8000, VMs: []*trace.VM{constVM(0, 100, 0, time.Hour)}}
	sink := func(*checkpoint.Checkpoint) error { return nil }
	_, err := cluster.Run(baseConfig(ws), &stuffer{}, cluster.WithCheckpointAt(time.Hour, sink))
	if err == nil || !strings.Contains(err.Error(), "does not support checkpointing") {
		t.Errorf("capture with incapable policy: err = %v", err)
	}
}

// TestCheckpointSinkErrorAbortsRun: a sink failure is a run failure.
func TestCheckpointSinkErrorAbortsRun(t *testing.T) {
	ws := &trace.Set{RefCapacityMHz: 8000, VMs: []*trace.VM{constVM(0, 100, 0, time.Hour)}}
	cfg := baseConfig(ws)
	pol := newEcoPolicy(t)
	sink := func(*checkpoint.Checkpoint) error { return errSink }
	_, err := cluster.Run(cfg, pol, cluster.WithCheckpointAt(time.Hour, sink))
	if err == nil || !strings.Contains(err.Error(), "sink failed") {
		t.Errorf("sink error: err = %v", err)
	}
}

// captureAt runs ws under an ecoCloud policy to the checkpoint at at and
// returns the checkpoint.
func captureAt(t *testing.T, ws *trace.Set, at time.Duration) *checkpoint.Checkpoint {
	t.Helper()
	var ck *checkpoint.Checkpoint
	_, err := cluster.Run(baseConfig(ws), newEcoPolicy(t),
		cluster.WithCheckpointAt(at, func(c *checkpoint.Checkpoint) error { ck = c; return nil }),
		cluster.WithCheckpointStop())
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// resumeErr resumes ws from ck under a fresh ecoCloud policy and returns
// the run's error, failing the test if the run is still going after 5 s.
func resumeErr(t *testing.T, ws *trace.Set, ck *checkpoint.Checkpoint) error {
	t.Helper()
	pol := newEcoPolicy(t)
	done := make(chan error, 1)
	go func() {
		_, err := cluster.Run(baseConfig(ws), pol, cluster.WithResume(ck))
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("resume still running after 5 s")
		return nil
	}
}

// resumeFixture captures an ecoCloud run of 12 VMs at 1 h and returns its
// workload, the checkpoint and the ID of a server stream the checkpoint
// holds.
func resumeFixture(t *testing.T) (*trace.Set, *checkpoint.Checkpoint, int) {
	t.Helper()
	var vms []*trace.VM
	for i := 0; i < 12; i++ {
		vms = append(vms, constVM(i, 400, 0, 2*time.Hour))
	}
	ws := &trace.Set{RefCapacityMHz: 8000, VMs: vms}
	ck := captureAt(t, ws, time.Hour)
	var st struct{ Servers []struct{ ID int } }
	if err := json.Unmarshal(ck.PolicyState, &st); err != nil || len(st.Servers) == 0 {
		t.Fatalf("checkpoint holds no server stream (%v): %s", err, ck.PolicyState)
	}
	return ws, ck, st.Servers[0].ID
}

// policyStateWith returns a copy of ck whose policy state has key set to
// the JSON value raw.
func policyStateWith(t *testing.T, ck *checkpoint.Checkpoint, key, raw string) *checkpoint.Checkpoint {
	t.Helper()
	var st map[string]json.RawMessage
	if err := json.Unmarshal(ck.PolicyState, &st); err != nil {
		t.Fatal(err)
	}
	st[key] = json.RawMessage(raw)
	bad := *ck
	var err error
	if bad.PolicyState, err = json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	return &bad
}

// TestResumeRejectsZeroStreams: a checkpoint whose master, manager or
// server stream carries the all-zero xoshiro state, which draws 0 forever,
// fails the resume, naming the stream, instead of hanging it in a draw's
// rejection loop.
func TestResumeRejectsZeroStreams(t *testing.T) {
	ws, ck, server := resumeFixture(t)
	const zero = `"s":[0,0,0,0],"base":1`
	for _, c := range []struct{ key, raw, want string }{
		{"master", "{" + zero + "}", "master stream"},
		{"manager", "{" + zero + "}", "manager stream"},
		{"servers", fmt.Sprintf(`[{"id":%d,%s}]`, server, zero), fmt.Sprintf("server %d stream", server)},
	} {
		err := resumeErr(t, ws, policyStateWith(t, ck, c.key, c.raw))
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "all-zero state") {
			t.Errorf("resume from a zeroed %s: err = %v, want the all-zero state of the %s", c.key, err, c.want)
		}
	}
}

// TestResumeRejectsCorruptPolicyState: a policy state key the policy does
// not own, or server stream IDs that repeat or leave [0, 2^24), fail the
// resume, naming the cause.
func TestResumeRejectsCorruptPolicyState(t *testing.T) {
	ws, ck, _ := resumeFixture(t)
	const st = `"s":[1,2,3,4],"base":1`
	for _, c := range []struct{ key, raw, want string }{
		{"rng", `{}`, `unknown field "rng"`},
		{"servers", `[{"id":3,` + st + `},{"id":3,` + st + `}]`, "IDs must rise strictly"},
		{"servers", `[{"id":-1,` + st + `}]`, "IDs must rise strictly"},
		{"servers", `[{"id":16777216,` + st + `}]`, "IDs must rise strictly"},
	} {
		err := resumeErr(t, ws, policyStateWith(t, ck, c.key, c.raw))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("resume with %s = %s: err = %v, want one naming %q", c.key, c.raw, err, c.want)
		}
	}
}

// TestResumeRejectsOtherInputs: a checkpoint resumes only the inputs it was
// captured from. One changed demand sample fails the resume before anything
// is restored, while a resume at another worker count, which is exact, is
// accepted.
func TestResumeRejectsOtherInputs(t *testing.T) {
	workload := func(mhz float64) *trace.Set {
		var vms []*trace.VM
		for i := 0; i < 12; i++ {
			vms = append(vms, constVM(i, 400, 0, 2*time.Hour))
		}
		vms[5].Demand[0] = mhz
		return &trace.Set{RefCapacityMHz: 8000, VMs: vms}
	}
	ck := captureAt(t, workload(400), time.Hour)
	if err := resumeErr(t, workload(401), ck); err == nil || !strings.Contains(err.Error(), "other inputs") {
		t.Errorf("resume with one sample changed: err = %v", err)
	}
	cfg := baseConfig(workload(400))
	cfg.Workers = 2
	if _, err := cluster.Run(cfg, newEcoPolicy(t), cluster.WithResume(ck)); err != nil {
		t.Errorf("resume at 2 workers: %v", err)
	}
}
