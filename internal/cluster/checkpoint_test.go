package cluster_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/ecocloud"
	"repro/internal/rng"
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

// TestResumeRejectsZeroStreams: a checkpoint whose streams carry the
// all-zero xoshiro state, which draws 0 forever, fails the resume instead
// of hanging it in a draw's rejection loop.
func TestResumeRejectsZeroStreams(t *testing.T) {
	var vms []*trace.VM
	for i := 0; i < 12; i++ {
		vms = append(vms, constVM(i, 400, 0, 2*time.Hour))
	}
	ws := &trace.Set{RefCapacityMHz: 8000, VMs: vms}
	var ck *checkpoint.Checkpoint
	_, err := cluster.Run(baseConfig(ws), newEcoPolicy(t),
		cluster.WithCheckpointAt(time.Hour, func(c *checkpoint.Checkpoint) error { ck = c; return nil }),
		cluster.WithCheckpointStop())
	if err != nil {
		t.Fatal(err)
	}
	for label := range ck.RNG {
		ck.RNG[label] = rng.State{}
	}
	pol := newEcoPolicy(t)
	done := make(chan error, 1)
	go func() {
		_, err := cluster.Run(baseConfig(ws), pol, cluster.WithResume(ck))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "all-zero state") {
			t.Fatalf("resume from zeroed streams: err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resume from zeroed streams still running after 5 s")
	}
}
