package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/rng"
)

// Resuming a checkpoint whose streams are all zero fails with the rng
// restore error, and the failed run's run.json records that error, naming
// the stream.
func TestRunRecordsResumeError(t *testing.T) {
	opts := experiments.DefaultDailyOptions()
	opts.Servers, opts.NumVMs, opts.Horizon = 10, 150, 4*time.Hour
	var ck *checkpoint.Checkpoint
	capture := opts
	capture.Cluster = []cluster.Option{
		cluster.WithCheckpointAt(time.Hour, func(c *checkpoint.Checkpoint) error { ck = c; return nil }),
		cluster.WithCheckpointStop(),
	}
	if _, err := experiments.Daily(capture); err != nil {
		t.Fatal(err)
	}
	for label := range ck.RNG {
		ck.RNG[label] = rng.State{}
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Write(f, ck); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if err := bindCheckpointFlags(&opts, 0, "", false, path); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	runErr := run(opts, cli.ObsFlags{}, out, "", 0)
	if runErr == nil || !strings.Contains(runErr.Error(), "all-zero state") {
		t.Fatalf("run = %v, want the rng restore error", runErr)
	}
	data, err := os.ReadFile(filepath.Join(out, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.Error != runErr.Error() {
		t.Fatalf("run.json error = %q, want %q", manifest.Error, runErr)
	}
	for label := range ck.RNG {
		if strings.Contains(manifest.Error, strconv.Quote(label)) {
			return
		}
	}
	t.Fatalf("run.json error %q names no captured stream", manifest.Error)
}
