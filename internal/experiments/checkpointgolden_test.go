package experiments

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
)

// TestCheckpointResumeDifferential pins the checkpoint engine's hard
// guarantee: run-to-T, checkpoint, restore, continue-to-horizon produces
// EXACTLY the bytes of the uninterrupted run — every sampled series, the
// aggregates, the per-server utilization matrix and the event journal (the
// resumed journal concatenated after the prefix journal) — for seeds 42–44
// at workers 0, 1 and 8. The checkpoint crosses the JSON wire format on the
// way, so serialization lossiness would also fail here.
func TestCheckpointResumeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is 9 triple runs")
	}
	const cut = 2 * time.Hour
	for _, seed := range soaGoldenSeeds {
		for _, workers := range soaGoldenWorkers {
			// Uninterrupted truth.
			var full bytes.Buffer
			cfg, pol := soaGoldenConfig(t, seed, workers)
			fullRes, err := cluster.Run(cfg, pol, journalTo(&full))
			if err != nil {
				t.Fatalf("seed %d workers %d: uninterrupted: %v", seed, workers, err)
			}
			want := marshalSoAResult(fullRes, full.Bytes())

			// Prefix to the cut; capture and stop.
			var prefix bytes.Buffer
			cfgP, polP := soaGoldenConfig(t, seed, workers)
			var ck *checkpoint.Checkpoint
			if _, err := cluster.Run(cfgP, polP, journalTo(&prefix),
				cluster.WithCheckpointAt(cut, func(c *checkpoint.Checkpoint) error { ck = c; return nil }),
				cluster.WithCheckpointStop(),
			); err != nil {
				t.Fatalf("seed %d workers %d: prefix: %v", seed, workers, err)
			}
			if ck == nil {
				t.Fatalf("seed %d workers %d: sink never called", seed, workers)
			}

			// Cross the wire format: what resumes is the decoded bytes, not
			// the in-memory object.
			var wire bytes.Buffer
			if err := checkpoint.Write(&wire, ck); err != nil {
				t.Fatalf("seed %d workers %d: write: %v", seed, workers, err)
			}
			decoded, err := checkpoint.Read(&wire)
			if err != nil {
				t.Fatalf("seed %d workers %d: read: %v", seed, workers, err)
			}

			// Resume to the horizon.
			var suffix bytes.Buffer
			cfgR, polR := soaGoldenConfig(t, seed, workers)
			resumedRes, err := cluster.Run(cfgR, polR, journalTo(&suffix), cluster.WithResume(decoded))
			if err != nil {
				t.Fatalf("seed %d workers %d: resume: %v", seed, workers, err)
			}
			events := append(append([]byte(nil), prefix.Bytes()...), suffix.Bytes()...)
			got := marshalSoAResult(resumedRes, events)
			if !bytes.Equal(got, want) {
				t.Errorf("seed %d workers %d: resumed run diverges from uninterrupted (%d vs %d bytes)\nfirst diff: %s",
					seed, workers, len(got), len(want), firstDiffLine(got, want))
			}
		}
	}
}

// TestCheckpointCaptureIsPure verifies that capturing a checkpoint mid-run
// (without stopping) changes nothing: the checkpointing run's bytes equal
// the non-checkpointing run's.
func TestCheckpointCaptureIsPure(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs")
	}
	seed := soaGoldenSeeds[0]
	var plain bytes.Buffer
	cfg, pol := soaGoldenConfig(t, seed, 0)
	plainRes, err := cluster.Run(cfg, pol, journalTo(&plain))
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	want := marshalSoAResult(plainRes, plain.Bytes())

	var observed bytes.Buffer
	cfgC, polC := soaGoldenConfig(t, seed, 0)
	captured := false
	capRes, err := cluster.Run(cfgC, polC, journalTo(&observed),
		cluster.WithCheckpointAt(2*time.Hour, func(*checkpoint.Checkpoint) error {
			captured = true
			return nil
		}))
	if err != nil {
		t.Fatalf("checkpointing run: %v", err)
	}
	if !captured {
		t.Fatal("sink never called")
	}
	got := marshalSoAResult(capRes, observed.Bytes())
	if !bytes.Equal(got, want) {
		t.Errorf("checkpointing run diverges from plain run\nfirst diff: %s", firstDiffLine(got, want))
	}
}

// firstDiffLine locates the first line where two marshalled outputs diverge,
// for failure diagnostics.
func firstDiffLine(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	n := len(g)
	if len(w) < n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d: got %s want %s", i, truncate(g[i]), truncate(w[i]))
		}
	}
	return "length mismatch only"
}

func truncate(b []byte) string {
	if len(b) > 160 {
		b = b[:160]
	}
	return string(b)
}
