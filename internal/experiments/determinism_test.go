package experiments

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

// runDailyGolden runs the registered "daily" experiment at test scale with
// the given seed and returns (a) every figure rendered to CSV, concatenated,
// and (b) the raw JSONL journal of the run — the two artifacts the
// determinism contract promises are a pure function of the seed.
func runDailyGolden(t *testing.T, seed uint64) (csv, journal []byte) {
	t.Helper()
	return runDailyGoldenWorkers(t, seed, 0)
}

// runDailyGoldenWorkers is runDailyGolden with an explicit control-round
// worker count, for the cross-worker bit-identity tests.
func runDailyGoldenWorkers(t *testing.T, seed uint64, workers int) (csv, journal []byte) {
	t.Helper()
	var jbuf bytes.Buffer
	res, err := Run("daily", RunRequest{
		Config: RunConfig{
			Servers: 20,
			NumVMs:  300,
			Horizon: 6 * time.Hour,
			Seed:    seed,
			Workers: workers,
			Obs:     obs.NewRecorder(nil, obs.NewJournal(&jbuf)),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var cbuf bytes.Buffer
	for _, f := range res.Figures {
		fmt.Fprintf(&cbuf, "== %s ==\n", f.ID)
		if err := f.WriteCSV(&cbuf); err != nil {
			t.Fatal(err)
		}
	}
	return cbuf.Bytes(), jbuf.Bytes()
}

// TestDailyIsSeedDeterministic is the golden determinism test: two runs of
// the daily experiment with the same seed must produce byte-identical CSV
// output and byte-identical event journals. This is the bit-reproducibility
// claim DESIGN.md's determinism contract makes, checked end to end through
// the registry, the trace generator, the policy, and the simulation engine.
func TestDailyIsSeedDeterministic(t *testing.T) {
	csv1, journal1 := runDailyGolden(t, 42)
	csv2, journal2 := runDailyGolden(t, 42)

	if !bytes.Equal(csv1, csv2) {
		t.Errorf("same seed, different CSV output (%d vs %d bytes)", len(csv1), len(csv2))
		t.Logf("first divergence at byte %d", firstDiff(csv1, csv2))
	}
	if !bytes.Equal(journal1, journal2) {
		t.Errorf("same seed, different journals (%d vs %d bytes)", len(journal1), len(journal2))
		t.Logf("first divergence at byte %d", firstDiff(journal1, journal2))
	}
	if len(journal1) == 0 {
		t.Error("journal is empty; the determinism check is vacuous")
	}
}

// TestDailySeedChangesOutput pins the other half of the contract: the seed
// is actually load-bearing. A different seed must perturb the run (otherwise
// the golden test above would pass trivially on a seed-ignoring pipeline).
func TestDailySeedChangesOutput(t *testing.T) {
	_, journal1 := runDailyGolden(t, 42)
	_, journal2 := runDailyGolden(t, 43)
	if bytes.Equal(journal1, journal2) {
		t.Error("seeds 42 and 43 produced identical journals; the seed is not reaching the workload")
	}
}

// TestDailyWorkerCountInvariant is the parallel engine's golden test: the
// daily experiment must produce byte-identical CSVs and journals at every
// worker count, across seeds. Workers is a throughput knob, never a results
// knob — the same claim DESIGN.md's "Parallel execution & determinism"
// section makes, checked end to end through the registry, the cluster
// runner's pooled control round, and the policy.
func TestDailyWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("12 small simulations; skipped in -short")
	}
	for _, seed := range []uint64{42, 43, 44} {
		csv0, journal0 := runDailyGoldenWorkers(t, seed, 0)
		if len(journal0) == 0 {
			t.Fatalf("seed %d: empty journal; the invariance check is vacuous", seed)
		}
		for _, workers := range []int{1, 2, 8} {
			csvW, journalW := runDailyGoldenWorkers(t, seed, workers)
			if !bytes.Equal(csv0, csvW) {
				t.Errorf("seed %d: Workers=%d CSV diverges from sequential at byte %d",
					seed, workers, firstDiff(csv0, csvW))
			}
			if !bytes.Equal(journal0, journalW) {
				t.Errorf("seed %d: Workers=%d journal diverges from sequential at byte %d",
					seed, workers, firstDiff(journal0, journalW))
			}
		}
	}
}

// TestParScaleWorkerCountInvariant covers the parscale experiment the same
// way at test scale: the figure CSV must not depend on which worker counts
// were swept (CI diffs -workers 1 against -workers 4 on exactly this
// artifact). ParScale additionally verifies run-level bit-identity
// internally, so an engine divergence fails the Run call itself.
func TestParScaleWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("several mid-size simulations; skipped in -short")
	}
	render := func(name string, workers int) []byte {
		res, err := Run(name, RunRequest{
			Config: RunConfig{Servers: 150, Horizon: time.Hour, Seed: 7, Workers: workers},
			Scale:  0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, f := range res.Figures {
			if err := f.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	w1, w8 := render("parscale", 1), render("parscale", 8)
	if !bytes.Equal(w1, w8) {
		t.Errorf("parscale CSV depends on the worker sweep: first divergence at byte %d", firstDiff(w1, w8))
	}
	// protocolday's migration scan runs on the pool at every worker count
	// (inline for 0), so its CSV must not move either.
	p0 := render("protocolday", 0)
	for _, workers := range []int{1, 8} {
		if pw := render("protocolday", workers); !bytes.Equal(p0, pw) {
			t.Errorf("protocolday CSV at Workers=%d diverges from Workers=0 at byte %d", workers, firstDiff(p0, pw))
		}
	}
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
