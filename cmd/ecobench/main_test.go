package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/rng"
)

// mustRun runs ecobench on args and fails the test on an error.
func mustRun(t *testing.T, args ...string) {
	t.Helper()
	if err := ecobench(args); err != nil {
		t.Fatalf("ecobench %s: %v", strings.Join(args, " "), err)
	}
}

// capture runs the daily experiment under args to -checkpoint-at at and
// stops there, writing the checkpoint to path.
func capture(t *testing.T, path, at string, args ...string) {
	t.Helper()
	args = append([]string{"-experiments", "daily"}, args...)
	mustRun(t, append(args, "-checkpoint-at", at, "-checkpoint", path, "-checkpoint-stop",
		"-out", filepath.Join(t.TempDir(), "prefix"))...)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// CI's checkpoint round trip in process: a daily run captured at 2 h and
// resumed from the checkpoint writes the straight run's six figures, and
// the prefix's journal followed by the resumed run's is the straight run's
// journal. The straight run goes through the registry's daily entry, the
// other two through the checkpoint flags, so the flags reach the same run.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := func(name string) string { return filepath.Join(dir, name) }
	base := []string{"-experiments", "daily", "-scale", "0.06", "-horizon", "6h", "-seed", "7"}
	ck := out("ck.json")
	mustRun(t, append(base, "-out", out("straight"))...)
	mustRun(t, append(base, "-checkpoint-at", "2h", "-checkpoint", ck, "-checkpoint-stop", "-out", out("prefix"))...)
	mustRun(t, append(base, "-resume", ck, "-out", out("resumed"))...)

	for i := 6; i <= 11; i++ {
		name := fmt.Sprintf("fig%d.csv", i)
		if !bytes.Equal(readFile(t, out("straight/"+name)), readFile(t, out("resumed/"+name))) {
			t.Errorf("%s: the resumed run differs from the straight run", name)
		}
	}
	joined := append(readFile(t, out("prefix/journal.jsonl")), readFile(t, out("resumed/journal.jsonl"))...)
	if !bytes.Equal(joined, readFile(t, out("straight/journal.jsonl"))) {
		t.Error("prefix + resumed journal differs from the straight run's")
	}

	for run, want := range map[string]*dailyFlags{"straight": nil, "resumed": {Resume: ck}} {
		var manifest struct {
			Config struct {
				Daily *dailyFlags `json:"daily"`
			} `json:"config"`
		}
		if err := json.Unmarshal(readFile(t, out(run+"/run.json")), &manifest); err != nil {
			t.Fatal(err)
		}
		if got := manifest.Config.Daily; (got == nil) != (want == nil) || got != nil && *got != *want {
			t.Errorf("%s run.json config daily = %+v, want %+v", run, got, want)
		}
	}
}

// A daily-only flag outside a lone daily run, a missing pairing, a
// checkpoint captured under another seed, and a flag that -list,
// -demand-bench or -par-bench would ignore each fail before anything runs,
// so nothing is written.
func TestDailyFlagsRejected(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")
	capture(t, ck, "1h", "-scale", "0.025", "-horizon", "2h", "-seed", "7")

	type rejected struct {
		args []string
		want string // a substring of the error
	}
	var cases []rejected
	for _, flag := range [][]string{
		{"-checkpoint-at", "1h"}, {"-checkpoint", ck}, {"-checkpoint-stop"}, {"-resume", ck}, {"-planetlab", dir},
	} {
		for _, c := range []rejected{
			{[]string{"-experiments", "knee"}, "need -experiments daily"},
			{[]string{"-experiments", "daily,knee"}, "need -experiments daily"},
			{nil, "need -experiments daily"},
		} {
			cases = append(cases, rejected{append(append(c.args, "-scale", "0.025"), flag...), c.want})
		}
	}
	floor := filepath.Join(dir, "floor.json") // never read
	cases = append(cases,
		rejected{[]string{"-experiments", "daily", "-scale", "0.025", "-checkpoint-at", "1h"}, "-checkpoint-at requires -checkpoint"},
		rejected{[]string{"-experiments", "daily", "-scale", "0.025", "-checkpoint-stop"}, "require -checkpoint-at"},
		rejected{[]string{"-experiments", "daily", "-scale", "0.025", "-checkpoint", ck}, "require -checkpoint-at"},
		rejected{[]string{"-experiments", "daily", "-scale", "0.025", "-horizon", "2h", "-seed", "8", "-resume", ck}, "seed=7"},
		rejected{[]string{"-list", "-resume", ck}, "-list does not take -out, -resume"},
		rejected{[]string{"-list", "-experiments", "daily"}, "-list does not take -experiments, -out"},
		rejected{[]string{"-demand-bench", "-scale", "0.025"}, "-demand-bench does not take -scale"},
		rejected{[]string{"-demand-bench", "-par-floor", floor}, "-demand-bench does not take -par-floor"},
		rejected{[]string{"-par-bench", "-workers", "2"}, "-par-bench does not take -workers"},
		rejected{[]string{"-par-bench", "-seed", "3", "-resume", ck}, "-par-bench does not take -resume"},
		rejected{[]string{"-par-floor", floor}, "-par-floor needs -par-bench"},
		rejected{[]string{"-experiments", "daily", "-par-floor", floor}, "-par-floor needs -par-bench"},
		rejected{[]string{"-list", "-demand-bench"}, "-list and -demand-bench do not combine"},
		rejected{[]string{"-list", "-par-bench"}, "-list and -par-bench do not combine"},
		rejected{[]string{"-demand-bench", "-par-bench"}, "-demand-bench and -par-bench do not combine"},
	)
	for i, c := range cases {
		out := filepath.Join(dir, strconv.Itoa(i))
		err := ecobench(append(c.args, "-out", out))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ecobench %s: error %v, want one naming %q", strings.Join(c.args, " "), err, c.want)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("ecobench %s wrote to its -out directory", strings.Join(c.args, " "))
		}
	}
}

// Resuming a checkpoint whose streams are all zero fails with the rng
// restore error, and the failed run's run.json records that error, naming
// the stream.
func TestRunRecordsResumeError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	base := []string{"-scale", "0.025", "-horizon", "4h"}
	capture(t, path, "1h", base...)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for label := range ck.RNG {
		ck.RNG[label] = rng.State{}
	}
	if f, err = os.Create(path); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Write(f, ck); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "out")
	runErr := ecobench(append(base, "-experiments", "daily", "-resume", path, "-out", out))
	if runErr == nil || !strings.Contains(runErr.Error(), "all-zero state") {
		t.Fatalf("run = %v, want the rng restore error", runErr)
	}
	var manifest struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(readFile(t, filepath.Join(out, "run.json")), &manifest); err != nil {
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

// -planetlab chains one archive directory per day: two 24-h days run the
// daily default's 48 h, one day caps the run at 24 h, and a directory that
// cannot be read fails the run naming it. A VM whose last file is short
// departs when it ends, and the horizon is still the archive's length when
// that VM is VM 0.
func TestPlanetLabDays(t *testing.T) {
	dir := t.TempDir()
	// day writes 30 VM files of 24 h of 5-min samples, VM 0's first0 long.
	day := func(name string, base, first0 int) string {
		path := filepath.Join(dir, name)
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
		for vm := 0; vm < 30; vm++ {
			n := 288
			if vm == 0 {
				n = first0
			}
			var b strings.Builder
			for i := 0; i < n; i++ {
				fmt.Fprintln(&b, (base+7*vm+i/12)%60)
			}
			if err := os.WriteFile(filepath.Join(path, fmt.Sprintf("vm%02d", vm)), []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	day1, day2, short := day("day1", 5, 288), day("day2", 20, 288), day("short", 20, 144)
	lastHour := func(out string) string {
		lines := strings.Split(strings.TrimSpace(string(readFile(t, filepath.Join(out, "fig8.csv")))), "\n")
		return strings.Split(lines[len(lines)-1], ",")[0]
	}
	for i, c := range []struct {
		dirs, want string
		removes    bool // VM 0 departs before the horizon
	}{
		{day1 + "," + day2, "48", false},
		{day1, "24", false},
		{day1 + "," + short, "48", true},
		{short, "24", true},
	} {
		out := filepath.Join(dir, "out"+strconv.Itoa(i))
		mustRun(t, "-experiments", "daily", "-scale", "0.025", "-planetlab", c.dirs, "-out", out)
		if got := lastHour(out); got != c.want {
			t.Errorf("-planetlab %s ran to %s h, want %s", c.dirs, got, c.want)
		}
		if got := bytes.Contains(readFile(t, filepath.Join(out, "journal.jsonl")), []byte(`"remove"`)); got != c.removes {
			t.Errorf("-planetlab %s: journal has a remove line %v, want %v", c.dirs, got, c.removes)
		}
	}
	missing := filepath.Join(dir, "day3")
	err := ecobench([]string{"-experiments", "daily", "-scale", "0.025", "-planetlab", day1 + "," + missing, "-out", filepath.Join(dir, "bad")})
	if err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("-planetlab with an unreadable day: error %v, want one naming %s", err, missing)
	}
}
