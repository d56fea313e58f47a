package cli

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// A run's error ends up in its run.json and comes back from Close; a run
// that finished writes no error key.
func TestCloseRecordsRunError(t *testing.T) {
	for _, runErr := range []error{nil, errors.New("resume: stream zeroed")} {
		dir := t.TempDir()
		s, err := ObsFlags{}.Start("test", nil, 1, dir)
		if err != nil {
			t.Fatal(err)
		}
		s.logw = io.Discard
		if got := s.Close(runErr); got != runErr {
			t.Fatalf("Close(%v) = %v", runErr, got)
		}
		data, err := os.ReadFile(filepath.Join(dir, "run.json"))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		got, has := m["error"]
		switch {
		case runErr == nil && has:
			t.Fatalf("finished run wrote error %v", got)
		case runErr != nil && got != runErr.Error():
			t.Fatalf("run.json error = %v, want %q", got, runErr)
		}
	}
	runErr := errors.New("no telemetry")
	if got := (*Scope)(nil).Close(runErr); got != runErr {
		t.Fatalf("nil Scope's Close = %v, want the run's error", got)
	}
}

// A heap profile that cannot be written still leaves run.json and closes
// the journal; Close returns the profile's error, or the run's ahead of it.
func TestCloseWritesManifestWhenProfileFails(t *testing.T) {
	for _, runErr := range []error{nil, errors.New("run failed")} {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, "heap.pprof"), 0o755); err != nil {
			t.Fatal(err)
		}
		s, err := ObsFlags{Profile: true}.Start("test", nil, 1, dir)
		if err != nil {
			t.Fatal(err)
		}
		s.logw = io.Discard
		err = s.Close(runErr)
		switch {
		case runErr != nil && err != runErr:
			t.Fatalf("Close = %v, want the run's error %v", err, runErr)
		case runErr == nil && err == nil:
			t.Fatal("Close hid the heap profile's error")
		}
		if _, err := os.Stat(filepath.Join(dir, "run.json")); err != nil {
			t.Fatalf("no run.json after the profile failed: %v", err)
		}
		if s.journalFile != nil {
			t.Fatal("journal left open")
		}
	}
}
