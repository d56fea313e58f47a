package cli

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
)

// ObsFlags are the telemetry switches every binary exposes the same way.
type ObsFlags struct {
	Progress bool
	Profile  bool
}

// Bind registers -progress and -profile against f.
func (f *ObsFlags) Bind(fs *flag.FlagSet) {
	fs.BoolVar(&f.Progress, "progress", false, "report live progress on stderr while the run executes")
	fs.BoolVar(&f.Profile, "profile", false, "write cpu.pprof and heap.pprof next to the figure CSVs")
}

// Scope is one run's telemetry: the recorder to thread into the experiment,
// plus the journal, manifest, profiles and progress reporter that Close
// finalizes. The zero Scope (all telemetry off) is valid and Close on it
// returns the run's error unchanged.
type Scope struct {
	Rec *obs.Recorder

	outDir       string
	manifest     *obs.Manifest
	journalFile  *os.File
	cpuFile      *os.File
	heapPath     string
	stopProgress func()
	logw         io.Writer
}

// Start assembles the run scope from the flags: a recorder (nil — free — when
// everything is off), a JSONL journal plus run manifest when outDir is set,
// CPU/heap profiles when -profile is set, and a progress goroutine when
// -progress is set. Close must be called when the run ends.
func (f ObsFlags) Start(experiment string, config any, seed uint64, outDir string) (*Scope, error) {
	s := &Scope{outDir: outDir, logw: os.Stderr}
	if outDir == "" && !f.Progress && !f.Profile {
		return s, nil // telemetry fully off: Rec stays nil, hot path pays one nil check
	}

	var journal *obs.Journal
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		jf, err := os.Create(filepath.Join(outDir, "journal.jsonl"))
		if err != nil {
			return nil, err
		}
		s.journalFile = jf
		journal = obs.NewJournal(jf)
		s.manifest = obs.NewManifest(experiment, config, seed)
	}
	s.Rec = obs.NewRecorder(nil, journal)

	if f.Profile {
		dir := outDir
		if dir == "" {
			dir = "."
		}
		cf, err := os.Create(filepath.Join(dir, "cpu.pprof"))
		if err != nil {
			s.closeFiles()
			return nil, err
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			s.closeFiles()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		s.cpuFile = cf
		s.heapPath = filepath.Join(dir, "heap.pprof")
	}

	if f.Progress {
		rec := s.Rec
		s.stopProgress = obs.StartProgress(s.logw, defaultProgressInterval, func() string {
			return progressLine(rec)
		})
	}
	return s, nil
}

// Close stops the progress reporter, finalizes the profiles, writes the run
// manifest with runErr, the run's own error, in its error field, and closes
// the journal. It returns runErr ahead of any error of its own. Safe on a
// zero or nil Scope.
func (s *Scope) Close(runErr error) error {
	if s == nil {
		return runErr
	}
	if s.stopProgress != nil {
		s.stopProgress()
		s.stopProgress = nil
	}
	firstErr := runErr
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		s.cpuFile.Close()
		s.cpuFile = nil
		firstErr = cmp.Or(firstErr, writeHeapProfile(s.heapPath))
	}
	if s.manifest != nil {
		if runErr != nil {
			s.manifest.Error = runErr.Error()
		}
		s.manifest.Finish(s.Rec)
		if path, err := s.manifest.WriteFile(s.outDir); err != nil {
			firstErr = cmp.Or(firstErr, err)
		} else {
			fmt.Fprintf(s.logw, "wrote %s\n", path)
		}
		s.manifest = nil
	}
	return cmp.Or(firstErr, s.closeFiles())
}

// writeHeapProfile writes the live heap's profile to path.
func writeHeapProfile(path string) error {
	hf, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // publish accurate live-heap numbers
	if err := pprof.Lookup("heap").WriteTo(hf, 0); err != nil {
		hf.Close()
		return err
	}
	return hf.Close()
}

func (s *Scope) closeFiles() error {
	if s.journalFile == nil {
		return nil
	}
	err := s.journalFile.Close()
	s.journalFile = nil
	return err
}

// progressLine summarizes the recorder the sim layer feeds: events
// dispatched and how far the virtual clock has advanced.
func progressLine(rec *obs.Recorder) string {
	if !rec.Enabled() {
		return "running"
	}
	snap := rec.Snapshot()
	events := snap.Counters["sim.events"]
	simH := time.Duration(snap.Gauges["sim.now_ns"]).Hours()
	return fmt.Sprintf("progress: %d events, sim clock %.2f h", events, simH)
}
