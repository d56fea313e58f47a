package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Manifest records everything needed to audit or re-run one experiment run:
// the full configuration, the seed, the toolchain, and the run's resource
// footprint. It is written as run.json next to the figure CSVs.
type Manifest struct {
	Experiment string `json:"experiment"`
	// Config is the experiment's full options struct, marshaled verbatim.
	Config any    `json:"config,omitempty"`
	Seed   uint64 `json:"seed"`

	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`

	Start time.Time `json:"start"`
	End   time.Time `json:"end,omitempty"`
	// Error is the error the run failed with; a run that finished has none.
	Error string `json:"error,omitempty"`

	WallSeconds    float64 `json:"wall_seconds"`
	CPUUserSeconds float64 `json:"cpu_user_seconds"`
	CPUSysSeconds  float64 `json:"cpu_sys_seconds"`
	PeakHeapBytes  uint64  `json:"peak_heap_bytes"`

	// Metrics is the final registry snapshot (counters/gauges/timers).
	Metrics Snapshot `json:"metrics,omitempty"`
}

// NewManifest starts a manifest for one run, stamping the start time and the
// toolchain identity.
func NewManifest(experiment string, config any, seed uint64) *Manifest {
	return &Manifest{
		Experiment: experiment,
		Config:     config,
		Seed:       seed,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Start:      time.Now(), //ecolint:allow wallclock — manifest records real run provenance, not simulation state
	}
}

// Finish stamps the end time, computes wall/CPU time and the peak heap, and
// folds in the recorder's final snapshot (r may be nil).
func (m *Manifest) Finish(r *Recorder) {
	m.End = time.Now() //ecolint:allow wallclock — manifest records real run provenance, not simulation state
	m.WallSeconds = m.End.Sub(m.Start).Seconds()
	m.CPUUserSeconds, m.CPUSysSeconds = cpuTimes()

	r.SampleMemory()
	m.Metrics = r.Snapshot()
	// Peak heap: the sampled high-water mark when telemetry ran, else the
	// current heap (a floor, not a true peak).
	if g, ok := m.Metrics.Gauges["mem.heap_peak_bytes"]; ok && g > 0 {
		m.PeakHeapBytes = uint64(g)
	} else {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.PeakHeapBytes = ms.HeapAlloc
	}
}

// WriteFile writes the manifest as indented JSON to dir/run.json, creating
// dir if needed, and returns the path written.
func (m *Manifest) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "run.json")
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
