package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeTimer(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("events")
	c.Add(1)
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if reg.Counter("events") != c {
		t.Error("Counter not idempotent: second lookup returned a new counter")
	}

	g := reg.Gauge("depth")
	g.Set(7)
	g.SetMax(3) // must not lower
	if got := g.Value(); got != 7 {
		t.Errorf("gauge after SetMax(3) = %d, want 7", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Errorf("gauge after SetMax(11) = %d, want 11", got)
	}

	tm := reg.Timer("handler")
	tm.Observe(10 * time.Millisecond)
	tm.Observe(30 * time.Millisecond)
	s := tm.stats()
	if s.Count != 2 || s.TotalNS != int64(40*time.Millisecond) || s.MaxNS != int64(30*time.Millisecond) {
		t.Errorf("timer stats = %+v", s)
	}
	if want := float64(20 * time.Millisecond); s.MeanNS != want {
		t.Errorf("timer mean = %v, want %v", s.MeanNS, want)
	}
}

func TestConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				reg.Counter("c").Add(1)
				reg.Gauge("g").SetMax(int64(i*per + j))
				reg.Timer("t").Observe(time.Microsecond)
				if j%100 == 0 {
					_ = reg.Snapshot() // concurrent reads must be safe
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != goroutines*per {
		t.Errorf("counter = %d, want %d", got, goroutines*per)
	}
	if got, want := reg.Gauge("g").Value(), int64(goroutines*per-1); got != want {
		t.Errorf("gauge high-water = %d, want %d", got, want)
	}
	if got := reg.Timer("t").stats().Count; got != goroutines*per {
		t.Errorf("timer count = %d, want %d", got, goroutines*per)
	}
}

func TestSnapshotDeterminism(t *testing.T) {
	build := func() *Registry {
		reg := NewRegistry()
		// Insert in different orders; encoding must not care.
		for _, n := range []string{"z", "a", "m"} {
			reg.Counter(n).Add(3)
			reg.Gauge("g." + n).Set(9)
			reg.Timer("t." + n).Observe(time.Millisecond)
		}
		return reg
	}
	a, err := json.Marshal(build().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewRegistry()
	for _, n := range []string{"m", "z", "a"} {
		reg2.Timer("t." + n).Observe(time.Millisecond)
		reg2.Gauge("g." + n).Set(9)
		reg2.Counter(n).Add(3)
	}
	b, err := json.Marshal(reg2.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("snapshots differ:\n%s\n%s", a, b)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	// None of these may panic.
	r.Count("x", 1)
	r.Gauge("x", 1)
	r.GaugeMax("x", 1)
	r.Observe("x", time.Second)
	r.Emit(0, "x", nil)
	r.SampleMemory()
	if r.Journaling() {
		t.Error("nil recorder reports journaling")
	}
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Timers != nil {
		t.Errorf("nil recorder snapshot = %+v, want zero", s)
	}
}

func TestJournalJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	r := NewRecorder(nil, j)
	r.Emit(30*time.Minute, "migrate", map[string]any{"vm": 4, "server": 1, "dest": 2})
	r.Emit(time.Hour, "hibernate", map[string]any{"server": 1})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("journal lines = %d, want 2: %q", len(lines), buf.String())
	}
	var got struct {
		TSimNS int64  `json:"t_sim_ns"`
		Kind   string `json:"kind"`
		VM     int    `json:"vm"`
		Dest   int    `json:"dest"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatal(err)
	}
	if got.TSimNS != int64(30*time.Minute) || got.Kind != "migrate" || got.VM != 4 || got.Dest != 2 {
		t.Errorf("journal line = %+v", got)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	type cfg struct {
		Servers int `json:"servers"`
	}
	r := NewRecorder(nil, nil)
	r.Count("sim.events", 42)
	m := NewManifest("daily", cfg{Servers: 40}, 7)
	m.Finish(r)
	if m.WallSeconds < 0 || m.End.Before(m.Start) {
		t.Errorf("bad wall time: start %v end %v", m.Start, m.End)
	}
	if m.PeakHeapBytes == 0 {
		t.Error("peak heap not recorded")
	}
	dir := t.TempDir()
	path, err := m.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("run.json does not parse: %v", err)
	}
	if back.Experiment != "daily" || back.Seed != 7 {
		t.Errorf("manifest round trip: %+v", back)
	}
	if back.Metrics.Counters["sim.events"] != 42 {
		t.Errorf("metrics snapshot lost: %+v", back.Metrics)
	}
	if back.GoVersion == "" {
		t.Error("go version missing")
	}
}

func TestProgressWritesLines(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := StartProgress(w, 5*time.Millisecond, func() string { return "tick" })
	time.Sleep(30 * time.Millisecond)
	stop()
	stop() // idempotent
	mu.Lock()
	defer mu.Unlock()
	if n := strings.Count(buf.String(), "tick"); n < 2 {
		t.Errorf("progress lines = %d, want >= 2 (one periodic + one final)", n)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
