package checkpoint

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dc"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func sampleCheckpoint() *Checkpoint {
	ck := New(7200 * 1e9)
	ck.Policy = "ecocloud"
	ck.Inputs = "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"
	ck.PolicyState = json.RawMessage(`{"next_group":3,"master":{"s":[1,2,3,4],"base":1}}`)
	ck.Meta = map[string]string{"seed": "42"}
	return ck
}

func TestWriteReadRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	var buf bytes.Buffer
	if err := Write(&buf, ck); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.AtNS != ck.AtNS || got.Policy != ck.Policy || got.Inputs != ck.Inputs {
		t.Fatalf("header mismatch: %+v", got)
	}
	// The indented encoder reformats raw sections; content must survive.
	var a, b bytes.Buffer
	if err := json.Compact(&a, got.PolicyState); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := json.Compact(&b, ck.PolicyState); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("policy state %s want %s", a.Bytes(), b.Bytes())
	}
	// The wire bytes themselves must be deterministic (sorted maps).
	var buf2 bytes.Buffer
	if err := Write(&buf2, got); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	var buf3 bytes.Buffer
	if err := Write(&buf3, sampleCheckpoint()); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
		t.Fatal("wire bytes not deterministic")
	}
}

func TestValidate(t *testing.T) {
	if err := sampleCheckpoint().Validate(); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	bad := sampleCheckpoint()
	bad.Version = Version + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("future version accepted")
	}
	bad = sampleCheckpoint()
	bad.AtNS = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero capture time accepted")
	}
}

// RunnerState's JSON keys and their order are part of the wire format: a
// checkpoint written before the accumulators moved into Accum must encode,
// and so read, exactly as before. The literals were taken from that build.
func TestRunnerStateEncoding(t *testing.T) {
	series := func(name string) *metrics.Series {
		return &metrics.Series{Name: name, T: []time.Duration{time.Hour}, V: []float64{1.5}}
	}
	st := RunnerState{
		Accum: Accum{
			VMTicks: 1, VMOverTicks: 2, VMRAMOverTicks: 3, WinVMTicks: 4, WinVMOverTicks: 5,
			OverDemandMHz: 6, OverCapacityMHz: 7, ActiveTickSum: 8, ControlTicks: 9,
			LastActivations: 10, LastHibernations: 11,
		},
		EnergyKWh:     12.5,
		ActiveServers: series("active"), PowerW: series("power"), OverallLoad: series("load"),
		OverDemandPct: series("over"), Activations: series("act"), Hibernations: series("hib"),
		SampleTimesNS: []int64{1800e9},
		ServerUtil:    [][]float64{{0.25, 0.5}},
		Episodes:      metrics.EpisodeTrackerState{Open: []metrics.OpenEpisode{{ID: 3, DurationNS: 60e9}}, DurationsNS: []int64{120e9}},
		Migrations:    map[string]metrics.RateCounterState{"low": {}},
		Rounds:        []RoundCount{{TNS: 300e9, N: 2}},
		Saturations:   13,
	}
	const want = `{"vm_ticks":1,"vm_over_ticks":2,"vm_ram_over_ticks":3,"win_vm_ticks":4,"win_vm_over_ticks":5,"over_demand_mhz":6,"over_capacity_mhz":7,"active_tick_sum":8,"control_ticks":9,"last_activations":10,"last_hibernations":11,"energy_kwh":12.5,` +
		`"active_servers":{"Name":"active","T":[3600000000000],"V":[1.5]},"power_w":{"Name":"power","T":[3600000000000],"V":[1.5]},"overall_load":{"Name":"load","T":[3600000000000],"V":[1.5]},"overdemand_pct":{"Name":"over","T":[3600000000000],"V":[1.5]},"activations":{"Name":"act","T":[3600000000000],"V":[1.5]},"hibernations":{"Name":"hib","T":[3600000000000],"V":[1.5]},` +
		`"sample_times_ns":[1800000000000],"server_util":[[0.25,0.5]],"episodes":{"open":[{"id":3,"duration_ns":60000000000}],"durations_ns":[120000000000]},"migrations":{"low":{}},"rounds":[{"t_ns":300000000000,"n":2}],"saturations":13}`
	for _, c := range []struct {
		st   RunnerState
		want string
	}{{st, want}, {RunnerState{}, `{"episodes":{}}`}} {
		got, err := json.Marshal(c.st)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("encoded runner state\n got %s\nwant %s", got, c.want)
		}
		var back RunnerState
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, c.st) {
			t.Errorf("decoded runner state %+v, want %+v", back, c.st)
		}
	}
}

// A version-1 file, which kept the rng streams in a section of their own
// and no inputs digest, fails with the version error.
func TestReadRejectsVersion1(t *testing.T) {
	v1 := `{"version":1,"at_ns":7200000000000,"policy":"ecocloud","dc":{"servers":null,"activations":0,"hibernations":0},` +
		`"rng":{"ecocloud/manager":{"s":[1,2,3,4],"base":1}},"policy_state":{"next_group":3}}`
	_, err := Read(bytes.NewBufferString(v1))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("Read of a version-1 file: %v", err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, input := range []string{"not json", "{}", "["} {
		if _, err := Read(bytes.NewBufferString(input)); err == nil {
			t.Errorf("Read(%q) accepted", input)
		}
	}
}

// fuzzFleet is the fixed fleet and workload FuzzRead restores DC sections
// on: four servers and six constant-demand VMs.
func fuzzFleet() ([]dc.Spec, *trace.Set) {
	ws := &trace.Set{RefCapacityMHz: 2000}
	for id := 0; id < 6; id++ {
		ws.VMs = append(ws.VMs, &trace.VM{ID: id, End: 2 * time.Hour, Epoch: 2 * time.Hour, Demand: []float64{300}})
	}
	return dc.UniformFleet(4, 6, 2000), ws
}

// writtenCheckpoint is sampleCheckpoint carrying a data center that hosts
// fuzzFleet's VMs on two active servers, as Write encodes it.
func writtenCheckpoint(f *testing.F) []byte {
	specs, ws := fuzzFleet()
	d := dc.New(specs)
	for i, vm := range ws.VMs {
		s := d.Servers[i%2]
		if s.State() != dc.Active {
			if err := d.Activate(s, 0); err != nil {
				f.Fatal(err)
			}
		}
		if err := d.Place(vm, s); err != nil {
			f.Fatal(err)
		}
	}
	d.Servers[0].DemandAt(time.Hour) // fill one server's kernel aggregate
	ck := sampleCheckpoint()
	ck.DC = d.Snapshot()
	var buf bytes.Buffer
	if err := Write(&buf, ck); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRead holds the reader ecobench -resume runs to its contract: for any
// bytes, Read fails or returns a checkpoint whose encoding is stable after
// one more Write/Read round, and whose DC section fails dc.Restore or
// restores a data center that passes CheckInvariants. Nothing panics.
func FuzzRead(f *testing.F) {
	f.Add(writtenCheckpoint(f))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[`))
	specs, ws := fuzzFleet()
	f.Fuzz(func(t *testing.T, input []byte) {
		ck, err := Read(bytes.NewReader(input))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := Write(&first, ck); err != nil {
			t.Fatalf("an accepted checkpoint fails to write: %v", err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a written checkpoint fails to read: %v", err)
		}
		if err := Write(&second, again); err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding not stable:\n%s\n%s", first.Bytes(), second.Bytes())
		}
		d, err := dc.Restore(specs, ws, ck.DC)
		if err != nil {
			return
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("restored data center: %v", err)
		}
	})
}
