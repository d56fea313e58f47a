package checkpoint

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/dc"
	"repro/internal/rng"
	"repro/internal/trace"
)

func sampleCheckpoint() *Checkpoint {
	ck := New(7200 * 1e9)
	ck.Policy = "ecocloud"
	ck.RNG = map[string]rng.State{
		"a": rng.New(1).State(),
		"b": rng.New(2).State(),
	}
	ck.PolicyState = json.RawMessage(`{"next_group":3}`)
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
	if got.AtNS != ck.AtNS || got.Policy != ck.Policy {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.RNG["a"] != ck.RNG["a"] || got.RNG["b"] != ck.RNG["b"] {
		t.Fatal("rng states did not round-trip")
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

func TestForkIdentity(t *testing.T) {
	ck := sampleCheckpoint()
	fork, err := ck.Fork("")
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	if fork.RNG["a"] != ck.RNG["a"] || fork.RNG["b"] != ck.RNG["b"] {
		t.Fatal("empty-label fork must preserve rng states")
	}
	// The fork is a deep copy: mutating it must not touch the original.
	fork.Meta["seed"] = "tampered"
	if ck.Meta["seed"] != "42" {
		t.Fatal("fork shares Meta with the original")
	}
	st := fork.RNG["a"]
	st.S[0] ^= 1
	fork.RNG["a"] = st
	if ck.RNG["a"].S[0] == st.S[0] {
		t.Fatal("fork shares RNG map with the original")
	}
}

func TestForkDeterministicDivergence(t *testing.T) {
	ck := sampleCheckpoint()
	f1, err := ck.Fork("rep/1")
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	f1again, err := ck.Fork("rep/1")
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	f2, err := ck.Fork("rep/2")
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	if f1.RNG["a"] != f1again.RNG["a"] {
		t.Fatal("same label must fork deterministically")
	}
	if f1.RNG["a"] == f2.RNG["a"] {
		t.Fatal("distinct labels must diverge")
	}
	if f1.RNG["a"] == ck.RNG["a"] {
		t.Fatal("non-empty label must change the stream")
	}
	// Streams stay pairwise distinct inside one fork.
	if f1.RNG["a"] == f1.RNG["b"] {
		t.Fatal("fork collapsed distinct streams")
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
