package dc

import (
	"math"
	"strings"
	"testing"
	"time"
)

// mustPanic runs fn and returns the panic message, failing if fn returns.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a panic, got none")
		}
		msg = r.(string)
	}()
	fn()
	return ""
}

func TestCheckedModeDefaultsAndToggle(t *testing.T) {
	d := twoServerDC()
	if d.Checked() != defaultChecked {
		t.Fatalf("Checked() = %v after New, want defaultChecked (%v)", d.Checked(), defaultChecked)
	}
	d.SetChecked(true)
	if !d.Checked() {
		t.Fatal("Checked() = false after SetChecked(true)")
	}
	d.SetChecked(false)
	if d.Checked() {
		t.Fatal("Checked() = true after SetChecked(false)")
	}
}

// TestCheckedModePassesCleanRun drives a normal mutation sequence with
// checking on: no false positives.
func TestCheckedModePassesCleanRun(t *testing.T) {
	d := twoServerDC()
	d.SetChecked(true)
	s0, s1 := d.Servers[0], d.Servers[1]
	if err := d.Activate(s0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(s1, 0); err != nil {
		t.Fatal(err)
	}
	vm := constVM(7, 1000)
	if err := d.Place(vm, s0); err != nil {
		t.Fatal(err)
	}
	if err := d.Migrate(vm.ID, s1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Remove(vm.ID); err != nil {
		t.Fatal(err)
	}
	if err := d.Hibernate(s0); err != nil {
		t.Fatal(err)
	}
}

// TestCheckedModePanicsOnCorruption corrupts the unexported index between
// mutations and asserts the next mutation's verification panics with the
// mutation named in the message.
func TestCheckedModePanicsOnCorruption(t *testing.T) {
	d := twoServerDC()
	d.SetChecked(true)
	s0 := d.Servers[0]
	if err := d.Activate(s0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(1, 500), s0); err != nil {
		t.Fatal(err)
	}

	// Corrupt: clear the index entry while the server still hosts the VM.
	d.byVM.clear(1)

	msg := mustPanic(t, func() {
		_ = d.Place(constVM(2, 500), s0)
	})
	if !strings.Contains(msg, "invariant violated after place") {
		t.Errorf("panic message %q does not name the mutation", msg)
	}
}

// TestCheckedModeOffToleratesCorruption pins the contract that the unchecked
// path never pays for verification: the same corruption goes unnoticed.
func TestCheckedModeOffToleratesCorruption(t *testing.T) {
	d := twoServerDC()
	d.SetChecked(false)
	s0 := d.Servers[0]
	if err := d.Activate(s0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Place(constVM(1, 500), s0); err != nil {
		t.Fatal(err)
	}
	d.byVM.clear(1)
	if err := d.Place(constVM(2, 500), s0); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRuntimeCleanFleet(t *testing.T) {
	d := twoServerDC()
	s0 := d.Servers[0]
	if err := d.Activate(s0, 0); err != nil {
		t.Fatal(err)
	}
	// Over-demand is legal (it is the paper's overload condition), just
	// accounted: 9000 MHz on an 8000 MHz server must still pass.
	if err := d.Place(constVM(1, 9000), s0); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckRuntime(30 * time.Minute); err != nil {
		t.Fatalf("CheckRuntime on a clean fleet: %v", err)
	}
}

func TestCheckRuntimeRejectsBadDemand(t *testing.T) {
	cases := []struct {
		name string
		mhz  float64
		want string
	}{
		{"negative", -5, "negative demand"},
		{"nan", math.NaN(), "non-finite demand"},
		{"inf", math.Inf(1), "non-finite demand"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := twoServerDC()
			s0 := d.Servers[0]
			if err := d.Activate(s0, 0); err != nil {
				t.Fatal(err)
			}
			if err := d.Place(constVM(1, tc.mhz), s0); err != nil {
				t.Fatal(err)
			}
			err := d.CheckRuntime(0)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckRuntime = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestCheckRuntimeRejectsDemandOnHibernated(t *testing.T) {
	d := twoServerDC()
	s0 := d.Servers[0]
	// Bypass the API to force the impossible state: a hibernated server
	// carrying a demanding VM.
	s0.insert(constVM(1, 500))
	err := d.CheckRuntime(0)
	if err == nil || !strings.Contains(err.Error(), "hibernated server") {
		t.Fatalf("CheckRuntime = %v, want hibernated-server error", err)
	}
}
