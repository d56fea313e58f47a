// Package wallclock exercises the wallclock rule: reading the host clock in
// sim-critical code. Lines carrying a want marker expect a diagnostic of the
// named rule; a comment-only marker line expects it on the following line.
package wallclock

import "time"

// Bad reads the host clock three different ways.
func Bad() time.Duration {
	start := time.Now()          // want wallclock
	time.Sleep(time.Millisecond) // want wallclock
	return time.Since(start)     // want wallclock
}

// BadTicker constructs a host-clock ticker.
func BadTicker() {
	t := time.NewTicker(time.Second) // want wallclock
	t.Stop()
}

// Good advances virtual time only: Duration arithmetic never observes the
// host clock.
func Good(now time.Duration) time.Duration { return now + 5*time.Minute }

// Later compares two instants: the method time.Time.After is pure, unlike
// the package function time.After, which starts a host-clock timer.
func Later(a, b time.Time) bool { return a.After(b) }

// Allowed is genuinely wall-clock and annotated at the call site.
func Allowed() time.Time {
	return time.Now() //ecolint:allow wallclock — fixture: annotated heartbeat
}

// DocAllowed is waived wholesale by a doc-comment directive.
//
//ecolint:allow wallclock — fixture: progress reporters own wall time
func DocAllowed() {
	time.Sleep(time.Millisecond)
	_ = time.Now()
}
