package tcptransport

import (
	"io"
	"net"
	"testing"
	"time"
)

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// accept runs Accept on its own goroutine and delivers the result.
func accept(ln net.Listener, id Identity, timeout time.Duration) <-chan acceptResult {
	ch := make(chan acceptResult, 1)
	go func() {
		l, err := Accept(ln, id, timeout)
		ch <- acceptResult{l, err}
	}()
	return ch
}

type acceptResult struct {
	l   *Link
	err error
}

func TestLinkCarriesFrames(t *testing.T) {
	ln := listen(t)
	id := Identity{Node: 1, Hash: [32]byte{1, 2, 3}, Seed: 99}
	accepted := accept(ln, id, 5*time.Second)
	caller, err := Dial(ln.Addr().String(), id, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	a := <-accepted
	if a.err != nil {
		t.Fatal(a.err)
	}
	callee := a.l

	if err := caller.Write(Call, []byte("req")); err != nil {
		t.Fatal(err)
	}
	if kind, req, err := callee.Read(); err != nil || kind != Call || string(req) != "req" {
		t.Fatalf("callee read kind %d %q, %v", kind, req, err)
	}
	if err := callee.Write(Result, []byte("res!")); err != nil {
		t.Fatal(err)
	}
	if kind, res, err := caller.Read(); err != nil || kind != Result || string(res) != "res!" {
		t.Fatalf("caller read kind %d %q, %v", kind, res, err)
	}
	// Stats count the frames after the handshake and their payload bytes.
	if frames, n := caller.Stats(); frames != 1 || n != 3 {
		t.Fatalf("caller stats (%d, %d), want (1, 3)", frames, n)
	}
	if frames, n := callee.Stats(); frames != 1 || n != 4 {
		t.Fatalf("callee stats (%d, %d), want (1, 4)", frames, n)
	}
	// A closed link reads as io.EOF at once on the other end.
	callee.Close()
	if _, _, err := caller.Read(); err != io.EOF {
		t.Fatalf("read from a closed link: %v, want io.EOF", err)
	}
}

// TestHandshakeRejectsForeignRun is the coordinator-free join check: a
// process of another run, or one found at another node's address, never
// forms a link. The acceptor refuses the hello, the dialer retries, and
// both give up by their timeout.
func TestHandshakeRejectsForeignRun(t *testing.T) {
	want := Identity{Node: 1, Hash: [32]byte{1, 2, 3}, Seed: 99}
	for name, dialed := range map[string]Identity{
		"seed":        {Node: 1, Hash: want.Hash, Seed: 98},
		"config hash": {Node: 1, Hash: [32]byte{1, 2, 4}, Seed: 99},
		"node":        {Node: 2, Hash: want.Hash, Seed: 99},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const timeout = 700 * time.Millisecond
			ln := listen(t)
			accepted := accept(ln, want, timeout)
			l, err := Dial(ln.Addr().String(), dialed, timeout)
			if err == nil {
				l.Close()
				t.Fatal("dial formed a link with a foreign process")
			}
			select {
			case a := <-accepted:
				if a.err == nil {
					a.l.Close()
					t.Fatal("accept formed a link with a foreign process")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("accept did not give up by its timeout")
			}
		})
	}
}
