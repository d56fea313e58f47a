package tcptransport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"time"
)

// Identity names a link: the serving process's node index, with the hash
// of the cluster config and the seed of the run. Both ends send it in their
// hello, and a link forms only when the two are equal, so a process of
// another run, or one found at another node's address, is refused. This is
// the whole join protocol.
type Identity struct {
	Node int
	Hash [32]byte
	Seed uint64
}

const (
	helloLen         = 4 + 32 + 8
	handshakeTimeout = 5 * time.Second
	backoffFloor     = 100 * time.Millisecond
	backoffCeil      = 2 * time.Second
)

// Link is one end of the TCP connection between node 0 and a serving
// process. It is not safe for concurrent use: its owner writes a frame and
// reads the answer on its own goroutine.
type Link struct {
	conn       net.Conn
	wbuf, rbuf []byte
	frames     int
	bytes      int64
}

// Dial opens node 0's link to the serving process id names, at addr. A
// failed or refused attempt is retried after a backoff that doubles from
// 100 ms to 2 s, until timeout has passed.
//
//ecolint:allow wallclock — the dial backoff and timeout pace a real socket; no simulation decision reads them
func Dial(addr string, id Identity, timeout time.Duration) (*Link, error) {
	deadline := time.Now().Add(timeout)
	backoff := backoffFloor
	for {
		conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
		if err == nil {
			l := &Link{conn: conn}
			if err = l.handshake(id, true, deadline); err == nil {
				return l, nil
			}
			conn.Close()
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("tcptransport: node %d at %s not connected after %v: %w", id.Node, addr, timeout, err)
		}
		time.Sleep(backoff)
		backoff = min(2*backoff, backoffCeil)
	}
}

// Accept waits on ln, whose deadline it sets, for node 0 to open the link
// id names. A connection whose hello differs is closed, and Accept waits
// for the next one until timeout has passed.
//
//ecolint:allow wallclock — the accept timeout bounds a real listener; no simulation decision reads it
func Accept(ln net.Listener, id Identity, timeout time.Duration) (*Link, error) {
	deadline := time.Now().Add(timeout)
	dl, ok := ln.(interface{ SetDeadline(time.Time) error })
	if !ok {
		return nil, fmt.Errorf("tcptransport: node %d: listener %T has no deadline", id.Node, ln)
	}
	if err := dl.SetDeadline(deadline); err != nil {
		return nil, err
	}
	var refused error
	for {
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("tcptransport: node %d: node 0 not connected after %v: %w (last refused: %v)", id.Node, timeout, err, refused)
		}
		l := &Link{conn: conn}
		if refused = l.handshake(id, false, deadline); refused == nil {
			return l, nil
		}
		conn.Close()
	}
}

// handshake exchanges hellos, the dialer's first. The acceptor answers only
// a hello equal to its own, and the dialer checks the answer the same way.
//
//ecolint:allow wallclock — a handshake deadline on a real socket; no simulation decision reads it
func (l *Link) handshake(id Identity, dialer bool, deadline time.Time) error {
	if t := time.Now().Add(handshakeTimeout); t.Before(deadline) {
		deadline = t
	}
	if err := l.conn.SetDeadline(deadline); err != nil {
		return err
	}
	hello := binary.BigEndian.AppendUint32(make([]byte, 0, helloLen), uint32(int32(id.Node)))
	hello = append(hello, id.Hash[:]...)
	hello = binary.BigEndian.AppendUint64(hello, id.Seed)
	if dialer {
		if err := l.write(Hello, hello); err != nil {
			return err
		}
	}
	kind, got, err := readFrame(l.conn, nil)
	switch {
	case err != nil:
		return err
	case kind != Hello || len(got) != helloLen:
		return fmt.Errorf("tcptransport: malformed hello")
	case !bytes.Equal(got[:4], hello[:4]):
		return fmt.Errorf("tcptransport: hello names node %d, want node %d", int32(binary.BigEndian.Uint32(got)), id.Node)
	case !bytes.Equal(got[4:36], id.Hash[:]):
		return fmt.Errorf("tcptransport: node %d built from a different cluster config", id.Node)
	case !bytes.Equal(got, hello):
		return fmt.Errorf("tcptransport: node %d runs seed %d, want %d", id.Node, binary.BigEndian.Uint64(got[36:]), id.Seed)
	}
	if !dialer {
		if err := l.write(Hello, hello); err != nil {
			return err
		}
	}
	return l.conn.SetDeadline(time.Time{})
}

// Write sends one frame. Frames written after the handshake count in
// Stats.
func (l *Link) Write(kind Kind, payload []byte) error {
	if err := l.write(kind, payload); err != nil {
		return err
	}
	l.frames++
	l.bytes += int64(len(payload))
	return nil
}

func (l *Link) write(kind Kind, payload []byte) error {
	b, err := appendFrame(l.wbuf[:0], kind, payload)
	if err != nil {
		return err
	}
	l.wbuf = b
	_, err = l.conn.Write(b)
	return err
}

// Read returns the next frame. Its payload is valid until the next Read. A
// peer that closed the link between frames reads as io.EOF.
func (l *Link) Read() (Kind, []byte, error) {
	kind, payload, err := readFrame(l.conn, l.rbuf)
	if err == nil {
		l.rbuf = payload
	}
	return kind, payload, err
}

// Stats returns the frames written since the handshake and the sum of
// their payload bytes.
func (l *Link) Stats() (frames int, bytes int64) { return l.frames, l.bytes }

// Close closes the link. The peer's next Read fails.
func (l *Link) Close() error { return l.conn.Close() }
