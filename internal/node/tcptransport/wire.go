// Package tcptransport carries ecod's calls: a star of TCP links on which
// node 0 calls each serving process and blocks for its reply
// (internal/node), on loopback or a real network. A link carries one frame
// at a time on its caller's goroutine.
//
// The package is quarantined from the simulation core by ecolint's boundary
// rule: sim-critical packages must not import it, because it deals in wall
// clocks and sockets — everything the deterministic core forbids.
package tcptransport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Kind is a frame's kind. A link opens with a hello in each direction;
// after it node 0 sends calls, and the serving process answers each with
// its result, or with failed and the error's text.
type Kind byte

const (
	Hello Kind = iota + 1
	Call
	Result
	Failed
)

// Wire format. Every frame is
//
//	magic(2) version(1) kind(1) len(4, big-endian) payload
//
// The header is checked byte by byte before any length is trusted, and a
// payload longer than MaxBody is refused before it is read or allocated: a
// bad peer costs its link, never a panic or a ballooned node.
const (
	magic0 = 0xEC // "ecod"
	magic1 = 0x0D

	wireVersion = 2

	headerLen = 8

	// MaxBody bounds a frame's payload.
	MaxBody = 1 << 20
)

// appendFrame appends one frame of the kind carrying payload to b.
func appendFrame(b []byte, kind Kind, payload []byte) ([]byte, error) {
	if kind < Hello || kind > Failed {
		return b, fmt.Errorf("tcptransport: frame kind %d", kind)
	}
	if len(payload) > MaxBody {
		return b, fmt.Errorf("tcptransport: payload %d exceeds MaxBody %d", len(payload), MaxBody)
	}
	b = append(b, magic0, magic1, wireVersion, byte(kind))
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...), nil
}

// readFrame reads one frame from r. Its payload is read into buf, grown
// when too short, and is valid until buf is reused. io.EOF before the
// first byte is returned as io.EOF, a clean close; every other shortfall
// or inconsistency is an error after which the stream is unusable.
func readFrame(r io.Reader, buf []byte) (Kind, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	kind := Kind(hdr[3])
	n := binary.BigEndian.Uint32(hdr[4:])
	switch {
	case hdr[0] != magic0 || hdr[1] != magic1:
		return 0, nil, fmt.Errorf("tcptransport: bad magic %#02x%02x", hdr[0], hdr[1])
	case hdr[2] != wireVersion:
		return 0, nil, fmt.Errorf("tcptransport: wire version %d, want %d", hdr[2], wireVersion)
	case kind < Hello || kind > Failed:
		return 0, nil, fmt.Errorf("tcptransport: frame kind %d", kind)
	case n > MaxBody:
		return 0, nil, fmt.Errorf("tcptransport: payload %d exceeds MaxBody %d", n, MaxBody)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return kind, buf, nil
}
