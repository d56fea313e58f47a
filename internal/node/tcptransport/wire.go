// Package tcptransport carries messages between ecod processes: a full mesh
// of TCP connections with a length-prefixed binary frame codec, over which
// node 0 calls the other processes to run the protocol's server handlers
// for the servers they own (internal/node), on loopback or a real network.
//
// The package is quarantined from the simulation core by ecolint's boundary
// rule: sim-critical packages must not import it, because it deals in wall
// clocks, goroutines and sockets — everything the deterministic core forbids.
package tcptransport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/netsim"
)

// Wire format. Every frame is
//
//	magic(2) version(1) bodyLen(4, big-endian) body
//
// and the body is
//
//	from(4) to(4) size(4) kindLen(1) kind payload
//
// where size is the message's logical byte count (what netsim's latency model
// and the Bytes counter see — a TRANSFER frame declares the VM's RAM bytes
// without shipping them), and payload is the kind-specific binary encoding.
// All integers are big-endian and fixed-width: the codec must be rejectable
// byte-by-byte without trusting any length it has not yet bounds-checked.
const (
	magic0 = 0xEC // "ecod"
	magic1 = 0x0D

	wireVersion = 1

	headerLen = 7

	// MaxBody bounds a frame body. A peer announcing more is malformed and
	// the connection is dropped before any allocation: a bad peer must never
	// panic or balloon a node.
	MaxBody = 1 << 20
)

// Marshaler is implemented by every payload that crosses the wire.
type Marshaler interface {
	// AppendWire appends the payload's binary encoding to b.
	AppendWire(b []byte) []byte
}

// Decoder turns a payload's wire bytes back into the typed value. It must
// consume exactly the bytes it is given.
type Decoder func(r *Reader) (any, error)

// Codec maps message kinds to payload decoders. Encoding needs no registry —
// payloads carry their own AppendWire — but decoding a kind the codec was
// never taught is a malformed frame, not a guess.
type Codec struct {
	dec map[string]Decoder
}

// NewCodec returns an empty codec.
func NewCodec() *Codec { return &Codec{dec: make(map[string]Decoder)} }

// Register installs the decoder for one message kind. Registering a kind
// twice is a programming error.
func (c *Codec) Register(kind string, d Decoder) {
	if kind == "" || len(kind) > math.MaxUint8 {
		panic(fmt.Sprintf("tcptransport: unusable kind %q", kind))
	}
	if d == nil {
		panic(fmt.Sprintf("tcptransport: nil decoder for kind %q", kind))
	}
	if _, dup := c.dec[kind]; dup {
		panic(fmt.Sprintf("tcptransport: duplicate decoder for kind %q", kind))
	}
	c.dec[kind] = d
}

// Kinds reports whether kind is known to the codec.
func (c *Codec) Kinds(kind string) bool { _, ok := c.dec[kind]; return ok }

// EncodeFrame serializes one message into a complete frame. The payload must
// be nil or a Marshaler; anything else is a programming error on the sending
// side and returns an error rather than crossing the wire corrupted.
func EncodeFrame(msg netsim.Message, c *Codec) ([]byte, error) {
	if !c.Kinds(msg.Kind) {
		return nil, fmt.Errorf("tcptransport: encode: unregistered kind %q", msg.Kind)
	}
	body := make([]byte, 0, 16+len(msg.Kind))
	body = AppendU32(body, uint32(int32(msg.From)))
	body = AppendU32(body, uint32(int32(msg.To)))
	body = AppendU32(body, uint32(int32(msg.Size)))
	body = append(body, byte(len(msg.Kind)))
	body = append(body, msg.Kind...)
	switch p := msg.Payload.(type) {
	case nil:
	case Marshaler:
		body = p.AppendWire(body)
	default:
		return nil, fmt.Errorf("tcptransport: encode %q: payload %T does not implement Marshaler", msg.Kind, msg.Payload)
	}
	if len(body) > MaxBody {
		return nil, fmt.Errorf("tcptransport: encode %q: body %d exceeds MaxBody %d", msg.Kind, len(body), MaxBody)
	}
	frame := make([]byte, 0, headerLen+len(body))
	frame = append(frame, magic0, magic1, wireVersion)
	frame = AppendU32(frame, uint32(len(body)))
	return append(frame, body...), nil
}

// DecodeFrame reads one frame from r and returns the decoded message.
// io.EOF at a frame boundary is returned as io.EOF; every other shortfall or
// inconsistency is an error that the caller must treat as a poisoned
// connection. DecodeFrame never panics on adversarial input.
func DecodeFrame(r io.Reader, c *Codec) (netsim.Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return netsim.Message{}, err // io.EOF here is a clean close
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return netsim.Message{}, unexpected(err)
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return netsim.Message{}, fmt.Errorf("tcptransport: bad magic %#02x%02x", hdr[0], hdr[1])
	}
	if hdr[2] != wireVersion {
		return netsim.Message{}, fmt.Errorf("tcptransport: wire version %d, want %d", hdr[2], wireVersion)
	}
	body := binary.BigEndian.Uint32(hdr[3:7])
	if body > MaxBody {
		return netsim.Message{}, fmt.Errorf("tcptransport: frame body %d exceeds MaxBody %d", body, MaxBody)
	}
	buf := make([]byte, body)
	if _, err := io.ReadFull(r, buf); err != nil {
		return netsim.Message{}, unexpected(err)
	}
	return decodeBody(buf, c)
}

// decodeBody parses a complete frame body. Split out so the fuzz target can
// hit the parser without a reader in the way.
func decodeBody(buf []byte, c *Codec) (netsim.Message, error) {
	rd := NewReader(buf)
	from := int32(rd.U32())
	to := int32(rd.U32())
	size := int32(rd.U32())
	kindLen := int(rd.U8())
	kind := string(rd.Take(kindLen))
	if err := rd.Err(); err != nil {
		return netsim.Message{}, fmt.Errorf("tcptransport: truncated body: %w", err)
	}
	dec, ok := c.dec[kind]
	if !ok {
		return netsim.Message{}, fmt.Errorf("tcptransport: unregistered kind %q", kind)
	}
	payload, err := dec(rd)
	if err != nil {
		return netsim.Message{}, fmt.Errorf("tcptransport: decode %q: %w", kind, err)
	}
	if err := rd.Err(); err != nil {
		return netsim.Message{}, fmt.Errorf("tcptransport: decode %q: %w", kind, err)
	}
	if rd.Len() != 0 {
		return netsim.Message{}, fmt.Errorf("tcptransport: decode %q: %d trailing bytes", kind, rd.Len())
	}
	return netsim.Message{
		From: netsim.NodeID(from), To: netsim.NodeID(to),
		Kind: kind, Payload: payload, Size: int(size),
	}, nil
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Reader is a sticky-error cursor over a payload's bytes. After the first
// shortfall every accessor returns zero values and Err reports the problem,
// so decoders can read a whole struct and check once.
type Reader struct {
	b   []byte
	err error
}

// NewReader wraps b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

// Len returns the unconsumed byte count.
func (r *Reader) Len() int { return len(r.b) }

func (r *Reader) fail(n int) {
	if r.err == nil {
		r.err = fmt.Errorf("need %d bytes, have %d", n, len(r.b))
	}
}

// Take consumes exactly n bytes. Negative or oversized n is a shortfall.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.fail(n)
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// U8 consumes one byte.
func (r *Reader) U8() uint8 {
	b := r.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 consumes a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.Take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 consumes a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.Take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 consumes a big-endian two's-complement int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 consumes an IEEE-754 float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes consumes a u32-length-prefixed byte slice. The length is bounds-
// checked against the remaining payload before any allocation.
func (r *Reader) Bytes() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if uint64(n) > uint64(len(r.b)) {
		r.fail(int(n))
		return nil
	}
	return r.Take(int(n))
}

// String consumes a u32-length-prefixed UTF-8 string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Append helpers, the writing mirror of Reader. All fixed-width big-endian.

// AppendU8 appends one byte.
func AppendU8(b []byte, v uint8) []byte { return append(b, v) }

// AppendU32 appends a big-endian uint32.
func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// AppendU64 appends a big-endian uint64.
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendI64 appends a big-endian two's-complement int64.
func AppendI64(b []byte, v int64) []byte { return AppendU64(b, uint64(v)) }

// AppendF64 appends an IEEE-754 float64.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendBytes appends a u32-length-prefixed byte slice.
func AppendBytes(b, v []byte) []byte { return append(AppendU32(b, uint32(len(v))), v...) }

// AppendString appends a u32-length-prefixed string.
func AppendString(b []byte, v string) []byte { return append(AppendU32(b, uint32(len(v))), v...) }
