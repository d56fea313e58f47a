package tcptransport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
)

func mustFrame(t testing.TB, kind Kind, payload []byte) []byte {
	t.Helper()
	b, err := appendFrame(nil, kind, payload)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

func TestWireRoundTrip(t *testing.T) {
	// Every kind, back to back on one stream, one of them empty; the stream
	// then reports a clean EOF, not an error.
	frames := []struct {
		kind    Kind
		payload []byte
	}{
		{Hello, bytes.Repeat([]byte{7}, helloLen)},
		{Call, []byte("call: virtual time, mutations, work")},
		{Result, []byte{}},
		{Failed, []byte("protocol: work tag 9")},
	}
	var stream []byte
	for _, f := range frames {
		stream = append(stream, mustFrame(t, f.kind, f.payload)...)
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i, want := range frames {
		kind, payload, err := readFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != want.kind || !bytes.Equal(payload, want.payload) {
			t.Fatalf("frame %d: got kind %d %q, want kind %d %q", i, kind, payload, want.kind, want.payload)
		}
		buf = payload
	}
	if _, _, err := readFrame(r, buf); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestWireNilPayload(t *testing.T) {
	frame := mustFrame(t, Call, nil)
	if len(frame) != headerLen {
		t.Fatalf("a frame with no payload is %d bytes, want the %d-byte header", len(frame), headerLen)
	}
	kind, payload, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil || kind != Call || len(payload) != 0 {
		t.Fatalf("got kind %d, payload %q, err %v", kind, payload, err)
	}
}

func TestWireEncodeRejects(t *testing.T) {
	for _, kind := range []Kind{0, Failed + 1} {
		if _, err := appendFrame(nil, kind, nil); err == nil {
			t.Errorf("kind %d encoded", kind)
		}
	}
	// Write refuses an oversize payload before it touches the connection
	// (closed here, so a write would fail otherwise), and does not count it.
	a, b := net.Pipe()
	a.Close()
	b.Close()
	l := &Link{conn: a}
	if err := l.Write(Call, make([]byte, MaxBody+1)); err == nil || !strings.Contains(err.Error(), "MaxBody") {
		t.Fatalf("oversize payload must not be written, got %v", err)
	}
	if frames, n := l.Stats(); frames != 0 || n != 0 {
		t.Fatalf("a refused write counted: %d frames, %d bytes", frames, n)
	}
}

// headerOnly is a frame's header followed by a test failure: a decoder
// that reads past it has trusted a header it should have refused.
type headerOnly struct {
	t *testing.T
	r io.Reader
}

func (h headerOnly) Read(p []byte) (int, error) {
	if n, err := h.r.Read(p); n > 0 || err != io.EOF {
		return n, err
	}
	h.t.Fatal("read past the header of a frame that should have been refused")
	return 0, io.EOF
}

// TestWireDecodeRejectsMalformed is the bad-peer battery: every corrupted
// frame must come back as an error — never a panic, never a silent success
// — and a bad header is refused before its payload is read.
func TestWireDecodeRejectsMalformed(t *testing.T) {
	good := mustFrame(t, Call, []byte("xyz"))
	refuse := func(name string, mutate func(b []byte) []byte) {
		t.Helper()
		hdr := mutate(append([]byte{}, good...))[:headerLen]
		if _, _, err := readFrame(headerOnly{t, bytes.NewReader(hdr)}, nil); err == nil {
			t.Errorf("%s: decode accepted a malformed frame", name)
		}
	}
	refuse("bad magic", func(b []byte) []byte { b[0] = 'x'; return b })
	refuse("bad version", func(b []byte) []byte { b[2] = 99; return b })
	refuse("kind 0", func(b []byte) []byte { b[3] = 0; return b })
	refuse("unknown kind", func(b []byte) []byte { b[3] = byte(Failed + 1); return b })
	refuse("oversize announcement", func(b []byte) []byte {
		binary.BigEndian.PutUint32(b[4:], MaxBody+1)
		return b
	})
	// A frame of the previous wire version: magic, version 1, a 4-byte body
	// length and no kind byte.
	refuse("version 1 frame", func([]byte) []byte {
		return []byte{magic0, magic1, 1, 0, 0, 0, 4, 0, 0, 0, 1}
	})
	for name, b := range map[string][]byte{
		"truncated header":  good[:5],
		"truncated payload": good[:len(good)-1],
	} {
		if _, _, err := readFrame(bytes.NewReader(b), nil); err != io.ErrUnexpectedEOF {
			t.Errorf("%s: got %v, want io.ErrUnexpectedEOF", name, err)
		}
	}
}

// FuzzWireCodec feeds arbitrary bytes to the frame decoder, the first code
// to read what another process sends. readFrame returns a frame or an
// error, never panics, and an accepted frame re-encodes to the bytes it was
// read from (the codec is canonical).
func FuzzWireCodec(f *testing.F) {
	f.Add(mustFrame(f, Call, []byte{1, 2, 3}))
	f.Add(mustFrame(f, Result, nil))
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, wireVersion, byte(Hello), 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := readFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		re, err := appendFrame(nil, kind, payload)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data[:len(re)], re)
		}
	})
}
