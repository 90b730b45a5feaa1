package cluster

// Wire-level battery for the binary payload codec: golden byte vectors
// pin the binary format (any layout change must show up as a fixture
// diff and a frameVersion bump), fuzzing proves the decoders total,
// and AllocsPerRun locks the zero-allocation encode path.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"
)

// binaryGolden pins the exact wire bytes of every builtin binary tag.
// These fixtures are the compatibility contract: a mismatch means the
// format changed and frameVersion must bump (see TestFrameVersionPins
// below).
var binaryGolden = []struct {
	name string
	v    any
	hex  string
}{
	{"nil", nil, "00"},
	{"false", false, "01"},
	{"true", true, "02"},
	{"int", int(-2), "03feffffffffffffff"},
	{"int64", int64(7), "040700000000000000"},
	{"uint64", uint64(1) << 56, "050000000000000001"},
	{"float64", float64(1.5), "06000000000000f83f"},
	{"string", "hi", "07020000006869"},
	{"bytes", []byte{0xde, 0xad}, "0802000000dead"},
	{"floats", []float64{1, 2}, "0902000000000000000000f03f0000000000000040"},
	{"int64s", []int64{-1, 1}, "0a02000000ffffffffffffffff0100000000000000"},
	{"reldata", relData{Seq: 3, Tag: 9, Ack: 2, Payload: float64(0.5)},
		"0b03000000000000000900000000000000020000000000000006000000000000e03f"},
}

func TestBinaryGoldenVectors(t *testing.T) {
	for _, g := range binaryGolden {
		t.Run(g.name, func(t *testing.T) {
			got, err := AppendBinaryValue(nil, g.v)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			want, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatalf("bad fixture %q: %v", g.hex, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoding drifted from golden vector:\n got %x\nwant %x\n(a deliberate format change must bump frameVersion)", got, want)
			}
			back, n, err := DecodeBinaryValue(want)
			if err != nil {
				t.Fatalf("decode golden: %v", err)
			}
			if n != len(want) {
				t.Fatalf("decode consumed %d of %d bytes", n, len(want))
			}
			if !reflect.DeepEqual(back, g.v) {
				t.Fatalf("round trip: got %#v want %#v", back, g.v)
			}
		})
	}
}

// TestDataFrameGolden pins the full on-the-wire image of a TCP data
// frame: u32 length prefix, 34-byte v4 header, header CRC32C, binary
// payload, payload CRC32C.
func TestDataFrameGolden(t *testing.T) {
	f := Frame{Kind: frameData, Epoch: 1, Tag: 0xFA00000000000001, Seq: 5, From: 2, To: 3, Payload: float64(1.5)}
	got, err := appendDataFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := hex.DecodeString(
		"33000000" + // length prefix: 34B header + 4B hdr CRC + 9B body + 4B payload CRC
			"04" + // frame version 4
			"01" + // kind: data
			"0100000000000000" + // epoch
			"01000000000000fa" + // tag
			"0500000000000000" + // seq
			"02000000" + "03000000" + // from, to
			"23674104" + // CRC32C over prefix + header
			"06000000000000f83f" + // float64 1.5
			"a2e8c53f") // CRC32C over the payload
	if !bytes.Equal(got, want) {
		t.Fatalf("frame image drifted:\n got %x\nwant %x", got, want)
	}
	back, n, err := decodeFrame(got)
	if err != nil || n != len(got) {
		t.Fatalf("decodeFrame: n=%d err=%v", n, err)
	}
	v, err := DecodePayload(back.Wire)
	if err != nil || v != 1.5 {
		t.Fatalf("payload: %v %v", v, err)
	}
}

// TestFrameVersionPins documents the compatibility story: data-frame
// payloads grew a codec-ID prefix in v2, frames grew header and payload
// CRC32C fields in v3, and v4 dropped the codec-ID byte again (one
// codec), so an old peer parsing a new stream (or vice versa) would
// mis-read bytes. The version byte makes the mismatch a loud,
// immediate connection error instead.
func TestFrameVersionPins(t *testing.T) {
	if frameVersion != 4 {
		t.Fatalf("frameVersion = %d; golden vectors in this file pin version 4 — regenerate them with the bump", frameVersion)
	}
	f := Frame{Kind: frameData, From: 0, To: 1}
	for _, old := range []byte{2, 3} {
		b := appendFrame(nil, &f, nil)
		b[framePrefixLen] = old // an older sender's header
		if _, _, err := decodeFrame(b); err == nil {
			t.Fatalf("v%d frame accepted by v4 decoder", old)
		}
	}
}

func TestDecodePayloadDispatch(t *testing.T) {
	// Empty body: nil payload (barriers, heartbeats).
	if v, err := DecodePayload(nil); v != nil || err != nil {
		t.Fatalf("empty payload: %v %v", v, err)
	}
	// Unknown binary tag refuses.
	if _, err := DecodePayload([]byte{0x3E, 1, 2}); err == nil {
		t.Fatal("unknown binary tag accepted")
	}
	// Natively encoded and gob-fallback values both round-trip.
	type viaGob struct{ S string }
	RegisterWireType(viaGob{})
	for _, v := range []any{"ping", viaGob{S: "ping"}} {
		b, err := AppendBinaryValue(nil, v)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if got, err := DecodePayload(b); err != nil || got != v {
			t.Fatalf("%T: %v %v", v, got, err)
		}
	}
}

// TestBinaryGobFallback checks that a type without a registered binary
// encoding transparently rides the length-prefixed gob fallback.
func TestBinaryGobFallback(t *testing.T) {
	type fallbackOnly struct{ N int }
	RegisterWireType(fallbackOnly{})
	b, err := AppendBinaryValue(nil, fallbackOnly{N: 41})
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != binGob {
		t.Fatalf("unregistered type encoded with tag %#x, want gob fallback", b[0])
	}
	v, err := DecodePayload(b)
	if err != nil {
		t.Fatal(err)
	}
	if v.(fallbackOnly).N != 41 {
		t.Fatalf("fallback round trip: %#v", v)
	}
}

func TestBinaryDecodeStrict(t *testing.T) {
	b, _ := AppendBinaryValue(nil, int64(1))
	if _, err := DecodePayload(append(b, 0xCC)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, _, err := DecodeBinaryValue([]byte{binFloats, 0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("hostile count accepted")
	}
}

func FuzzPayloadCodec(f *testing.F) {
	for _, g := range binaryGolden {
		b, err := AppendBinaryValue(nil, g.v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A gob-fallback body (tag 0x3F), as an unregistered type travels.
	gb, _ := EncodeWire([]float64{1, 2, 3})
	f.Add(append(binary.LittleEndian.AppendUint32([]byte{binGob}, uint32(len(gb))), gb...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		// Decoders must be total: arbitrary bytes error, never panic,
		// and never allocate past the input length.
		v, err := DecodePayload(b)
		if err != nil {
			return
		}
		if len(b) == 0 {
			return
		}
		// Whatever decoded must reach a canonical fixed point: encode
		// it, decode that, encode again — the two encodings must match
		// byte for byte. (Comparing encodings instead of values keeps
		// NaN payloads and non-canonical inputs honest: DeepEqual
		// rejects NaN == NaN, and a fuzzed gob stream need not equal
		// its re-encoding.)
		re, err := AppendBinaryValue(nil, v)
		if err != nil {
			t.Fatalf("re-encode of decoded value %#v: %v", v, err)
		}
		v2, err := DecodePayload(re)
		if err != nil {
			t.Fatalf("decode of re-encoded value %#v: %v", v, err)
		}
		re2, err := AppendBinaryValue(nil, v2)
		if err != nil {
			t.Fatalf("second encode of %#v: %v", v2, err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("encoding not canonical:\n first %x\nsecond %x", re, re2)
		}
	})
}

// TestBinaryEncodeAllocs locks the zero-allocation steady state: with
// the payload value pre-boxed and the destination buffer reused (as
// the TCP send path does via its buffer pool), encoding must not
// allocate at all.
func TestBinaryEncodeAllocs(t *testing.T) {
	vals := make([]float64, 128)
	var boxed any = vals
	var rd any = relData{Seq: 1, Tag: 2, Ack: 3, Payload: boxed}
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		b, err := AppendBinaryValue(buf, boxed)
		if err != nil || len(b) == 0 {
			t.Fatal("encode failed")
		}
	}); n != 0 {
		t.Fatalf("[]float64 encode allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		b, err := AppendBinaryValue(buf, rd)
		if err != nil || len(b) == 0 {
			t.Fatal("encode failed")
		}
	}); n != 0 {
		t.Fatalf("relData encode allocates %v per run, want 0", n)
	}
	f := Frame{Kind: frameData, Epoch: 1, Tag: 2, Seq: 3, From: 0, To: 1, Payload: boxed}
	if n := testing.AllocsPerRun(100, func() {
		b, err := appendDataFrame(buf, &f)
		if err != nil || len(b) == 0 {
			t.Fatal("encode failed")
		}
	}); n != 0 {
		t.Fatalf("data-frame encode allocates %v per run, want 0", n)
	}
}

// TestBinaryDecodeAllocs bounds the decode side: boxing the result and
// materializing the slice are inherent (the value outlives the reused
// input buffer), but nothing beyond that.
func TestBinaryDecodeAllocs(t *testing.T) {
	b, _ := AppendBinaryValue(nil, make([]float64, 128))
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeBinaryValue(b); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("[]float64 decode allocates %v per run, want <= 2 (slice + interface box)", n)
	}
	s, _ := AppendBinaryValue(nil, float64(math.Pi))
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeBinaryValue(s); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("float64 decode allocates %v per run, want <= 1 (interface box)", n)
	}
}

// TestCodecRegistryGuards pins RegisterBinaryPayload's misuse panics.
func TestCodecRegistryGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	enc := func(dst []byte, v any) ([]byte, error) { return dst, nil }
	dec := func(b []byte) (any, int, error) { return nil, 0, nil }
	// The registry is process-global: put it back as found, so the test
	// can run again in the same binary (go test -count=N).
	binRegMu.Lock()
	savedTags, savedTypes := binByTag, make(map[reflect.Type]byte, len(binByType))
	for k, v := range binByType {
		savedTypes[k] = v
	}
	binRegMu.Unlock()
	t.Cleanup(func() {
		binRegMu.Lock()
		binByTag, binByType = savedTags, savedTypes
		binRegMu.Unlock()
	})
	mustPanic("reserved tag", func() { RegisterBinaryPayload(binRelData, struct{ X int }{}, enc, dec) })
	mustPanic("nil prototype", func() { RegisterBinaryPayload(0xFE, nil, enc, dec) })
	type once struct{ X int }
	RegisterBinaryPayload(0xFD, once{}, enc, dec)
	mustPanic("duplicate tag", func() { RegisterBinaryPayload(0xFD, struct{ Y int }{}, enc, dec) })
	mustPanic("duplicate type", func() { RegisterBinaryPayload(0xFC, once{}, enc, dec) })
}

// TestWireReaderBounds drives every reader method past the end of its
// input and checks the cursor goes Bad instead of panicking.
func TestWireReaderBounds(t *testing.T) {
	reads := map[string]func(r *WireReader){
		"u8":     func(r *WireReader) { r.U8() },
		"u32":    func(r *WireReader) { r.U32() },
		"u64":    func(r *WireReader) { r.U64() },
		"str":    func(r *WireReader) { r.Str() },
		"floats": func(r *WireReader) { r.Floats() },
		"value":  func(r *WireReader) { r.Value() },
	}
	for name, read := range reads {
		r := &WireReader{B: []byte{0xFF}}
		read(r)
		read(r) // second read past the end must stay safe
		if name != "u8" && r.Err() == nil {
			t.Errorf("%s on 1 byte: no error", name)
		}
	}
	// A hostile count cannot drive a huge allocation.
	r := &WireReader{B: []byte{0xFF, 0xFF, 0xFF, 0x7F}}
	if n := r.Count(8); n != 0 || r.Err() == nil {
		t.Fatalf("hostile count: n=%d err=%v", n, r.Err())
	}
}
