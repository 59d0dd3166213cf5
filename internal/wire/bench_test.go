package wire

import (
	"testing"
)

func benchPacket() *Packet {
	return &Packet{
		Op: OpWrite, Flags: FlagFastPath,
		ObjID: 123456, Group: 3, Switch: 1,
		Seq:           Seq{Epoch: 2, N: 777},
		LastCommitted: Seq{Epoch: 2, N: 770},
		ClientID:      42, ReqID: 9001,
		Key:   "obj00001234",
		Value: []byte("sixteen byte val"),
	}
}

// TestValueNormalization pins the Clone/Decode contract: a zero-length
// value is canonically nil on every path, so comparing packets across
// an encode/decode round trip (or across clones) never trips over
// empty-vs-nil.
func TestValueNormalization(t *testing.T) {
	p := benchPacket()
	p.Value = []byte{}

	if q := p.Clone(); q.Value != nil {
		t.Fatalf("Clone of empty value = %#v, want nil", q.Value)
	}
	fc := p.FlightClone()
	if fc.Value != nil {
		t.Fatalf("FlightClone of empty value = %#v, want nil", fc.Value)
	}
	fc.Release()
	p.Own()
	if p.Value != nil {
		t.Fatalf("Own of empty value = %#v, want nil", p.Value)
	}

	enc, err := p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if q.Value != nil {
		t.Fatalf("decode of empty value = %#v, want nil", q.Value)
	}
}

// TestDecodeIntoOverwritesStaleViews pins the pooled-reuse guarantee:
// decoding a payload-free packet into a struct that previously held a
// key and value must not resurrect the old views.
func TestDecodeIntoOverwritesStaleViews(t *testing.T) {
	full := benchPacket()
	enc1, err := full.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	bare := &Packet{Op: OpRead, ObjID: 9}
	enc2, err := bare.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}

	var p Packet
	if _, err := DecodeInto(&p, enc1); err != nil {
		t.Fatal(err)
	}
	if p.Key != full.Key || string(p.Value) != string(full.Value) {
		t.Fatalf("first decode: %q %q", p.Key, p.Value)
	}
	if _, err := DecodeInto(&p, enc2); err != nil {
		t.Fatal(err)
	}
	if p.Key != "" || p.Value != nil {
		t.Fatalf("stale views survived reuse: key=%q value=%q", p.Key, p.Value)
	}
}

// TestDecodeIntoBorrowsAndOwnDetaches pins the borrow semantics:
// DecodeInto's value view aliases the input buffer, and Own breaks the
// alias.
func TestDecodeIntoBorrowsAndOwnDetaches(t *testing.T) {
	enc, err := benchPacket().Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	if _, err := DecodeInto(&p, enc); err != nil {
		t.Fatal(err)
	}
	valOff := len(enc) - len(p.Value)
	enc[valOff] ^= 0xff
	if p.Value[0] != enc[valOff] {
		t.Fatal("DecodeInto value does not borrow from the buffer")
	}
	enc[valOff] ^= 0xff

	p.Own()
	enc[valOff] ^= 0xff
	if p.Value[0] == enc[valOff] {
		t.Fatal("Own did not detach the value from the buffer")
	}
}

// TestEncodeZeroAllocs asserts the write fast path allocates nothing
// when the caller reuses an encode buffer.
func TestEncodeZeroAllocs(t *testing.T) {
	p := benchPacket()
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(1000, func() {
		out, err := p.Encode(buf[:0])
		if err != nil || len(out) == 0 {
			t.Fatal("encode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Encode into reused buffer: %.1f allocs/op, want 0", allocs)
	}
}

// TestDecodeIntoZeroAllocs asserts the read fast path allocates
// nothing: borrowed key and value views, no copies.
func TestDecodeIntoZeroAllocs(t *testing.T) {
	enc, err := benchPacket().Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := DecodeInto(&p, enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeInto: %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkEncode(b *testing.B) {
	p := benchPacket()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := p.Encode(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

func BenchmarkDecode(b *testing.B) {
	enc, err := benchPacket().Encode(nil)
	if err != nil {
		b.Fatal(err)
	}
	var p Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInto(&p, enc); err != nil {
			b.Fatal(err)
		}
	}
}
