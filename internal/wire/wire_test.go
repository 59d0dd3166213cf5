package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// decode is DecodeInto into a fresh packet that owns its payload.
func decode(b []byte) (*Packet, int, error) {
	p := &Packet{}
	n, err := DecodeInto(p, b)
	p.Own()
	return p, n, err
}

func TestSeqOrdering(t *testing.T) {
	cases := []struct {
		a, b Seq
		less bool
	}{
		{Seq{1, 1}, Seq{1, 2}, true},
		{Seq{1, 2}, Seq{1, 1}, false},
		{Seq{1, 99}, Seq{2, 1}, true}, // epoch dominates
		{Seq{2, 1}, Seq{1, 99}, false},
		{Seq{1, 1}, Seq{1, 1}, false},
		{ZeroSeq, Seq{1, 1}, true},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

func TestSeqLessEqReflexive(t *testing.T) {
	s := Seq{3, 7}
	if !s.LessEq(s) {
		t.Fatal("LessEq not reflexive")
	}
}

func TestSeqMax(t *testing.T) {
	a, b := Seq{1, 5}, Seq{2, 1}
	if a.Max(b) != b || b.Max(a) != b {
		t.Fatal("Max wrong")
	}
}

// Property: Less is a strict total order consistent with LessEq.
func TestSeqOrderProperty(t *testing.T) {
	f := func(e1 uint32, n1 uint64, e2 uint32, n2 uint64) bool {
		a, b := Seq{e1, n1}, Seq{e2, n2}
		// exactly one of a<b, b<a, a==b
		cnt := 0
		if a.Less(b) {
			cnt++
		}
		if b.Less(a) {
			cnt++
		}
		if a == b {
			cnt++
		}
		if cnt != 1 {
			return false
		}
		return a.LessEq(b) == !b.Less(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeqOrderTransitive(t *testing.T) {
	f := func(e1 uint32, n1 uint64, e2 uint32, n2 uint64, e3 uint32, n3 uint64) bool {
		a, b, c := Seq{e1, n1}, Seq{e2, n2}, Seq{e3, n3}
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashKeyStable(t *testing.T) {
	if HashKey("user:1001") != HashKey("user:1001") {
		t.Fatal("HashKey not deterministic")
	}
	if HashKey("a") == HashKey("b") {
		t.Fatal("trivially distinct keys collide")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := &Packet{
		Op:            OpWrite,
		Flags:         FlagDelete | FlagFastPath,
		ObjID:         0xDEADBEEF,
		Switch:        5,
		Seq:           Seq{3, 1234567},
		LastCommitted: Seq{2, 99},
		ClientID:      17,
		ReqID:         0xABCDEF,
		Key:           "some-key",
		Value:         []byte("hello world"),
	}
	b, err := p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	q, n, err := decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d bytes", n, len(b))
	}
	if q.Op != p.Op || q.Flags != p.Flags || q.ObjID != p.ObjID ||
		q.Switch != p.Switch ||
		q.Seq != p.Seq || q.LastCommitted != p.LastCommitted ||
		q.ClientID != p.ClientID || q.ReqID != p.ReqID ||
		q.Key != p.Key || !bytes.Equal(q.Value, p.Value) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", p, q)
	}
}

func TestEncodeDecodeEmptyFields(t *testing.T) {
	p := &Packet{Op: OpRead, ObjID: 1}
	b, err := p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.Key != "" || q.Value != nil {
		t.Fatalf("empty fields not preserved: %+v", q)
	}
}

// Property: Encode/Decode is the identity for arbitrary packets.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(op uint8, flags uint8, obj uint32, sw uint8, se uint32, sn uint64,
		le uint32, ln uint64, cid uint32, rid uint64, key string, val []byte) bool {
		p := &Packet{
			Op:            Op(op%5 + 1),
			Flags:         Flags(flags),
			ObjID:         ObjectID(obj),
			Switch:        sw,
			Seq:           Seq{se, sn},
			LastCommitted: Seq{le, ln},
			ClientID:      cid,
			ReqID:         rid,
			Key:           key,
			Value:         val,
		}
		b, err := p.Encode(nil)
		if err != nil {
			return len(key) > MaxKeyLen
		}
		q, n, err := decode(b)
		if err != nil || n != len(b) {
			return false
		}
		if len(val) == 0 && q.Value != nil {
			return false
		}
		return q.Op == p.Op && q.Flags == p.Flags && q.ObjID == p.ObjID &&
			q.Switch == p.Switch &&
			q.Seq == p.Seq && q.LastCommitted == p.LastCommitted &&
			q.ClientID == p.ClientID && q.ReqID == p.ReqID &&
			q.Key == p.Key && bytes.Equal(q.Value, p.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := decode(nil); err == nil {
		t.Fatal("nil input accepted")
	}
	if _, _, err := decode(make([]byte, 10)); err == nil {
		t.Fatal("short input accepted")
	}
	p := &Packet{Op: OpRead, Key: "k", Value: []byte("v")}
	b, _ := p.Encode(nil)
	for cut := 1; cut < len(b); cut++ {
		if _, _, err := decode(b[:len(b)-cut]); err == nil {
			t.Fatalf("truncation by %d accepted", cut)
		}
	}
	b[0] = 0 // invalid op
	if _, _, err := decode(b); err != ErrBadOp {
		t.Fatalf("bad op error = %v", err)
	}
}

// stale is a packet as the pool might hand it back: every field set by
// a previous incarnation.
func stale() *Packet {
	return &Packet{
		Op: OpWriteReply, Flags: FlagDelete, ObjID: 77, Group: 3, Switch: 2,
		Seq: Seq{9, 9}, LastCommitted: Seq{8, 8}, ClientID: 5, ReqID: 6, Span: 7,
		Key: "stale-key", Value: []byte("stale-value"), refs: 1,
	}
}

// within reports whether the n bytes at p lie inside b.
func within(p unsafe.Pointer, n int, b []byte) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return uintptr(p) >= lo && uintptr(p)+uintptr(n) <= lo+uintptr(len(b))
}

// FuzzDecodeInto holds DecodeInto to its contract on arbitrary bytes:
// it never panics; a failed decode leaves the (pooled, stale) packet
// exactly as it was; a successful one borrows Key and Value from inside
// the bytes it consumed, leaves no field of the previous incarnation
// behind, and re-encodes to those bytes. The same input read as a
// packet's fields round-trips through Encode and DecodeInto.
func FuzzDecodeInto(f *testing.F) {
	for _, p := range []*Packet{
		{Op: OpRead, ObjID: 1},
		{Op: OpWrite, Flags: FlagDelete, ObjID: 0xDEADBEEF, Group: 4, Switch: 5, Seq: Seq{3, 1234567},
			LastCommitted: Seq{2, 99}, ClientID: 17, ReqID: 0xABCDEF, Key: "some-key", Value: []byte("hello world")},
	} {
		b, _ := p.Encode(nil)
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(b[:headerSize+2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := stale()
		n, err := DecodeInto(p, data)
		if err != nil {
			if !reflect.DeepEqual(p, stale()) {
				t.Fatalf("failed decode (%v) changed the packet: %+v", err, p)
			}
		} else {
			if n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			if len(p.Key) > 0 && !within(unsafe.Pointer(unsafe.StringData(p.Key)), len(p.Key), data[:n]) {
				t.Fatal("Key points outside the decoded bytes")
			}
			if len(p.Value) > 0 && (!within(unsafe.Pointer(unsafe.SliceData(p.Value)), len(p.Value), data[:n]) || cap(p.Value) != len(p.Value)) {
				t.Fatal("Value reaches outside the decoded bytes")
			}
			if p.Value != nil && len(p.Value) == 0 || p.Span != 0 || p.refs != 1 {
				t.Fatalf("decoded packet kept state of its previous incarnation: %+v", p)
			}
			if b, err := p.Encode(nil); err != nil || !bytes.Equal(b, data[:n]) {
				t.Fatalf("re-encoding gives %x, %v; decoded %x", b, err, data[:n])
			}
		}

		// The input as fields: a header's worth of bytes, then key and
		// value split at a byte-chosen point.
		if len(data) < headerSize {
			return
		}
		rest := data[headerSize:]
		split := 0
		if len(rest) > 0 {
			split = int(rest[0]) % (len(rest) + 1)
		}
		in := &Packet{
			Op: Op(data[0]%5 + 1), Flags: Flags(data[1]), ObjID: ObjectID(binary.BigEndian.Uint32(data[2:])),
			Group: binary.BigEndian.Uint16(data[6:]), Switch: data[8],
			Seq:           Seq{binary.BigEndian.Uint32(data[9:]), binary.BigEndian.Uint64(data[13:])},
			LastCommitted: Seq{binary.BigEndian.Uint32(data[21:]), binary.BigEndian.Uint64(data[25:])},
			ClientID:      binary.BigEndian.Uint32(data[33:]), ReqID: binary.BigEndian.Uint64(data[37:]),
			Key: string(rest[:split]), Value: rest[split:],
		}
		b, err := in.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		out := stale()
		if n, err := DecodeInto(out, b); err != nil || n != len(b) {
			t.Fatalf("decoding an encoding: %d of %d bytes, %v", n, len(b), err)
		}
		out.refs = 0
		if len(in.Value) == 0 {
			in.Value = nil
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip:\n in=%+v\nout=%+v", in, out)
		}
	})
}

func TestEncodeBadOp(t *testing.T) {
	p := &Packet{Op: 0}
	if _, err := p.Encode(nil); err != ErrBadOp {
		t.Fatalf("err = %v, want ErrBadOp", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := &Packet{Op: OpWrite, Value: []byte{1, 2, 3}}
	q := p.Clone()
	q.Value[0] = 9
	if p.Value[0] != 1 {
		t.Fatal("Clone aliases Value")
	}
}

func TestIsReply(t *testing.T) {
	if (&Packet{Op: OpRead}).IsReply() || !(&Packet{Op: OpReadReply}).IsReply() {
		t.Fatal("IsReply wrong")
	}
}

func TestOpString(t *testing.T) {
	for op := OpRead; op <= OpWriteReply; op++ {
		if op.String() == "" {
			t.Fatalf("empty string for op %d", op)
		}
	}
	if Op(99).String() != "Op(99)" {
		t.Fatal("unknown op string")
	}
}

func TestSlotOfRangeAndStability(t *testing.T) {
	for i := 0; i < 100000; i++ {
		id := ObjectID(uint32(i) * 2654435761)
		s := SlotOf(id)
		if s < 0 || s >= NumSlots {
			t.Fatalf("SlotOf(%d) = %d out of range", id, s)
		}
		if SlotOf(id) != s {
			t.Fatal("SlotOf not deterministic")
		}
	}
}

func TestSlotOfCoversAllSlots(t *testing.T) {
	seen := make([]bool, NumSlots)
	for i := 0; i < 200000; i++ {
		seen[SlotOf(ObjectID(uint32(i)*2654435761+7))] = true
	}
	for s, ok := range seen {
		if !ok {
			t.Fatalf("slot %d never hit", s)
		}
	}
}

func TestGroupOfComposesSlotRouting(t *testing.T) {
	// The static mapping must be exactly the slot hash composed with
	// the default striping — the invariant that makes a fresh slot
	// table behave identically to the pre-rebalancing static hash.
	for i := 0; i < 10000; i++ {
		id := ObjectID(uint32(i) * 2654435761)
		for _, n := range []int{1, 2, 3, 4, 8} {
			if got, want := GroupOf(id, n), DefaultGroupOfSlot(SlotOf(id), n); got != want {
				t.Fatalf("GroupOf(%d, %d) = %d, want %d", id, n, got, want)
			}
		}
	}
	if DefaultGroupOfSlot(17, 0) != 0 || DefaultGroupOfSlot(17, 1) != 0 {
		t.Fatal("degenerate group counts must map to 0")
	}
}
