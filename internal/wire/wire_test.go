package wire

import (
	"testing"
	"testing/quick"
)

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

// TestValueNormalization pins the copy contract: a zero-length value is
// canonically nil on every path, so comparing packets across clones
// never trips over empty-vs-nil.
func TestValueNormalization(t *testing.T) {
	p := &Packet{Op: OpWrite, ObjID: 123456, ClientID: 42, ReqID: 9001, Value: []byte{}}
	if q := p.Clone(); q.Value != nil {
		t.Fatalf("Clone of empty value = %#v, want nil", q.Value)
	}
	fc := p.FlightClone()
	if fc.Value != nil {
		t.Fatalf("FlightClone of empty value = %#v, want nil", fc.Value)
	}
	fc.Release()
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
