package wire

import "testing"

// TestRefcountLifecycle pins the managed-packet lifecycle: NewPacket
// hands out one reference, Retain adds holders, Release at zero parks
// the struct in the pool, and any further use panics via the freed
// sentinel.
func TestRefcountLifecycle(t *testing.T) {
	p := NewPacket()
	if !p.Managed() {
		t.Fatal("NewPacket not managed")
	}
	p.Retain()
	p.Release()
	if !p.Managed() {
		t.Fatal("packet freed with a holder outstanding")
	}
	p.Release()
	if p.Managed() {
		t.Fatal("packet still managed after final release")
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on freed packet did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Release", func() { p.Release() })
	mustPanic("Retain", func() { p.Retain() })
	mustPanic("FlightClone", func() { p.FlightClone() })
}

// TestRefcountUnmanaged pins that literal packets and Clone results
// sit outside the pool lifecycle: Retain and
// Release are no-ops, so shared code paths need no special casing.
func TestRefcountUnmanaged(t *testing.T) {
	lit := &Packet{Op: OpRead, ObjID: 7}
	if lit.Managed() {
		t.Fatal("literal packet claims to be managed")
	}
	lit.Retain()
	lit.Release()
	lit.Release()
	if lit.Op != OpRead || lit.ObjID != 7 {
		t.Fatal("Release mutated an unmanaged packet")
	}

	m := NewPacket()
	m.Op = OpWrite
	m.Retain() // two holders
	if c := m.Clone(); c.Managed() {
		t.Fatal("Clone of a managed packet is managed")
	}
	m.Release()
	m.Release()
}

// TestFlightClone pins the per-transmission copy: a pooled header copy
// sharing the payload, holding one fresh reference, leaving the source
// count untouched, and normalizing empty values to nil.
func TestFlightClone(t *testing.T) {
	src := &Packet{Op: OpWrite, ObjID: 3, Key: "k", Value: []byte{1, 2}}
	fc := src.FlightClone()
	if !fc.Managed() {
		t.Fatal("FlightClone not managed")
	}
	if fc.Op != src.Op || fc.ObjID != src.ObjID || fc.Key != src.Key {
		t.Fatal("FlightClone header mismatch")
	}
	if &fc.Value[0] != &src.Value[0] {
		t.Fatal("FlightClone copied the payload instead of sharing it")
	}
	if src.Managed() {
		t.Fatal("FlightClone changed the source's management state")
	}
	fc.Release()

	empty := &Packet{Op: OpRead, Value: []byte{}}
	fc2 := empty.FlightClone()
	if fc2.Value != nil {
		t.Fatal("FlightClone did not normalize empty value to nil")
	}
	fc2.Release()

	// A pool round trip must hand back a zeroed packet with one ref.
	again := NewPacket()
	if again.Op != 0 || again.Key != "" || again.Value != nil || !again.Managed() {
		t.Fatalf("pooled packet not reset: %+v", again)
	}
	again.Release()
}
