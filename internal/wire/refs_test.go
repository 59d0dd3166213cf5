package wire

import (
	"testing"
	"unsafe"
)

// TestRefcountLifecycle pins the managed-packet lifecycle: a Pool hands
// out one reference, Retain adds holders, Release at zero parks the
// struct in the pool, any further use panics via the freed sentinel,
// and the pool's live count follows every reference.
func TestRefcountLifecycle(t *testing.T) {
	var pool Pool
	p := pool.New()
	if !p.Managed() || pool.Live() != 1 {
		t.Fatalf("New: managed %v, live %d", p.Managed(), pool.Live())
	}
	p.Retain()
	if pool.Live() != 2 {
		t.Fatalf("live %d after Retain, want 2", pool.Live())
	}
	p.Release()
	if !p.Managed() {
		t.Fatal("packet freed with a holder outstanding")
	}
	p.Release()
	if p.Managed() || pool.Live() != 0 {
		t.Fatalf("after the final release: managed %v, live %d", p.Managed(), pool.Live())
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
	mustPanic("FlightClone", func() { pool.FlightClone(p) })

	// The parked struct comes back zeroed, with one reference.
	again := pool.New()
	if again != p || again.Op != 0 || again.Value != nil || !again.Managed() {
		t.Fatalf("pooled packet not reset: %+v", again)
	}
	again.Release()
}

// TestRefcountUnmanaged pins that literal packets and Clone results
// sit outside the lifecycle: Retain and Release are no-ops, so shared
// code paths need no special casing, and NewPacket's packets count in
// no pool.
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

	var pool Pool
	m := pool.New()
	m.Op = OpWrite
	m.Retain() // two holders
	if c := m.Clone(); c.Managed() {
		t.Fatal("Clone of a managed packet is managed")
	}
	m.Release()
	m.Release()

	u := NewPacket()
	fc := u.FlightClone()
	if !u.Managed() || !fc.Managed() {
		t.Fatal("NewPacket or its FlightClone not managed")
	}
	fc.Release()
	u.Release()
	if u.Managed() || pool.Live() != 0 {
		t.Fatalf("unowned packet: managed %v after release, pool live %d", u.Managed(), pool.Live())
	}
}

// TestFlightClone pins the per-transmission copy: a pooled header copy
// sharing the payload, holding one fresh reference, leaving the source
// count untouched, and normalizing empty values to nil.
func TestFlightClone(t *testing.T) {
	var pool Pool
	src := &Packet{Op: OpWrite, ObjID: 3, Value: []byte{1, 2}}
	fc := pool.FlightClone(src)
	if !fc.Managed() || pool.Live() != 1 {
		t.Fatalf("FlightClone: managed %v, live %d", fc.Managed(), pool.Live())
	}
	if fc.Op != src.Op || fc.ObjID != src.ObjID {
		t.Fatal("FlightClone header mismatch")
	}
	if &fc.Value[0] != &src.Value[0] {
		t.Fatal("FlightClone copied the payload instead of sharing it")
	}
	if src.Managed() {
		t.Fatal("FlightClone changed the source's management state")
	}
	// A clone of a pooled packet belongs to the pool it was cloned into.
	fc2 := fc.FlightClone()
	fc.Release()
	fc2.Release()
	if pool.Live() != 0 {
		t.Fatalf("live %d after releasing both clones", pool.Live())
	}

	empty := &Packet{Op: OpRead, Value: []byte{}}
	fc3 := pool.FlightClone(empty)
	if fc3.Value != nil {
		t.Fatal("FlightClone did not normalize empty value to nil")
	}
	fc3.Release()
}

// TestPoolSteadyStateAllocatesNothing pins that a warm pool recycles:
// a clone, a retain and their releases reuse parked structs.
func TestPoolSteadyStateAllocatesNothing(t *testing.T) {
	var pool Pool
	src := &Packet{Op: OpWrite, Value: []byte{1}}
	one := func() {
		p := pool.FlightClone(src)
		q := pool.New()
		p.Retain()
		p.Release()
		q.Release()
		p.Release()
	}
	one()
	if a := testing.AllocsPerRun(1000, one); a != 0 {
		t.Fatalf("pool round trip: %.1f allocs/op, want 0", a)
	}
	if pool.Live() != 0 {
		t.Fatalf("live %d after balanced round trips", pool.Live())
	}
}

// TestPacketSize pins the struct at 112 bytes: a request carries its
// object ID and no key, and dropping the 16-byte key header took the
// struct from 128 bytes into the 112-byte malloc size class.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n != 112 {
		t.Fatalf("Packet is %d bytes, want 112", n)
	}
}
