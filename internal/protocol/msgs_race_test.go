//go:build race

package protocol

import "testing"

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestRecycleGuard: race builds catch the two ways the ownership rule
// can be broken — recycling a record twice, and writing through a
// pointer kept past Take — and make the third, reading through one,
// yield values no protocol state matches.
func TestRecycleGuard(t *testing.T) {
	var l FreeList[testAck]
	m := l.Get()
	*m = testAck{View: 3, Replica: 2}
	l.Take(m)
	if m.View != ^uint64(0) || m.Replica != -1 || !m.Done || m.Ref != nil {
		t.Fatalf("parked record not poisoned: %+v", *m)
	}
	mustPanic(t, "second Take of one record", func() { l.Take(m) })

	m.View = 4 // a sender touching a record it already sent and lost
	mustPanic(t, "Get after a write through a stale pointer", func() { l.Get() })
}

// TestRecycleGuardOnCarvedRecords: records carved from a block, the
// second block's first among them, pass Get unpoisoned and still
// panic on a second Take.
func TestRecycleGuardOnCarvedRecords(t *testing.T) {
	var l FreeList[testAck]
	var held []*testAck
	for i := 0; i < 65; i++ {
		held = append(held, l.Get()) // the 65th comes from a second block
	}
	for _, m := range held[:64] {
		l.Take(m)
	}
	m := held[64]
	*m = testAck{View: 1}
	l.Take(m)
	mustPanic(t, "second Take of a block-carved record", func() { l.Take(m) })
}
