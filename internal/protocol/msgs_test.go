package protocol

import "testing"

type testAck struct {
	View    uint64
	Replica int
	Done    bool
	Ref     *int
}

type testLists struct {
	acks FreeList[testAck]
}

// TestFreeListRecycles: a record taken is the next one handed out,
// cleared of what it pointed at; steady Get/Take allocates nothing; and
// every caller of FreeLists on one pool shares one bundle, while
// another pool's is its own.
func TestFreeListRecycles(t *testing.T) {
	pool := NewMsgPool()
	a, b := FreeLists[testLists](pool), FreeLists[testLists](pool)
	if a != b {
		t.Fatal("two replicas on one pool got different free lists")
	}
	if other := FreeLists[testLists](NewMsgPool()); other == a {
		t.Fatal("two pools share a free list")
	}
	if FreeLists[FreeList[testAck]](pool) == &a.acks {
		t.Fatal("bundles of different types alias")
	}

	x := 7
	m := a.acks.Get()
	*m = testAck{View: 3, Replica: 2, Ref: &x}
	if v := a.acks.Take(m); v != (testAck{View: 3, Replica: 2, Ref: &x}) {
		t.Fatalf("Take returned %+v", v)
	}
	if m.Ref != nil {
		t.Fatal("a parked record still pins what it pointed at")
	}
	if got := b.acks.Get(); got != m {
		t.Fatal("the recycled record was not reused")
	}
	b.acks.Take(m)

	if allocs := testing.AllocsPerRun(1000, func() {
		m := a.acks.Get()
		*m = testAck{View: 1}
		a.acks.Take(m)
	}); allocs != 0 {
		t.Fatalf("steady Get/Take allocates %v times, want 0", allocs)
	}
}
