package craq

import (
	"testing"
	"time"

	"harmonia/internal/protocol"
	"harmonia/internal/protocol/ptest"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

func group(t *testing.T, n int) (*ptest.Harness, []*Replica) {
	t.Helper()
	h := ptest.NewHarness(1)
	addrs := make([]simnet.NodeID, n)
	for i := range addrs {
		addrs[i] = simnet.NodeID(i + 1)
	}
	reps := make([]*Replica, n)
	for i := range reps {
		g := protocol.GroupConfig{Replicas: addrs, Self: i}
		reps[i] = New(h.Env(addrs[i], i), g, 8)
		h.Register(addrs[i], reps[i])
	}
	return h, reps
}

// dirtyVersions counts the uncommitted versions of obj a node holds.
func dirtyVersions(r *Replica, obj wire.ObjectID) (n int) {
	for op := r.dirty.Base() + 1; op <= r.dirty.Last(); op++ {
		if r.dirty.At(op).Pkt.ObjID == obj {
			n++
		}
	}
	return n
}

func write(obj wire.ObjectID, n uint64, client uint32, req uint64, val string) *wire.Packet {
	return &wire.Packet{
		Op: wire.OpWrite, ObjID: obj, Seq: wire.Seq{Epoch: 1, N: n},
		ClientID: client, ReqID: req, Value: []byte(val),
	}
}

func read(obj wire.ObjectID, client uint32, req uint64) *wire.Packet {
	return &wire.Packet{Op: wire.OpRead, ObjID: obj, ClientID: client, ReqID: req}
}

func TestWriteTwoPhaseCommit(t *testing.T) {
	h, reps := group(t, 3)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	rep := h.LastToSwitch()
	if rep == nil || rep.Op != wire.OpWriteReply {
		t.Fatal("no reply from tail")
	}
	// Phase 2 completed: every node holds the clean version only.
	for i, r := range reps {
		if n := dirtyVersions(r, 7); n != 0 {
			t.Fatalf("node %d retains %d dirty versions after commit", i, n)
		}
		if o, ok := r.Store.Get(7); !ok || string(o.Value) != "v1" {
			t.Fatalf("node %d clean version = %q %v", i, o.Value, ok)
		}
	}
}

func TestCleanReadServedLocally(t *testing.T) {
	h, reps := group(t, 3)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	for i := 1; i <= 3; i++ {
		h.Inject(100, simnet.NodeID(i), read(7, 2, uint64(i)))
		rep := h.LastToSwitch()
		if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
			t.Fatalf("clean read at node %d failed", i)
		}
	}
	if reps[0].CleanReads != 1 || reps[1].CleanReads != 1 || reps[2].CleanReads != 1 {
		t.Fatal("clean reads not served at each node")
	}
}

func TestDirtyReadQueriesTailAndReturnsCommitted(t *testing.T) {
	h, reps := group(t, 3)
	h.Inject(100, 1, write(7, 1, 1, 1, "old"))
	// Stall phase 1 before the tail: mid node has a dirty version.
	h.Blackhole[3] = true
	h.Inject(100, 1, write(7, 2, 1, 2, "new"))
	h.Blackhole[3] = false
	if o, _ := reps[1].Store.Get(7); string(o.Value) != "old" || dirtyVersions(reps[1], 7) != 1 {
		t.Fatalf("mid holds clean %q and %d dirty versions, want \"old\" and 1", o.Value, dirtyVersions(reps[1], 7))
	}
	// A read at the mid node must return the committed "old" value via
	// a tail version query — not the dirty "new" one.
	h.Inject(100, 2, read(7, 3, 1))
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "old" {
		t.Fatalf("dirty read returned %q, want committed \"old\"", rep.Value)
	}
	if reps[1].DirtyReads != 1 {
		t.Fatal("dirty read not counted")
	}
	// A slot-mate object with no dirty version reads clean at once.
	h.Inject(100, 2, read(8, 3, 2))
	if reps[1].CleanReads != 1 || reps[1].DirtyReads != 1 {
		t.Fatalf("read of a clean object: %d clean, %d dirty reads", reps[1].CleanReads, reps[1].DirtyReads)
	}
}

// TestDirtyReadReturnsTheTailsVersion: the mid node holds several dirty
// versions and the tail answers that the older of the object's two
// committed, so the read returns that one — found among the dirty
// versions by its sequence number.
func TestDirtyReadReturnsTheTailsVersion(t *testing.T) {
	h, reps := group(t, 3)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Blackhole[3] = true // phase 1 stops short of the tail
	h.Inject(100, 1, write(7, 2, 1, 2, "v2"))
	h.Inject(100, 1, write(9, 3, 1, 3, "other"))
	h.Inject(100, 1, write(7, 4, 1, 4, "v4"))
	h.Blackhole[3] = false
	if dirtyVersions(reps[1], 7) != 2 || dirtyVersions(reps[1], 9) != 1 {
		t.Fatalf("mid holds %d dirty versions of 7 and %d of 9, want 2 and 1",
			dirtyVersions(reps[1], 7), dirtyVersions(reps[1], 9))
	}
	h.Inject(3, 2, versionReply{Seq: wire.Seq{Epoch: 1, N: 2}, Found: true, Pkt: read(7, 3, 1)})
	if rep := h.LastToSwitch(); rep.Op != wire.OpReadReply || string(rep.Value) != "v2" {
		t.Fatalf("dirty read returned %q, want the tail's \"v2\"", rep.Value)
	}
}

func TestReadMissingObject(t *testing.T) {
	h, _ := group(t, 3)
	h.Inject(100, 2, read(42, 1, 1))
	rep := h.LastToSwitch()
	if rep.Flags&wire.FlagNotFound == 0 {
		t.Fatal("missing object not flagged")
	}
}

func TestDeleteVisibleAsNotFound(t *testing.T) {
	h, _ := group(t, 3)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	del := write(7, 2, 1, 2, "")
	del.Flags |= wire.FlagDelete
	h.Inject(100, 1, del)
	h.Inject(100, 2, read(7, 2, 1))
	rep := h.LastToSwitch()
	if rep.Flags&wire.FlagNotFound == 0 {
		t.Fatal("deleted object still readable")
	}
}

func TestOutOfOrderWriteDiscarded(t *testing.T) {
	h, reps := group(t, 3)
	h.Inject(100, 1, write(7, 5, 1, 1, "v5"))
	h.Inject(100, 1, write(8, 3, 2, 1, "stale"))
	if _, ok := reps[0].Store.Get(8); ok || dirtyVersions(reps[0], 8) != 0 {
		t.Fatal("stale write created a version")
	}
}

func TestDuplicateWriteReReplied(t *testing.T) {
	h, _ := group(t, 3)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Inject(100, 1, write(7, 2, 1, 1, "v1"))
	replies := h.SwitchPacketsOf(wire.OpWriteReply)
	if len(replies) != 2 {
		t.Fatalf("%d replies, want 2", len(replies))
	}
}

func TestVersionGCAfterManyWrites(t *testing.T) {
	h, reps := group(t, 3)
	for i := uint64(1); i <= 20; i++ {
		h.Inject(100, 1, write(7, i, 1, i, "v"))
	}
	for i, r := range reps {
		if got := dirtyVersions(r, 7); got != 0 || len(r.dirtyN) != 0 {
			t.Fatalf("node %d retains %d dirty versions (%d objects counted) after quiescence", i, got, len(r.dirtyN))
		}
	}
}

func TestDirtyReadWithGCedCommittedVersion(t *testing.T) {
	// Construct the race where the tail's committed version answer
	// refers to a version the asking node already garbage-collected:
	// the node must serve its clean (≥ committed) version.
	h, _ := group(t, 3)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	// Inject a version reply for an old version number directly.
	h.Inject(3, 2, versionReply{Seq: wire.ZeroSeq, Found: true, Pkt: read(7, 9, 1)})
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatalf("stale version reply mishandled: %v", rep)
	}
}

// TestSteadyWriteAllocatesNothing: with several writes in flight, a
// write through a three-node chain — both phases, the dirty window, the
// recycled commit acks and the write's own packet — allocates nothing.
func TestSteadyWriteAllocatesNothing(t *testing.T) {
	h, reps := group(t, 3)
	h.Delay = time.Microsecond
	val := []byte("12345678")
	var n uint64
	var replies, window int
	one := func() {
		n++
		w := h.Pkts.New()
		w.Op, w.ObjID, w.Seq = wire.OpWrite, wire.ObjectID(n%16), wire.Seq{Epoch: 1, N: n}
		w.ClientID, w.ReqID, w.Value = 1, n, val
		h.Inject(100, 1, w)
		window = max(window, reps[0].dirty.Len())
		h.Run(time.Microsecond)
		r, _ := h.DrainSwitch()
		replies += r
	}
	for i := 0; i < 64; i++ {
		one()
	}
	if a := testing.AllocsPerRun(1000, one); a != 0 {
		t.Fatalf("one CRAQ write allocates %v times, want 0", a)
	}
	if window < 2 {
		t.Fatalf("the head never held more than %d dirty version; the test meant to keep several in flight", window)
	}
	h.Run(10 * time.Microsecond)
	r, _ := h.DrainSwitch()
	replies += r
	for i, rep := range reps {
		if rep.dirty.Len() != 0 || len(rep.dirtyN) != 0 {
			t.Fatalf("node %d holds %d dirty versions after quiescence", i, rep.dirty.Len())
		}
	}
	if uint64(replies) != n {
		t.Fatalf("%d writes: %d replies", n, replies)
	}
	if n := ptest.Unheld(h, reps); n != 0 {
		t.Fatalf("%d packet references live that no replica holds", n)
	}
}

func TestTailReadAlwaysClean(t *testing.T) {
	h, reps := group(t, 3)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Inject(100, 3, read(7, 2, 1))
	if reps[2].DirtyReads != 0 {
		t.Fatal("tail read used a version query")
	}
	if rep := h.LastToSwitch(); string(rep.Value) != "v1" {
		t.Fatal("tail read wrong")
	}
}
