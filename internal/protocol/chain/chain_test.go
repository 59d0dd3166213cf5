package chain

import (
	"testing"
	"time"

	"harmonia/internal/protocol"
	"harmonia/internal/protocol/ptest"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// group builds an n-node chain, in CRAQ mode if craq is set.
func group(t *testing.T, n int, craq bool) (*ptest.Harness, []*Replica) {
	t.Helper()
	h := ptest.NewHarness(1)
	addrs := make([]simnet.NodeID, n)
	for i := range addrs {
		addrs[i] = simnet.NodeID(i + 1)
	}
	reps := make([]*Replica, n)
	for i := range reps {
		g := protocol.GroupConfig{Replicas: addrs, Self: i}
		reps[i] = NewMode(h.Env(addrs[i], i), g, 8, craq)
		h.Register(addrs[i], reps[i])
	}
	return h, reps
}

// modes runs body as one subtest per read mode: tail reads, then CRAQ.
func modes(t *testing.T, body func(t *testing.T, craq bool)) {
	for _, craq := range []bool{false, true} {
		name := "chain"
		if craq {
			name = "craq"
		}
		t.Run(name, func(t *testing.T) { body(t, craq) })
	}
}

// dirtyVersions counts the uncommitted versions of obj a CRAQ node
// holds.
func dirtyVersions(r *Replica, obj wire.ObjectID) (n int) {
	for op := r.unacked.Base() + 1; op <= r.unacked.Last(); op++ {
		if r.unacked.At(op).Pkt.ObjID == obj {
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

func TestWritePropagatesAndCommitsAtTail(t *testing.T) {
	h, reps := group(t, 3, false)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	rep := h.LastToSwitch()
	if rep == nil || rep.Op != wire.OpWriteReply || rep.Seq.N != 1 {
		t.Fatalf("tail reply wrong: %v", rep)
	}
	for i, r := range reps {
		if o, ok := r.Store.Get(7); !ok || string(o.Value) != "v1" {
			t.Fatalf("node %d missing write", i)
		}
	}
	if reps[2].WritesCommitted != 1 {
		t.Fatal("tail did not count commit")
	}
	// Acks flowed up: resend buffers empty.
	for i, r := range reps[:2] {
		if r.unacked.Len() != 0 {
			t.Fatalf("node %d still buffers %d writes", i, r.unacked.Len())
		}
	}
}

func TestSingleNodeChain(t *testing.T) {
	h, _ := group(t, 1, false)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	if rep := h.LastToSwitch(); rep == nil || rep.Op != wire.OpWriteReply {
		t.Fatal("single-node chain did not commit")
	}
	h.Inject(100, 1, read(7, 2, 1))
	if rep := h.LastToSwitch(); string(rep.Value) != "v1" {
		t.Fatal("single-node read wrong")
	}
}

func TestTailServesNormalReads(t *testing.T) {
	h, reps := group(t, 3, false)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Inject(100, 3, read(7, 2, 1))
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatalf("tail read wrong: %v", rep)
	}
	if reps[2].ReadsServed != 1 {
		t.Fatal("tail read not counted")
	}
}

func TestMidChainDropsOutOfOrderWrite(t *testing.T) {
	h, reps := group(t, 3, false)
	h.Inject(100, 1, write(7, 5, 1, 1, "v5"))
	// A stale propagate straight to the mid node.
	h.Inject(1, 2, propagate{Pkt: write(9, 3, 2, 1, "stale")})
	if _, ok := reps[1].Store.Get(9); ok {
		t.Fatal("mid node applied stale write")
	}
	if _, ok := reps[2].Store.Get(9); ok {
		t.Fatal("stale write reached the tail")
	}
}

func TestDuplicateWriteReRepliedByTail(t *testing.T) {
	h, _ := group(t, 3, false)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Inject(100, 1, write(7, 2, 1, 1, "v1")) // same ClientID/ReqID: retry
	replies := h.SwitchPacketsOf(wire.OpWriteReply)
	if len(replies) != 2 {
		t.Fatalf("%d replies, want original + cached", len(replies))
	}
	if !replies[1].Seq.IsZero() {
		t.Fatal("cached re-reply should not piggyback a completion")
	}
}

func TestDuplicateOfInFlightWriteSuppressed(t *testing.T) {
	h, reps := group(t, 3, false)
	h.Blackhole[3] = true // tail unreachable: write stays in flight
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Inject(100, 1, write(7, 2, 1, 1, "v1")) // retry while in flight
	if len(h.SwitchPacketsOf(wire.OpWriteReply)) != 0 {
		t.Fatal("reply appeared for in-flight write")
	}
	if reps[1].Store.AppliedCount() != 1 {
		t.Fatalf("retry re-applied: %d applies at mid", reps[1].Store.AppliedCount())
	}
}

func TestFastReadOnAnyReplica(t *testing.T) {
	h, reps := group(t, 3, false)
	h.Grant(1, time.Hour)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	for i := 1; i <= 3; i++ {
		fr := read(7, 2, uint64(i))
		fr.Flags = wire.FlagFastPath
		fr.LastCommitted = wire.Seq{Epoch: 1, N: 1}
		h.Inject(100, simnet.NodeID(i), fr)
		rep := h.LastToSwitch()
		if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
			t.Fatalf("fast read at node %d failed: %v", i, rep)
		}
	}
	if reps[0].FastServed != 1 || reps[1].FastServed != 1 {
		t.Fatal("fast reads not served locally at head/mid")
	}
}

func TestFastReadAheadAnomalyPrevented(t *testing.T) {
	// The §3 read-ahead anomaly: a write applied at head and mid but
	// not the tail must not be visible through the fast path.
	h, reps := group(t, 3, false)
	h.Grant(1, time.Hour)
	h.Inject(100, 1, write(7, 1, 1, 1, "committed"))
	h.Blackhole[3] = true
	h.Inject(100, 1, write(7, 2, 1, 2, "uncommitted"))
	// Mid node has the uncommitted value; stamp only covers seq 1.
	fr := read(7, 2, 1)
	fr.Flags = wire.FlagFastPath
	fr.LastCommitted = wire.Seq{Epoch: 1, N: 1}
	h.Inject(100, 2, fr)
	if reps[1].FastRejected != 1 {
		t.Fatal("integrity check did not reject")
	}
	// The read was forwarded to the tail, which still has the old
	// committed value — but the tail is blackholed for protocol
	// messages only in this harness; packet forwarding uses Send too,
	// so nothing arrives. Clear the blackhole and re-inject to verify
	// the normal path result.
	h.Blackhole[3] = false
	fr2 := read(7, 2, 3)
	fr2.Flags = wire.FlagFastPath
	fr2.LastCommitted = wire.Seq{Epoch: 1, N: 1}
	h.Inject(100, 2, fr2)
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "committed" {
		t.Fatalf("forwarded read returned %q", rep.Value)
	}
}

func TestTailFailureReconfiguration(t *testing.T) {
	modes(t, func(t *testing.T, craq bool) {
		h, reps := group(t, 3, craq)
		// Write 1 commits fully; write 2 reaches head+mid, tail dies.
		h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
		h.Blackhole[3] = true
		h.Inject(100, 1, write(7, 2, 1, 2, "v2"))
		if len(h.SwitchPacketsOf(wire.OpWriteReply)) != 1 {
			t.Fatal("write 2 committed early")
		}
		// Fail the tail (index 2): mid becomes tail, commits buffered
		// write 2 and replies.
		for _, r := range reps[:2] {
			r.RemoveMember(2)
		}
		replies := h.SwitchPacketsOf(wire.OpWriteReply)
		if len(replies) != 2 {
			t.Fatalf("%d replies after tail failover, want 2", len(replies))
		}
		if !reps[1].isTail() {
			t.Fatal("mid did not become tail")
		}
		// The new tail's store holds what it committed, and in CRAQ mode
		// no dirty version is left to send a read to a version query.
		if o, _ := reps[1].Store.Get(7); o.Seq.N != 2 || len(reps[1].dirtyN) != 0 || reps[1].unacked.Len() != 0 {
			t.Fatalf("new tail holds version %d in its store, %d dirty objects and %d buffered writes, want 2, 0 and 0",
				o.Seq.N, len(reps[1].dirtyN), reps[1].unacked.Len())
		}
		// New tail serves reads with the latest committed value.
		h.Inject(100, 2, read(7, 2, 9))
		if rep := h.LastToSwitch(); string(rep.Value) != "v2" {
			t.Fatalf("read after failover = %q", rep.Value)
		}
	})
}

func TestHeadFailureReconfiguration(t *testing.T) {
	modes(t, func(t *testing.T, craq bool) {
		h, reps := group(t, 3, craq)
		for _, r := range reps[1:] {
			r.RemoveMember(0)
		}
		if !reps[1].isHead() {
			t.Fatal("node 1 did not become head")
		}
		// Writes now enter at the new head.
		h.Inject(100, 2, write(7, 1, 1, 1, "v1"))
		rep := h.LastToSwitch()
		if rep == nil || rep.Op != wire.OpWriteReply {
			t.Fatal("write via new head did not commit")
		}
	})
}

func TestMidFailureResendsWindow(t *testing.T) {
	modes(t, func(t *testing.T, craq bool) {
		h, reps := group(t, 4, craq)
		// Stall the chain after the mid node 2 (index 1): writes reach
		// head and node 2 but die there.
		h.Blackhole[3] = true
		h.Inject(100, 1, write(7, 1, 1, 1, "a"))
		h.Inject(100, 1, write(8, 2, 2, 1, "b"))
		if reps[1].unacked.Len() != 2 {
			t.Fatalf("mid buffers %d, want 2", reps[1].unacked.Len())
		}
		// Node index 2 (address 3) fails; the blackhole stays (it is
		// dead). Node 1's resend goes to the new successor index 3.
		for i, r := range reps {
			if i != 2 {
				r.RemoveMember(2)
			}
		}
		replies := h.SwitchPacketsOf(wire.OpWriteReply)
		if len(replies) != 2 {
			t.Fatalf("%d replies after mid failover, want 2", len(replies))
		}
		if o, ok := reps[3].Store.Get(8); !ok || string(o.Value) != "b" {
			t.Fatal("resent write missing at new successor")
		}
	})
}

func TestReconfigureIgnoresUnknownOrDead(t *testing.T) {
	_, reps := group(t, 3, false)
	reps[0].RemoveMember(7)  // out of range
	reps[0].RemoveMember(-1) // out of range
	reps[0].RemoveMember(1)
	reps[0].RemoveMember(1) // double-failure report is idempotent
	if reps[0].next != 2 {
		t.Fatalf("next = %d, want 2", reps[0].next)
	}
}

func TestStrayNormalReadForwardedToTail(t *testing.T) {
	h, _ := group(t, 3, false)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Inject(100, 2, read(7, 5, 1)) // normal read at mid node
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatal("misrouted read lost")
	}
}

// TestSteadyWriteAllocatesNothing pins a write through a three-node
// chain — two propagates, the tail's reply, two recycled acks, three
// resend-buffer updates, and in CRAQ mode the dirty counts and the
// commits the acks make — and a duplicate write — the head's recycled
// re-reply request and the tail's re-sent reply — to zero allocations.
// Writes enter one hop apart, so several are always on their way and
// the resend buffers never empty: their rings must not grow. Once
// idle, every packet reference left is one a node holds.
func TestSteadyWriteAllocatesNothing(t *testing.T) {
	modes(t, func(t *testing.T, craq bool) {
		h, reps := group(t, 3, craq)
		h.Delay = time.Microsecond
		val := []byte("12345678")
		var n, seq uint64
		var window int
		inject := func(client uint32, req uint64) {
			seq++
			w := h.Pkts.New()
			w.Op, w.ObjID, w.Seq = wire.OpWrite, wire.ObjectID(req%16), wire.Seq{Epoch: 1, N: seq}
			w.ClientID, w.ReqID, w.Value = client, req, val
			h.Inject(100, 1, w)
		}
		inject(2, 1) // client 2's one write, which every step retransmits
		h.Run(10 * time.Microsecond)
		replies, _ := h.DrainSwitch()
		one := func() {
			n++
			inject(1, n)
			window = max(window, reps[0].unacked.Len())
			inject(2, 1)
			h.Run(time.Microsecond)
			r, _ := h.DrainSwitch()
			replies += r
		}
		for i := 0; i < 64; i++ {
			one()
		}
		if a := testing.AllocsPerRun(1000, one); a != 0 {
			t.Fatalf("one write allocates %v times, want 0", a)
		}
		if window < 2 {
			t.Fatalf("the head never buffered more than %d write; the test meant to keep several in flight", window)
		}
		h.Run(10 * time.Microsecond)
		r, _ := h.DrainSwitch()
		replies += r
		for i, rep := range reps {
			if rep.unacked.Len() != 0 || len(rep.dirtyN) != 0 {
				t.Fatalf("node %d still buffers %d writes of %d dirty objects", i, rep.unacked.Len(), len(rep.dirtyN))
			}
		}
		if uint64(replies) != 2*n+1 {
			t.Fatalf("%d writes and as many duplicates: %d replies", n+1, replies)
		}
		if n := ptest.Unheld(h, reps); n != 0 {
			t.Fatalf("%d packet references live that no replica holds", n)
		}
	})
}

// CRAQ mode: apportioned reads.

func TestWriteTwoPhaseCommit(t *testing.T) {
	h, reps := group(t, 3, true)
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
	h, reps := group(t, 3, true)
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
	h, reps := group(t, 3, true)
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
	h, reps := group(t, 3, true)
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
	h, _ := group(t, 3, true)
	h.Inject(100, 2, read(42, 1, 1))
	rep := h.LastToSwitch()
	if rep.Flags&wire.FlagNotFound == 0 {
		t.Fatal("missing object not flagged")
	}
}

func TestDeleteVisibleAsNotFound(t *testing.T) {
	h, _ := group(t, 3, true)
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
	h, reps := group(t, 3, true)
	h.Inject(100, 1, write(7, 5, 1, 1, "v5"))
	h.Inject(100, 1, write(8, 3, 2, 1, "stale"))
	if _, ok := reps[0].Store.Get(8); ok || dirtyVersions(reps[0], 8) != 0 {
		t.Fatal("stale write created a version")
	}
}

func TestDuplicateWriteReReplied(t *testing.T) {
	h, _ := group(t, 3, true)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Inject(100, 1, write(7, 2, 1, 1, "v1"))
	replies := h.SwitchPacketsOf(wire.OpWriteReply)
	if len(replies) != 2 {
		t.Fatalf("%d replies, want 2", len(replies))
	}
}

func TestVersionGCAfterManyWrites(t *testing.T) {
	h, reps := group(t, 3, true)
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
	h, _ := group(t, 3, true)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	// Inject a version reply for an old version number directly.
	h.Inject(3, 2, versionReply{Seq: wire.ZeroSeq, Found: true, Pkt: read(7, 9, 1)})
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatalf("stale version reply mishandled: %v", rep)
	}
}

func TestTailReadAlwaysClean(t *testing.T) {
	h, reps := group(t, 3, true)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Inject(100, 3, read(7, 2, 1))
	if reps[2].DirtyReads != 0 {
		t.Fatal("tail read used a version query")
	}
	if rep := h.LastToSwitch(); string(rep.Value) != "v1" {
		t.Fatal("tail read wrong")
	}
}
