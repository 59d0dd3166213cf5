package pb

import (
	"testing"
	"time"

	"harmonia/internal/protocol"
	"harmonia/internal/protocol/ptest"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// group builds a 3-replica PB group on a ptest harness. Replica
// addresses are 1, 2, 3; the primary is address 1 (index 0).
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

func write(obj wire.ObjectID, n uint64, client uint32, req uint64, val string) *wire.Packet {
	return &wire.Packet{
		Op: wire.OpWrite, ObjID: obj, Seq: wire.Seq{Epoch: 1, N: n},
		ClientID: client, ReqID: req, Value: []byte(val),
	}
}

func read(obj wire.ObjectID, client uint32, req uint64) *wire.Packet {
	return &wire.Packet{Op: wire.OpRead, ObjID: obj, ClientID: client, ReqID: req}
}

func TestWriteCommitsAfterAllAcks(t *testing.T) {
	h, reps := group(t, 3)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	reply := h.LastToSwitch()
	if reply == nil || reply.Op != wire.OpWriteReply {
		t.Fatalf("no write reply: %v", reply)
	}
	if reply.Seq != (wire.Seq{Epoch: 1, N: 1}) {
		t.Fatal("reply does not piggyback the completion seq")
	}
	for i, r := range reps {
		if o, ok := r.Store.Get(7); !ok || string(o.Value) != "v1" {
			t.Fatalf("replica %d missing write: %v %v", i, o, ok)
		}
	}
	if reps[0].pending.Len() != 0 {
		t.Fatal("pending writes remain after commit")
	}
}

func TestWriteBlocksWithoutBackupAck(t *testing.T) {
	h, reps := group(t, 3)
	h.Blackhole[3] = true // backup 3 unreachable
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	if len(h.SwitchPacketsOf(wire.OpWriteReply)) != 0 {
		t.Fatal("write committed without all backups")
	}
	if reps[0].pending.Len() != 1 {
		t.Fatal("write not pending")
	}
}

func TestOutOfOrderWriteDropped(t *testing.T) {
	h, reps := group(t, 3)
	h.Inject(100, 1, write(7, 5, 1, 1, "v5"))
	h.Inject(100, 1, write(8, 3, 2, 1, "v3")) // stale seq
	if got := len(h.SwitchPacketsOf(wire.OpWriteReply)); got != 1 {
		t.Fatalf("%d replies, want 1 (stale write dropped)", got)
	}
	if _, ok := reps[0].Store.Get(8); ok {
		t.Fatal("out-of-order write applied")
	}
}

func TestOutOfOrderUpdateAtBackupDropped(t *testing.T) {
	h, reps := group(t, 2)
	// Apply seq 5 at the backup directly, then deliver an update with
	// seq 3: must be ignored without an ack.
	if err := reps[1].Store.Apply(1, []byte("x"), wire.Seq{Epoch: 1, N: 5}, false); err != nil {
		t.Fatal(err)
	}
	h.Inject(1, 2, update{Pkt: write(9, 3, 1, 1, "stale")})
	if _, ok := reps[1].Store.Get(9); ok {
		t.Fatal("backup applied stale update")
	}
}

func TestDuplicateWriteSuppressed(t *testing.T) {
	h, _ := group(t, 3)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Inject(100, 1, write(7, 2, 1, 1, "v1")) // client retry, same ReqID
	replies := h.SwitchPacketsOf(wire.OpWriteReply)
	if len(replies) != 2 {
		t.Fatalf("%d replies, want 2 (original + cached re-reply)", len(replies))
	}
	if !replies[1].Seq.IsZero() {
		t.Fatal("cached re-reply carries a completion seq")
	}
}

func TestNormalReadReturnsCommitted(t *testing.T) {
	h, _ := group(t, 3)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Inject(100, 1, read(7, 2, 1))
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatalf("read reply = %v", rep)
	}
}

func TestNormalReadMissingObject(t *testing.T) {
	h, _ := group(t, 3)
	h.Inject(100, 1, write(1, 1, 1, 1, "seed")) // make group live
	h.Inject(100, 1, read(42, 2, 1))
	rep := h.LastToSwitch()
	if rep.Flags&wire.FlagNotFound == 0 {
		t.Fatal("missing object not flagged")
	}
}

func TestNormalReadBlocksBehindPendingWrite(t *testing.T) {
	h, reps := group(t, 3)
	h.Blackhole[3] = true
	h.Inject(100, 1, write(7, 1, 1, 1, "v1")) // stuck uncommitted
	h.Inject(100, 1, read(7, 2, 1))
	if len(h.SwitchPacketsOf(wire.OpReadReply)) != 0 {
		t.Fatal("read served while write uncommitted (read-ahead anomaly)")
	}
	if len(reps[0].reads) != 1 {
		t.Fatal("read not queued")
	}
	// Unblock: backup 3 comes back and the update is retried — here we
	// simulate via direct ack injection.
	h.Inject(3, 1, &updateAck{Seq: wire.Seq{Epoch: 1, N: 1}, Replica: 2})
	rep := h.LastToSwitch()
	if rep == nil || rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatalf("queued read not released: %v", rep)
	}
}

// TestNormalReadBlocksBehindPendingDelete: a pending delete leaves no
// object in the primary's store, and the read still waits for it.
func TestNormalReadBlocksBehindPendingDelete(t *testing.T) {
	h, reps := group(t, 3)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Blackhole[3] = true
	del := write(7, 2, 1, 2, "")
	del.Flags |= wire.FlagDelete
	h.Inject(100, 1, del)
	h.Inject(100, 1, read(7, 2, 1))
	if len(reps[0].reads) != 1 {
		t.Fatal("read of a pending delete not queued")
	}
	h.Inject(3, 1, &updateAck{Seq: wire.Seq{Epoch: 1, N: 2}, Replica: 2})
	if rep := h.LastToSwitch(); rep.Op != wire.OpReadReply || rep.Flags&wire.FlagNotFound == 0 {
		t.Fatalf("read released after the delete = %v", rep)
	}
	if reps[0].deletes != 0 {
		t.Fatalf("%d deletes pending after commit", reps[0].deletes)
	}
}

// TestNormalReadServesObjectsWithoutPendingWrites: with writes pending
// on other objects, a read of a preloaded object (an epoch-0 version
// above a commit point nothing has moved yet), of an absent one and of
// one whose newest write committed is served at once.
func TestNormalReadServesObjectsWithoutPendingWrites(t *testing.T) {
	h, reps := group(t, 3)
	reps[0].Store.Seed(5, []byte("pre"), wire.Seq{N: 9})
	h.Blackhole[3] = true
	h.Inject(100, 1, write(8, 1, 1, 1, "v1"))
	del := write(9, 2, 1, 2, "")
	del.Flags |= wire.FlagDelete
	h.Inject(100, 1, del)
	h.Inject(100, 1, read(5, 2, 1))
	h.Inject(100, 1, read(42, 2, 2))

	h2, reps2 := group(t, 3)
	h2.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h2.Blackhole[3] = true
	h2.Inject(100, 1, write(8, 2, 1, 2, "v2"))
	h2.Inject(100, 1, read(7, 2, 1))

	if q := len(reps[0].reads) + len(reps2[0].reads); q != 0 {
		t.Fatalf("%d reads queued behind other objects' writes", q)
	}
	if n := len(h.SwitchPacketsOf(wire.OpReadReply)) + len(h2.SwitchPacketsOf(wire.OpReadReply)); n != 3 {
		t.Fatalf("%d reads served, want 3", n)
	}
}

func TestFastReadAcceptedOnCommittedObject(t *testing.T) {
	h, reps := group(t, 3)
	h.Grant(1, time.Hour)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	// Fast read at backup 2 stamped with commit point 1: accepted.
	fr := read(7, 2, 1)
	fr.Flags = wire.FlagFastPath
	fr.LastCommitted = wire.Seq{Epoch: 1, N: 1}
	h.Inject(100, 3, fr)
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatalf("fast read reply = %v", rep)
	}
	if reps[2].FastServed != 1 {
		t.Fatal("FastServed not counted")
	}
}

func TestFastReadRejectedOnUncommittedState(t *testing.T) {
	h, reps := group(t, 3)
	h.Grant(1, time.Hour)
	h.Blackhole[3] = true
	h.Inject(100, 1, write(7, 1, 1, 1, "v1")) // applied at 1,2; uncommitted
	// Backup 2 has applied seq 1, but the read is stamped with commit
	// point 0 — integrity check must reject and forward to primary,
	// where it queues behind the pending write.
	fr := read(7, 2, 1)
	fr.Flags = wire.FlagFastPath
	fr.LastCommitted = wire.Seq{Epoch: 1, N: 0}
	h.Inject(100, 2, fr)
	if len(h.SwitchPacketsOf(wire.OpReadReply)) != 0 {
		t.Fatal("uncommitted state leaked through fast path")
	}
	if reps[1].FastRejected != 1 {
		t.Fatal("rejection not counted")
	}
	if len(reps[0].reads) != 1 {
		t.Fatal("forwarded read not queued at primary")
	}
}

func TestFastReadRejectedWithoutLease(t *testing.T) {
	h, reps := group(t, 3)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	fr := read(7, 2, 1)
	fr.Flags = wire.FlagFastPath
	fr.LastCommitted = wire.Seq{Epoch: 1, N: 1}
	h.Inject(100, 2, fr)
	// Without a lease the read is forwarded to the primary and served
	// on the normal path (object committed, so it answers there).
	if reps[1].LeaseRejected != 1 {
		t.Fatal("lease gate did not fire")
	}
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatal("forwarded read not served by primary")
	}
}

func TestFastReadWrongEpochRejected(t *testing.T) {
	h, reps := group(t, 3)
	h.Grant(2, time.Hour) // replicas moved to switch epoch 2
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	fr := read(7, 2, 1)
	fr.Flags = wire.FlagFastPath
	fr.LastCommitted = wire.Seq{Epoch: 1, N: 1} // old switch's stamp
	h.Inject(100, 2, fr)
	if reps[1].LeaseRejected != 1 {
		t.Fatal("old-epoch fast read accepted (§5.3 violation)")
	}
}

func TestFastReadAtPrimaryFallsBackToNormalPath(t *testing.T) {
	h, _ := group(t, 3)
	h.Grant(1, time.Hour)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	// Stale stamp at the primary: rejected fast read must be served
	// via the primary's own normal path, not forwarded to itself.
	fr := read(7, 2, 1)
	fr.Flags = wire.FlagFastPath
	fr.LastCommitted = wire.ZeroSeq
	h.Inject(100, 1, fr)
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatalf("primary fallback failed: %v", rep)
	}
}

func TestRemoveBackupUnblocksPending(t *testing.T) {
	h, reps := group(t, 3)
	h.Blackhole[3] = true
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	if len(h.SwitchPacketsOf(wire.OpWriteReply)) != 0 {
		t.Fatal("premature commit")
	}
	reps[0].RemoveMember(2) // index 2 = address 3
	if len(h.SwitchPacketsOf(wire.OpWriteReply)) != 1 {
		t.Fatal("write did not commit after backup removal")
	}
}

func TestCommitInSeqOrderDespiteAckReordering(t *testing.T) {
	h, reps := group(t, 2)
	// Two writes; deliver the backup's acks out of order by injecting
	// them manually.
	h.Blackhole[2] = true // suppress automatic backup processing
	h.Inject(100, 1, write(7, 1, 1, 1, "a"))
	h.Inject(100, 1, write(8, 2, 2, 1, "b"))
	h.Blackhole[2] = false
	// Ack for seq 2 arrives first: both writes commit (full ack of 2
	// implies 1 was applied at the backup, by in-order application).
	h.Inject(2, 1, &updateAck{Seq: wire.Seq{Epoch: 1, N: 2}, Replica: 1})
	if got := len(h.SwitchPacketsOf(wire.OpWriteReply)); got != 2 {
		t.Fatalf("%d replies after reordered ack, want 2", got)
	}
	if reps[0].pending.Len() != 0 {
		t.Fatal("pending writes remain")
	}
}

func TestBackupForwardsStrayNormalRead(t *testing.T) {
	h, _ := group(t, 3)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Inject(100, 2, read(7, 3, 1)) // normal read misrouted to backup
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatal("misrouted normal read lost")
	}
}

// TestSteadyWriteAllocatesNothing: a committed write allocates nothing
// at any member once the pending window and the free lists are warm —
// the window is a ring, and the acks travel as recycled records.
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
		window = max(window, reps[0].pending.Len())
		h.Run(time.Microsecond)
		replies += len(h.ToSwitch)
		h.DrainSwitch()
	}
	for i := 0; i < 64; i++ {
		one()
	}
	if a := testing.AllocsPerRun(1000, one); a != 0 {
		t.Fatalf("one primary-backup write allocates %v times, want 0", a)
	}
	if window < 2 {
		t.Fatalf("the primary never had more than %d write pending; the test meant to keep several in flight", window)
	}
	h.Run(10 * time.Microsecond)
	replies += len(h.ToSwitch)
	h.DrainSwitch()
	if uint64(replies) != n || reps[0].pending.Len() != 0 {
		t.Fatalf("%d writes: %d replies, %d still pending", n, replies, reps[0].pending.Len())
	}
	if n := ptest.Unheld(h, reps); n != 0 {
		t.Fatalf("%d packet references live that no replica holds", n)
	}
}
