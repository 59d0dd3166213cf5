package chain

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
	h, reps := group(t, 3)
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
	h, _ := group(t, 1)
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
	h, reps := group(t, 3)
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
	h, reps := group(t, 3)
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
	h, _ := group(t, 3)
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
	h, reps := group(t, 3)
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
	h, reps := group(t, 3)
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
	h, reps := group(t, 3)
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
	h, reps := group(t, 3)
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
		r.Reconfigure(2)
	}
	replies := h.SwitchPacketsOf(wire.OpWriteReply)
	if len(replies) != 2 {
		t.Fatalf("%d replies after tail failover, want 2", len(replies))
	}
	if !reps[1].IsTail() {
		t.Fatal("mid did not become tail")
	}
	// New tail serves reads with the latest committed value.
	h.Inject(100, 2, read(7, 2, 9))
	if rep := h.LastToSwitch(); string(rep.Value) != "v2" {
		t.Fatalf("read after failover = %q", rep.Value)
	}
}

func TestHeadFailureReconfiguration(t *testing.T) {
	h, reps := group(t, 3)
	for _, r := range reps[1:] {
		r.Reconfigure(0)
	}
	if !reps[1].IsHead() {
		t.Fatal("node 1 did not become head")
	}
	// Writes now enter at the new head.
	h.Inject(100, 2, write(7, 1, 1, 1, "v1"))
	rep := h.LastToSwitch()
	if rep == nil || rep.Op != wire.OpWriteReply {
		t.Fatal("write via new head did not commit")
	}
}

func TestMidFailureResendsWindow(t *testing.T) {
	h, reps := group(t, 4)
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
			r.Reconfigure(2)
		}
	}
	replies := h.SwitchPacketsOf(wire.OpWriteReply)
	if len(replies) != 2 {
		t.Fatalf("%d replies after mid failover, want 2", len(replies))
	}
	if o, ok := reps[3].Store.Get(8); !ok || string(o.Value) != "b" {
		t.Fatal("resent write missing at new successor")
	}
}

func TestReconfigureIgnoresUnknownOrDead(t *testing.T) {
	_, reps := group(t, 3)
	reps[0].Reconfigure(7)  // out of range
	reps[0].Reconfigure(-1) // out of range
	reps[0].Reconfigure(1)
	reps[0].Reconfigure(1) // double-failure report is idempotent
	if reps[0].next != 2 {
		t.Fatalf("next = %d, want 2", reps[0].next)
	}
}

func TestStrayNormalReadForwardedToTail(t *testing.T) {
	h, _ := group(t, 3)
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Inject(100, 2, read(7, 5, 1)) // normal read at mid node
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatal("misrouted read lost")
	}
}

// TestSteadyWriteAllocatesNothing pins a write through a three-node
// chain — two propagates, the tail's reply, two recycled acks, three
// resend-buffer updates — to zero allocations. Writes enter one hop
// apart, so several are always on their way and the resend buffers
// never empty: their rings must not grow. Once idle, every packet
// reference left is one a node holds.
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
		h.Run(time.Microsecond)
		window = max(window, reps[0].unacked.Len())
		for _, sp := range h.ToSwitch {
			replies++
			sp.Pkt.Release()
		}
		h.ToSwitch = h.ToSwitch[:0]
	}
	for i := 0; i < 64; i++ {
		one()
	}
	if a := testing.AllocsPerRun(1000, one); a != 0 {
		t.Fatalf("one chain write allocates %v times, want 0", a)
	}
	if window < 2 {
		t.Fatalf("the head never buffered more than %d write; the test meant to keep several in flight", window)
	}
	h.Run(10 * time.Microsecond)
	for _, sp := range h.ToSwitch {
		replies++
		sp.Pkt.Release()
	}
	if uint64(replies) != n || reps[0].unacked.Len() != 0 || reps[1].unacked.Len() != 0 {
		t.Fatalf("%d writes: %d replies, %d and %d still buffered", n, replies, reps[0].unacked.Len(), reps[1].unacked.Len())
	}
	if n := ptest.Unheld(h, reps); n != 0 {
		t.Fatalf("%d packet references live that no replica holds", n)
	}
}
