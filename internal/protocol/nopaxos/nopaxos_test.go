package nopaxos

import (
	"strings"
	"testing"
	"time"

	"harmonia/internal/protocol"
	"harmonia/internal/protocol/ptest"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

func group(t *testing.T, n int, opts Options) (*ptest.Harness, []*Replica) {
	t.Helper()
	return groupSeeded(t, 1, n, opts)
}

func groupSeeded(t *testing.T, seed int64, n int, opts Options) (*ptest.Harness, []*Replica) {
	t.Helper()
	h := ptest.NewHarness(seed)
	addrs := make([]simnet.NodeID, n)
	for i := range addrs {
		addrs[i] = simnet.NodeID(i + 1)
	}
	reps := make([]*Replica, n)
	for i := range reps {
		g := protocol.GroupConfig{Replicas: addrs, Self: i, F: (n - 1) / 2}
		reps[i] = New(h.Env(addrs[i], i), g, 8, opts)
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

// multicast simulates the OUM delivery of a sequenced write to all
// replicas.
func multicast(h *ptest.Harness, n int, pkt *wire.Packet) {
	for i := 1; i <= n; i++ {
		h.Inject(0, simnet.NodeID(i), pkt.Clone())
	}
}

func TestLeaderExecutesAndReplies(t *testing.T) {
	h, reps := group(t, 3, Options{})
	multicast(h, 3, write(7, 1, 1, 1, "v1"))
	replies := h.SwitchPacketsOf(wire.OpWriteReply)
	if len(replies) != 1 {
		t.Fatalf("%d replies", len(replies))
	}
	if o, ok := reps[0].Store.Get(7); !ok || string(o.Value) != "v1" {
		t.Fatal("leader did not execute")
	}
	// Followers log but do not execute before sync.
	for i := 1; i < 3; i++ {
		if int(reps[i].log.Last()) != 1 {
			t.Fatalf("follower %d log len %d", i, int(reps[i].log.Last()))
		}
		if _, ok := reps[i].Store.Get(7); ok {
			t.Fatalf("follower %d executed before sync", i)
		}
	}
}

// TestRecvPanicsOnUnlistedMessage: a message type Recv does not list —
// here a value of one it lists as a pointer — panics like the other
// four protocols' Recv instead of being dropped without a trace.
func TestRecvPanicsOnUnlistedMessage(t *testing.T) {
	h, _ := group(t, 3, Options{})
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "unexpected message nopaxos.syncAck") {
			t.Fatalf("panic %q, want one naming the unlisted nopaxos.syncAck", msg)
		}
	}()
	h.Inject(2, 1, syncAck{})
}

func TestSyncExecutesFollowersAndReleasesCompletions(t *testing.T) {
	h, reps := group(t, 3, Options{})
	multicast(h, 3, write(7, 1, 1, 1, "v1"))
	multicast(h, 3, write(8, 2, 1, 2, "v2"))
	if len(h.SwitchPacketsOf(wire.OpWriteCompletion)) != 0 {
		t.Fatal("completion released before sync")
	}
	reps[0].ForceSync()
	comps := h.SwitchPacketsOf(wire.OpWriteCompletion)
	if len(comps) != 2 {
		t.Fatalf("%d completions after sync, want 2", len(comps))
	}
	for i := 1; i < 3; i++ {
		if o, ok := reps[i].Store.Get(7); !ok || string(o.Value) != "v1" {
			t.Fatalf("follower %d missing executed write", i)
		}
		if reps[i].SyncPoint() != 2 {
			t.Fatalf("follower %d sync point %d", i, reps[i].SyncPoint())
		}
	}
}

func TestCompletionCoalescedPerObject(t *testing.T) {
	h, reps := group(t, 3, Options{})
	multicast(h, 3, write(7, 1, 1, 1, "a"))
	multicast(h, 3, write(7, 2, 1, 2, "b")) // same object twice
	reps[0].ForceSync()
	comps := h.SwitchPacketsOf(wire.OpWriteCompletion)
	if len(comps) != 1 {
		t.Fatalf("%d completions, want 1 coalesced", len(comps))
	}
	if comps[0].Seq.N != 2 {
		t.Fatal("coalesced completion must carry the newest seq")
	}
}

func TestSyncTimerDrivesRounds(t *testing.T) {
	h, reps := group(t, 3, DefaultOptions())
	multicast(h, 3, write(7, 1, 1, 1, "v1"))
	h.Run(5 * time.Millisecond)
	if reps[0].Syncs == 0 {
		t.Fatal("timer-driven sync never ran")
	}
	if len(h.SwitchPacketsOf(wire.OpWriteCompletion)) != 1 {
		t.Fatal("timer-driven sync did not release the completion")
	}
}

func TestLeaderGapBecomesNoOp(t *testing.T) {
	h, reps := group(t, 3, Options{})
	multicast(h, 3, write(7, 1, 1, 1, "v1"))
	// Message 2 lost everywhere (switch dropped the write); message 3
	// arrives — the leader must NO-OP slot 2.
	multicast(h, 3, write(9, 3, 1, 2, "v3"))
	if reps[0].NoOps != 1 {
		t.Fatalf("leader NoOps = %d, want 1", reps[0].NoOps)
	}
	if int(reps[0].log.Last()) != 3 {
		t.Fatalf("leader log = %d, want 3", int(reps[0].log.Last()))
	}
	if o, ok := reps[0].Store.Get(9); !ok || string(o.Value) != "v3" {
		t.Fatal("post-gap write not executed at leader")
	}
	// Followers learned the NO-OP via gapCommit (leader broadcast).
	for i := 1; i < 3; i++ {
		if int(reps[i].log.Last()) != 3 {
			t.Fatalf("follower %d log = %d, want 3", i, int(reps[i].log.Last()))
		}
	}
}

func TestFollowerGapFilledFromLeader(t *testing.T) {
	h, reps := group(t, 3, Options{})
	// Write 1 reaches everyone; write 2 misses follower 3.
	multicast(h, 3, write(7, 1, 1, 1, "v1"))
	h.Inject(0, 1, write(8, 2, 1, 2, "v2"))
	h.Inject(0, 2, write(8, 2, 1, 2, "v2"))
	// Write 3 reaches follower 3, exposing its gap.
	multicast(h, 3, write(9, 3, 1, 3, "v3"))
	if int(reps[2].log.Last()) != 3 {
		t.Fatalf("follower log = %d after gap fill, want 3", int(reps[2].log.Last()))
	}
	reps[0].ForceSync()
	if o, ok := reps[2].Store.Get(8); !ok || string(o.Value) != "v2" {
		t.Fatal("gap-filled write not executed at follower after sync")
	}
}

func TestDuplicateDeliveryIgnored(t *testing.T) {
	h, reps := group(t, 3, Options{})
	w := write(7, 1, 1, 1, "v1")
	multicast(h, 3, w)
	multicast(h, 3, w) // OUM duplicate
	if int(reps[0].log.Last()) != 1 {
		t.Fatalf("duplicate appended: log=%d", int(reps[0].log.Last()))
	}
	if got := len(h.SwitchPacketsOf(wire.OpWriteReply)); got != 1 {
		t.Fatalf("%d replies for duplicate delivery", got)
	}
}

func TestDuplicateClientRequestCached(t *testing.T) {
	h, _ := group(t, 3, Options{})
	multicast(h, 3, write(7, 1, 1, 1, "v1"))
	// Client retry gets a fresh sequence number but the same ReqID.
	multicast(h, 3, write(7, 2, 1, 1, "v1"))
	replies := h.SwitchPacketsOf(wire.OpWriteReply)
	if len(replies) != 2 {
		t.Fatalf("%d replies, want 2 (one cached)", len(replies))
	}
}

func TestSessionChangeResetsNumbering(t *testing.T) {
	h, reps := group(t, 3, Options{})
	// Session 1 starting at msg 5: slots 1–4 were dropped by the
	// sequencer, so the leader NO-OPs them (log = 5).
	multicast(h, 3, write(7, 5, 1, 1, "old"))
	if int(reps[0].log.Last()) != 5 || reps[0].NoOps != 4 {
		t.Fatalf("leader log=%d noops=%d, want 5/4", int(reps[0].log.Last()), reps[0].NoOps)
	}
	// New switch epoch: message numbers restart at 1; no gap.
	w := write(8, 1, 1, 2, "new")
	w.Seq.Epoch = 2
	multicast(h, 3, w)
	if int(reps[0].log.Last()) != 6 {
		t.Fatalf("log = %d after session change, want 6", int(reps[0].log.Last()))
	}
	if o, ok := reps[0].Store.Get(8); !ok || string(o.Value) != "new" {
		t.Fatal("new-session write not executed")
	}
	// Followers followed the session change through gapCommits +
	// writes.
	for i := 1; i < 3; i++ {
		if int(reps[i].log.Last()) != 6 {
			t.Fatalf("follower %d log = %d, want 6", i, int(reps[i].log.Last()))
		}
	}
	// Old-session stragglers are dropped.
	multicast(h, 3, write(9, 6, 1, 3, "stale"))
	if int(reps[0].log.Last()) != 6 {
		t.Fatal("stale-session write appended")
	}
}

func TestFastReadAtSyncedFollower(t *testing.T) {
	h, reps := group(t, 3, Options{})
	h.Grant(1, time.Hour)
	multicast(h, 3, write(7, 1, 1, 1, "v1"))
	reps[0].ForceSync()
	fr := read(7, 2, 1)
	fr.Flags = wire.FlagFastPath
	fr.LastCommitted = wire.Seq{Epoch: 1, N: 1}
	h.Inject(100, 2, fr)
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatalf("fast read at synced follower: %v", rep)
	}
	if reps[1].FastServed != 1 {
		t.Fatal("follower did not serve")
	}
}

func TestFastReadRejectedAtUnsyncedFollower(t *testing.T) {
	h, reps := group(t, 3, Options{})
	h.Grant(1, time.Hour)
	multicast(h, 3, write(7, 1, 1, 1, "v1"))
	// No sync yet: followers have not executed. A read stamped with
	// the write's completion point must be rejected there.
	fr := read(7, 2, 1)
	fr.Flags = wire.FlagFastPath
	fr.LastCommitted = wire.Seq{Epoch: 1, N: 1}
	h.Inject(100, 2, fr)
	if reps[1].FastRejected != 1 {
		t.Fatal("unsynced follower served a fast read (read-behind anomaly)")
	}
	// Forwarded to the leader, which has executed it.
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatalf("forwarded read = %v", rep)
	}
}

func TestNormalReadAtLeader(t *testing.T) {
	h, _ := group(t, 3, Options{})
	multicast(h, 3, write(7, 1, 1, 1, "v1"))
	h.Inject(100, 1, read(7, 2, 1))
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatal("leader normal read failed")
	}
}

func TestMisroutedReadForwarded(t *testing.T) {
	h, _ := group(t, 3, Options{})
	multicast(h, 3, write(7, 1, 1, 1, "v1"))
	h.Inject(100, 3, read(7, 2, 1))
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatal("misrouted read lost")
	}
}

func TestSyncSkippedWhenIdle(t *testing.T) {
	_, reps := group(t, 3, Options{})
	reps[0].ForceSync() // empty log: nothing to do
	if reps[0].Syncs != 0 {
		t.Fatal("idle sync counted")
	}
}
