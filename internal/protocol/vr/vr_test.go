package vr

import (
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

func quiet() Options { return Options{} } // no timers: fully test-driven

func write(obj wire.ObjectID, n uint64, client uint32, req uint64, val string) *wire.Packet {
	return &wire.Packet{
		Op: wire.OpWrite, ObjID: obj, Seq: wire.Seq{Epoch: 1, N: n},
		ClientID: client, ReqID: req, Value: []byte(val),
	}
}

func read(obj wire.ObjectID, client uint32, req uint64) *wire.Packet {
	return &wire.Packet{Op: wire.OpRead, ObjID: obj, ClientID: client, ReqID: req}
}

func TestWriteCommitsAtQuorum(t *testing.T) {
	h, reps := group(t, 3, quiet())
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	replies := h.SwitchPacketsOf(wire.OpWriteReply)
	if len(replies) != 1 {
		t.Fatalf("%d replies", len(replies))
	}
	if !replies[0].Seq.IsZero() {
		t.Fatal("read-behind reply must not piggyback a completion")
	}
	if reps[0].CommitNum() != 1 {
		t.Fatal("leader did not commit")
	}
	if o, ok := reps[0].Store.Get(7); !ok || string(o.Value) != "v1" {
		t.Fatal("leader did not execute")
	}
}

func TestCompletionAfterCommitAckQuorum(t *testing.T) {
	h, reps := group(t, 3, quiet())
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	// With synchronous delivery the commit broadcast already drove
	// backups to execute and commit-ack, so the completion must be
	// out.
	comps := h.SwitchPacketsOf(wire.OpWriteCompletion)
	if len(comps) != 1 {
		t.Fatalf("%d completions, want 1", len(comps))
	}
	if comps[0].ObjID != 7 || comps[0].Seq.N != 1 {
		t.Fatalf("completion = %v", comps[0])
	}
	// All replicas executed.
	for i, r := range reps {
		if o, ok := r.Store.Get(7); !ok || string(o.Value) != "v1" {
			t.Fatalf("replica %d not executed", i)
		}
	}
}

func TestCompletionHeldWhileBackupsLag(t *testing.T) {
	h, reps := group(t, 3, quiet())
	h.Blackhole[2] = true
	h.Blackhole[3] = true
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	// No quorum of PREPARE-OK: not even committed.
	if len(h.SwitchPacketsOf(wire.OpWriteReply)) != 0 {
		t.Fatal("committed without quorum")
	}
	// One backup answers: commit + reply, but the completion is held
	// until EVERY live replica has executed (§7.3 delays completions
	// so fast reads rarely bounce).
	h.Blackhole[2] = false
	h.Inject(1, 2, &prepare{View: 0, OpNum: 1, Pkt: write(7, 1, 1, 1, "v1"), CommitNum: 0})
	if len(h.SwitchPacketsOf(wire.OpWriteReply)) != 1 {
		t.Fatal("no reply after quorum")
	}
	if got := len(h.SwitchPacketsOf(wire.OpWriteCompletion)); got != 0 {
		t.Fatalf("%d completions while a replica lags, want 0", got)
	}
	// Declaring the lagging replica dead releases the completion.
	reps[0].MarkDead(2)
	if got := len(h.SwitchPacketsOf(wire.OpWriteCompletion)); got != 1 {
		t.Fatalf("%d completions after MarkDead, want 1", got)
	}
}

func TestEagerCompletionAblation(t *testing.T) {
	h, _ := group(t, 3, Options{EagerCompletions: true})
	h.Blackhole[3] = true
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	// Commit happens with one backup; eager mode emits the completion
	// at commit time without waiting for COMMIT-ACKs.
	if got := len(h.SwitchPacketsOf(wire.OpWriteCompletion)); got != 1 {
		t.Fatalf("%d completions in eager mode", got)
	}
}

func TestOutOfOrderSwitchSeqDropped(t *testing.T) {
	h, reps := group(t, 3, quiet())
	h.Inject(100, 1, write(7, 5, 1, 1, "v5"))
	h.Inject(100, 1, write(8, 3, 2, 1, "stale"))
	if reps[0].opNum() != 1 {
		t.Fatalf("opNum = %d, stale write entered the log", reps[0].opNum())
	}
}

func TestDuplicateWriteCached(t *testing.T) {
	h, _ := group(t, 3, quiet())
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Inject(100, 1, write(7, 2, 1, 1, "v1"))
	if got := len(h.SwitchPacketsOf(wire.OpWriteReply)); got != 2 {
		t.Fatalf("%d replies, want 2 (original + cached)", got)
	}
	if got := len(h.SwitchPacketsOf(wire.OpWriteCompletion)); got != 1 {
		t.Fatalf("duplicate produced an extra completion: %d", got)
	}
}

func TestLeaderServesNormalReads(t *testing.T) {
	h, _ := group(t, 3, quiet())
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Inject(100, 1, read(7, 2, 1))
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatalf("leader read = %v", rep)
	}
}

func TestNonLeaderForwardsClientOps(t *testing.T) {
	h, _ := group(t, 3, quiet())
	h.Inject(100, 2, write(7, 1, 1, 1, "v1")) // write misrouted to backup
	if len(h.SwitchPacketsOf(wire.OpWriteReply)) != 1 {
		t.Fatal("misrouted write lost")
	}
	h.Inject(100, 3, read(7, 2, 1)) // read misrouted to backup
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatal("misrouted read lost")
	}
}

func TestFastReadVisibilityCheck(t *testing.T) {
	h, reps := group(t, 3, quiet())
	h.Grant(1, time.Hour)
	// Write commits everywhere (synchronous harness).
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	// A fast read stamped at the commit point is served by a backup.
	fr := read(7, 2, 1)
	fr.Flags = wire.FlagFastPath
	fr.LastCommitted = wire.Seq{Epoch: 1, N: 1}
	h.Inject(100, 2, fr)
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatalf("fast read rejected wrongly: %v", rep)
	}
	if reps[1].FastServed != 1 {
		t.Fatal("backup did not serve fast read")
	}
}

func TestFastReadRejectedAtLaggingReplica(t *testing.T) {
	// The §3 read-behind anomaly: a replica that has not executed a
	// committed write must not answer a fast read stamped past it.
	h, reps := group(t, 3, quiet())
	h.Grant(1, time.Hour)
	h.Blackhole[3] = true // replica 3 misses everything
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Blackhole[3] = false
	fr := read(7, 2, 1)
	fr.Flags = wire.FlagFastPath
	fr.LastCommitted = wire.Seq{Epoch: 1, N: 1} // switch knows write 1 committed
	h.Inject(100, 3, fr)
	if reps[2].FastRejected != 1 {
		t.Fatal("lagging replica served a stale fast read")
	}
	// The forwarded read reached the leader and returned fresh data.
	rep := h.LastToSwitch()
	if rep.Op != wire.OpReadReply || string(rep.Value) != "v1" {
		t.Fatalf("forwarded read = %v", rep)
	}
}

func TestStateTransferCatchesUpLaggingReplica(t *testing.T) {
	h, reps := group(t, 3, quiet())
	h.Blackhole[3] = true
	for i := uint64(1); i <= 5; i++ {
		h.Inject(100, 1, write(wire.ObjectID(i), i, 1, i, "v"))
	}
	h.Blackhole[3] = false
	// Replica 3 sees the next prepare with a gap and state-transfers.
	h.Inject(100, 1, write(99, 6, 1, 6, "last"))
	if reps[2].opNum() != 6 {
		t.Fatalf("lagging replica opNum = %d, want 6", reps[2].opNum())
	}
	if o, ok := reps[2].Store.Get(3); !ok || string(o.Value) != "v" {
		t.Fatal("state transfer did not replay missed writes")
	}
}

func TestViewChangeElectsNewLeaderAndPreservesCommits(t *testing.T) {
	h, reps := group(t, 3, DefaultOptions())
	h.Run(time.Millisecond) // let initial timers settle
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	if len(h.SwitchPacketsOf(wire.OpWriteReply)) != 1 {
		t.Fatal("write did not commit pre-failure")
	}
	// Kill the leader; the other two should elect replica 1 (view 1).
	h.Dead[1] = true
	h.Run(200 * time.Millisecond)
	if reps[1].View() == 0 || !reps[1].IsLeader() {
		t.Fatalf("no view change: view=%d leader=%v", reps[1].View(), reps[1].IsLeader())
	}
	if reps[2].View() != reps[1].View() {
		t.Fatalf("views diverge: %d vs %d", reps[1].View(), reps[2].View())
	}
	// Committed state survived.
	if o, ok := reps[1].Store.Get(7); !ok || string(o.Value) != "v1" {
		t.Fatal("committed write lost in view change")
	}
	// The new leader accepts writes.
	h.Inject(100, 2, write(8, 2, 2, 1, "v2"))
	h.Run(50 * time.Millisecond)
	if o, ok := reps[1].Store.Get(8); !ok || string(o.Value) != "v2" {
		t.Fatal("write after view change failed")
	}
	if o, ok := reps[2].Store.Get(8); !ok || string(o.Value) != "v2" {
		t.Fatal("backup missing post-view-change write")
	}
}

func TestViewChangeCallback(t *testing.T) {
	h, reps := group(t, 3, DefaultOptions())
	var gotView uint64
	var gotLeader int
	reps[1].OnViewChange = func(v uint64, l int) { gotView, gotLeader = v, l }
	h.Run(time.Millisecond)
	h.Dead[1] = true
	h.Run(200 * time.Millisecond)
	if gotView == 0 || gotLeader != 1 {
		t.Fatalf("callback not fired: view=%d leader=%d", gotView, gotLeader)
	}
}

func TestUncommittedOpSurvivesViewChangeViaQuorumLog(t *testing.T) {
	h, reps := group(t, 3, DefaultOptions())
	h.Run(time.Millisecond)
	// The write reaches backup 2 (quorum: commit) but backup 3 is
	// cut off from the leader's broadcast only — deliver manually.
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	// Leader dies right after committing; backups hold the log entry.
	h.Dead[1] = true
	h.Run(200 * time.Millisecond)
	// New leader (replica 1) must retain and have executed the op.
	if o, ok := reps[1].Store.Get(7); !ok || string(o.Value) != "v1" {
		t.Fatal("committed op lost")
	}
	// Duplicate write after the view change is answered from cache,
	// not re-executed.
	applied := reps[1].Store.AppliedCount()
	h.Inject(100, 2, write(7, 2, 1, 1, "v1"))
	h.Run(20 * time.Millisecond)
	if reps[1].Store.AppliedCount() != applied {
		t.Fatal("duplicate re-executed after view change")
	}
}

func TestFiveReplicaQuorum(t *testing.T) {
	h, reps := group(t, 5, quiet())
	// Two replicas down: quorum of 3 still commits and replies.
	h.Blackhole[4] = true
	h.Blackhole[5] = true
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	if len(h.SwitchPacketsOf(wire.OpWriteReply)) != 1 {
		t.Fatal("quorum of 3/5 did not commit")
	}
	// Completions wait for the crashed pair until they are declared
	// dead; then the live set (3/5, all executed) releases them.
	if len(h.SwitchPacketsOf(wire.OpWriteCompletion)) != 0 {
		t.Fatal("completion released while crashed replicas unconfirmed")
	}
	reps[0].MarkDead(3)
	reps[0].MarkDead(4)
	if len(h.SwitchPacketsOf(wire.OpWriteCompletion)) != 1 {
		t.Fatal("completion missing after dead replicas excluded")
	}
}

func TestHeartbeatDrivesLaggingExecution(t *testing.T) {
	h, reps := group(t, 3, DefaultOptions())
	// Suppress the commit broadcast to replica 3 momentarily by
	// blackholing, then let heartbeats catch it up.
	h.Blackhole[3] = true
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	h.Blackhole[3] = false
	h.Run(50 * time.Millisecond)
	if o, ok := reps[2].Store.Get(7); !ok || string(o.Value) != "v1" {
		t.Fatal("heartbeat did not catch up the lagging replica")
	}
}

// TestTouchLeaderAllocatesNothing pins the step every Prepare and
// Commit takes at a follower — stop the view-change timer, arm it
// again — to zero allocations: the timeout callback is bound once at
// construction, not per call, and the engine recycles a stopped
// timer's event the moment it is stopped.
func TestTouchLeaderAllocatesNothing(t *testing.T) {
	h, reps := group(t, 3, Options{ViewChangeTimeout: 100 * time.Microsecond})
	step := func() {
		reps[1].touchLeader()
		reps[2].touchLeader()
		h.Run(time.Microsecond)
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if a := testing.AllocsPerRun(1000, step); a != 0 {
		t.Fatalf("two touchLeader calls allocate %v, want 0", a)
	}
	if reps[1].ViewChanges+reps[2].ViewChanges != 0 {
		t.Fatal("a view-change timer fired while it was being re-armed every microsecond")
	}
}

// TestSteadyWriteAllocatesNothing pins the normal-case replication
// path of a five-replica group — 4 prepares, 4 prepareOKs, 4+ commits,
// 4 commitAcks, the ack set, 8 view-change timer re-arms, reply and
// completion — to zero allocations per committed write, the write's
// own packet included: it is drawn from the pool inside the measured
// region, sits in five logs, and is back in the pool once the last of
// them has trimmed it (a write later, when the next prepare carries
// the trim point), so the next draw finds it. Messages take a
// microsecond each: delivered synchronously, the commit a quorum
// triggers would overtake the prepares still to be sent and put every
// write through state transfer.
func TestSteadyWriteAllocatesNothing(t *testing.T) {
	const warm, runs = 64, 1000
	h, reps := group(t, 5, Options{ViewChangeTimeout: 25 * time.Millisecond})
	h.Delay = time.Microsecond
	val := []byte("12345678")
	var next uint64
	var replies, completions int
	one := func() {
		next++
		w := h.Pkts.New()
		w.Op, w.ObjID, w.Seq = wire.OpWrite, wire.ObjectID(next%16), wire.Seq{Epoch: 1, N: next}
		w.ClientID, w.ReqID, w.Value = 1, next, val
		h.Inject(100, 1, w)
		h.Run(10 * time.Microsecond)
		r, c := h.DrainSwitch()
		replies, completions = replies+r, completions+c
	}
	for i := 0; i < warm; i++ {
		one()
	}
	// After every write the group holds the same packets (the last
	// write in four backup logs, one cached reply per client table).
	live := h.Pkts.Live()
	if a := testing.AllocsPerRun(runs, one); a != 0 {
		t.Fatalf("one committed write allocates %v times, want 0", a)
	}
	if now := h.Pkts.Live(); now != live {
		t.Fatalf("%d packet references live after %d writes, %d before: a log kept some", now, runs, live)
	}
	if uint64(replies) != next || uint64(completions) != next {
		t.Fatalf("%d writes: %d replies, %d completions", next, replies, completions)
	}
	for i, r := range reps {
		if r.CommitNum() != next {
			t.Fatalf("replica %d executed %d of %d writes", i, r.CommitNum(), next)
		}
		if r.LogWindow() > 1 {
			t.Fatalf("replica %d holds %d log entries with nothing in flight", i, r.LogWindow())
		}
	}
}

// TestAcksFromOutsideTheGroupIgnored: the Replica field of an ack picks
// a bit of the ack set and an element of execPoint, so a value outside
// the group must neither count toward a quorum nor index out of range.
func TestAcksFromOutsideTheGroupIgnored(t *testing.T) {
	h, reps := group(t, 3, quiet())
	h.Blackhole[2] = true
	h.Blackhole[3] = true
	h.Inject(100, 1, write(7, 1, 1, 1, "v1"))
	for _, who := range []int{-1, 3, 7, 64, 65} {
		h.Inject(2, 1, &prepareOK{View: 0, OpNum: 1, Replica: who})
		h.Inject(2, 1, &commitAck{View: 0, ExecutedNum: 1, Replica: who})
	}
	if reps[0].CommitNum() != 0 || len(h.SwitchPacketsOf(wire.OpWriteReply)) != 0 {
		t.Fatal("acks naming no member of the group made a quorum")
	}
	// The same ack from a real member commits.
	h.Inject(2, 1, &prepareOK{View: 0, OpNum: 1, Replica: 1})
	if reps[0].CommitNum() != 1 {
		t.Fatal("a member's ack did not commit")
	}
	// Acks for ops the leader does not have, or has already committed,
	// change nothing.
	h.Inject(2, 1, &prepareOK{View: 0, OpNum: 2, Replica: 1})
	h.Inject(2, 1, &prepareOK{View: 0, OpNum: 1, Replica: 2})
	h.Inject(2, 1, &prepareOK{View: 0, OpNum: 0, Replica: 2})
	if reps[0].CommitNum() != 1 {
		t.Fatalf("commitNum = %d after stray acks, want 1", reps[0].CommitNum())
	}
}
