// Package vr implements Viewstamped Replication (Oki & Liskov, PODC
// 1988; Liskov & Cowling's "VR Revisited" formulation) with the
// Harmonia adaptations of §7.3.
//
// VR is a leader-based quorum protocol equivalent to Multi-Paxos: the
// leader of the current view assigns op numbers, replicates via
// PREPARE/PREPARE-OK, commits at a majority, and executes committed
// operations in order. It is read-behind: replicas execute only
// committed writes, so fast-path reads need the visibility check — a
// replica answers locally only when it has executed at least up to the
// read's stamped last-committed point.
//
// Harmonia adds one phase: concurrently with replying to the client,
// the leader distributes the commit point; replicas acknowledge with
// COMMIT-ACK once they have executed it, and only when a quorum has
// acknowledged an operation does the leader send the WRITE-COMPLETION
// for it (delaying completions this way reduces rejected fast reads).
package vr

import (
	"fmt"
	"math/bits"
	"time"

	"harmonia/internal/protocol"
	"harmonia/internal/sim"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

type status int

const (
	statusNormal status = iota
	statusViewChange
)

// --- protocol messages ---
//
// The four normal-case messages — prepare, prepareOK, commitMsg,
// commitAck, eight of them per write in a five-replica group — travel
// as pointers to recycled records (freeLists; the ownership rule is in
// protocol/msgs.go). View-change and state-transfer messages are rare
// and carry the log window; they stay plain values, and each owns a
// reference to every packet it carries (protocol.OpLog.Copy): the
// handler releases them when it returns, whatever it did with the
// message.

// prepare carries its own reference to Pkt, which the backup's log
// takes over or the backup releases. Stable, here and in commitMsg, is
// the leader's trim point — the op every live member has executed — and
// a backup trims its log to min(Stable, its own executed op).
type prepare struct {
	View      uint64
	OpNum     uint64
	Pkt       *wire.Packet
	CommitNum uint64
	Stable    uint64
}

// CostClass charges log append + eventual execution as a write.
func (prepare) CostClass() protocol.CostClass { return protocol.CostWrite }

// Release gives back the reference of a prepare the network dropped.
func (m *prepare) Release() { m.Pkt.Release() }

type prepareOK struct {
	View    uint64
	OpNum   uint64
	Replica int
}

// CostClass marks the ack as control traffic.
func (prepareOK) CostClass() protocol.CostClass { return protocol.CostControl }

type commitMsg struct {
	View      uint64
	CommitNum uint64
	Stable    uint64
}

// CostClass marks the commit notice as control traffic.
func (commitMsg) CostClass() protocol.CostClass { return protocol.CostControl }

// commitAck is the Harmonia extra phase (§7.3): the replica has
// executed everything up to ExecutedNum.
type commitAck struct {
	View        uint64
	ExecutedNum uint64
	Replica     int
}

// CostClass marks the ack as control traffic.
func (commitAck) CostClass() protocol.CostClass { return protocol.CostControl }

type startViewChange struct {
	View    uint64
	Replica int
}

// CostClass marks view-change traffic as control.
func (startViewChange) CostClass() protocol.CostClass { return protocol.CostControl }

type doViewChange struct {
	View           uint64
	FirstOp        uint64 // op number of Log[0]
	Log            []protocol.LogEntry
	LastNormalView uint64
	CommitNum      uint64
	Replica        int
}

// opNum is the sender's op number: the last op of its log.
func (m doViewChange) opNum() uint64 { return m.FirstOp + uint64(len(m.Log)) - 1 }

// CostClass marks view-change traffic as control.
func (doViewChange) CostClass() protocol.CostClass { return protocol.CostControl }

// Release drops the references the message carries.
func (m doViewChange) Release() { protocol.ReleaseEntries(m.Log) }

type startView struct {
	View      uint64
	FirstOp   uint64 // op number of Log[0]
	Log       []protocol.LogEntry
	CommitNum uint64
}

// CostClass marks view-change traffic as control.
func (startView) CostClass() protocol.CostClass { return protocol.CostControl }

// Release drops the references the message carries.
func (m startView) Release() { protocol.ReleaseEntries(m.Log) }

type getState struct {
	View    uint64
	OpNum   uint64
	Replica int
}

// CostClass marks state transfer as control traffic.
func (getState) CostClass() protocol.CostClass { return protocol.CostControl }

type newState struct {
	View      uint64
	FirstOp   uint64 // op number of Log[0]
	Log       []protocol.LogEntry
	CommitNum uint64
}

// CostClass marks state transfer as control traffic.
func (newState) CostClass() protocol.CostClass { return protocol.CostControl }

// Release drops the references the message carries.
func (m newState) Release() { protocol.ReleaseEntries(m.Log) }

// freeLists is the record store of the normal-case messages, one per
// engine, shared by every VR replica on it.
type freeLists struct {
	prepare   protocol.FreeList[prepare]
	prepareOK protocol.FreeList[prepareOK]
	commit    protocol.FreeList[commitMsg]
	commitAck protocol.FreeList[commitAck]
}

// Options tune timers and the Harmonia completion policy.
type Options struct {
	// HeartbeatEvery is the leader's idle COMMIT cadence.
	HeartbeatEvery time.Duration
	// ViewChangeTimeout fires a view change when no leader traffic
	// arrives for this long. Zero disables automatic view changes
	// (benchmarks use a static, healthy group).
	ViewChangeTimeout time.Duration
	// EagerCompletions is the §7.3 ablation: send WRITE-COMPLETIONs at
	// commit time instead of waiting for a quorum of COMMIT-ACKs.
	EagerCompletions bool
}

// DefaultOptions returns sensible simulation timers.
func DefaultOptions() Options {
	return Options{HeartbeatEvery: 5 * time.Millisecond, ViewChangeTimeout: 25 * time.Millisecond}
}

// Replica is one VR group member.
type Replica struct {
	*protocol.Base
	opts Options

	view   uint64
	status status
	// log holds the ops above the trim point; its Last is the op number.
	// An entry's Acks is the set of replicas that prepared the op, and
	// the op commits when the popcount reaches the quorum; only a
	// leader, and only above commitNum, ever reads it (see resetAcks).
	log       protocol.OpLog
	commitNum uint64 // committed and (here) executed prefix

	lastSwitchSeq wire.Seq // §5.2 in-order guard at the leader

	// Leader bookkeeping.
	execPoint []uint64 // per-replica executed op number (from commitAcks)
	completed uint64   // ops for which WRITE-COMPLETION was sent
	dead      []bool   // replicas excluded from the completion wait

	free *freeLists

	// View-change bookkeeping.
	svcVotes       map[uint64]map[int]bool
	dvcMsgs        map[uint64]map[int]doViewChange
	lastNormalView uint64

	// Timers. leaderTimeoutFn is leaderTimeout bound once: every
	// Prepare and Commit re-arms vcTimer, and a method value would
	// allocate a fresh closure each time.
	hbTimer         sim.Timer
	vcTimer         sim.Timer
	leaderTimeoutFn func()

	// OnViewChange, when set, is invoked after this replica enters a
	// new view in normal status (control-plane hook used by the
	// cluster to retarget the switch).
	OnViewChange func(view uint64, leader int)

	// Stats
	ViewChanges uint64
}

// New builds a VR replica. The group must have 2F+1 members, at most
// 64 (the width of an ack set).
func New(env protocol.Env, g protocol.GroupConfig, shards int, opts Options) *Replica {
	if g.N() > 64 {
		panic("vr: group larger than the 64-replica ack set")
	}
	r := &Replica{
		Base:      protocol.NewBase(env, g, protocol.ReadBehind, shards),
		opts:      opts,
		execPoint: make([]uint64, g.N()),
		dead:      make([]bool, g.N()),
		free:      protocol.FreeLists[freeLists](env.Msgs()),
		svcVotes:  make(map[uint64]map[int]bool),
		dvcMsgs:   make(map[uint64]map[int]doViewChange),
	}
	r.leaderTimeoutFn = r.leaderTimeout
	r.armTimers()
	return r
}

// Leader returns the current view's leader index.
func (r *Replica) Leader() int { return int(r.view % uint64(r.Group.N())) }

// IsLeader reports whether this replica leads the current view.
func (r *Replica) IsLeader() bool { return r.Leader() == r.Group.Self }

// View returns the current view number (tests).
func (r *Replica) View() uint64 { return r.view }

// CommitNum returns the executed prefix length (tests).
func (r *Replica) CommitNum() uint64 { return r.commitNum }

// HeldPackets returns the packet references the replica holds: its
// log, the logs of the DO-VIEW-CHANGEs it collects (a VR log has no
// NO-OPs), and its cached replies.
func (r *Replica) HeldPackets() int {
	n := r.log.Len() + r.CT.Held()
	for _, msgs := range r.dvcMsgs {
		for _, m := range msgs {
			n += len(m.Log)
		}
	}
	return n
}

// LogWindow returns the number of log entries held (tests): the ops
// some live member has yet to execute.
func (r *Replica) LogWindow() int { return r.log.Len() }

func (r *Replica) opNum() uint64 { return r.log.Last() }

func (r *Replica) leaderAddr() simnet.NodeID { return r.Group.Addr(r.Leader()) }

func (r *Replica) armTimers() {
	if r.opts.HeartbeatEvery > 0 && r.IsLeader() {
		r.hbTimer = r.Env.After(r.opts.HeartbeatEvery, r.heartbeat)
	}
	if r.opts.ViewChangeTimeout > 0 && !r.IsLeader() {
		r.vcTimer = r.Env.After(r.opts.ViewChangeTimeout, r.leaderTimeoutFn)
	}
}

func (r *Replica) heartbeat() {
	if r.status == statusNormal && r.IsLeader() {
		r.broadcastCommit()
	}
	if r.opts.HeartbeatEvery > 0 && r.IsLeader() {
		r.hbTimer = r.Env.After(r.opts.HeartbeatEvery, r.heartbeat)
	}
}

// touchLeader resets the view-change timeout on live leader traffic.
func (r *Replica) touchLeader() {
	r.vcTimer.Stop()
	if r.opts.ViewChangeTimeout > 0 && !r.IsLeader() {
		r.vcTimer = r.Env.After(r.opts.ViewChangeTimeout, r.leaderTimeoutFn)
	}
}

func (r *Replica) leaderTimeout() {
	if r.IsLeader() {
		return
	}
	r.startViewChange(r.view + 1)
}

// broadcast sends one plain value to every peer. The recycled message
// types have loops of their own below: each recipient needs its own
// record.
func (r *Replica) broadcast(msg any) {
	for i := 0; i < r.Group.N(); i++ {
		if i != r.Group.Self {
			r.Env.Send(r.Group.Addr(i), msg)
		}
	}
}

// broadcastPrepare replicates log entry opNum, one reference to its
// packet per recipient.
func (r *Replica) broadcastPrepare(opNum uint64, pkt *wire.Packet) {
	for i := 0; i < r.Group.N(); i++ {
		if i != r.Group.Self {
			r.free.prepare.Send(r.Env, r.Group.Addr(i),
				prepare{View: r.view, OpNum: opNum, Pkt: pkt.Retain(), CommitNum: r.commitNum, Stable: r.log.Base()})
		}
	}
}

// broadcastCommit announces the current commit point.
func (r *Replica) broadcastCommit() {
	for i := 0; i < r.Group.N(); i++ {
		if i != r.Group.Self {
			r.free.commit.Send(r.Env, r.Group.Addr(i), commitMsg{View: r.view, CommitNum: r.commitNum, Stable: r.log.Base()})
		}
	}
}

// sendPrepareOK acknowledges op to the leader.
func (r *Replica) sendPrepareOK(op uint64) {
	r.free.prepareOK.Send(r.Env, r.leaderAddr(), prepareOK{View: r.view, OpNum: op, Replica: r.Group.Self})
}

// Recv implements simnet.Handler. A recycled record is taken — copied
// out and put back — before its handler runs.
func (r *Replica) Recv(from simnet.NodeID, msg simnet.Message) {
	if r.HandleControl(msg) {
		return
	}
	switch m := msg.(type) {
	case *wire.Packet:
		r.recvPacket(m)
	case *prepare:
		r.recvPrepare(r.free.prepare.Take(m))
	case *prepareOK:
		r.recvPrepareOK(r.free.prepareOK.Take(m))
	case *commitMsg:
		r.recvCommit(r.free.commit.Take(m))
	case *commitAck:
		r.recvCommitAck(r.free.commitAck.Take(m))
	case startViewChange:
		r.recvStartViewChange(m)
	case doViewChange:
		r.recvDoViewChange(m)
	case startView:
		r.recvStartView(m)
	case getState:
		r.recvGetState(m)
	case newState:
		r.recvNewState(m)
	default:
		// A message in a representation the cases above do not list (a
		// recycled type sent by value, say) must not vanish silently.
		panic(fmt.Sprintf("vr: unexpected message %T", msg))
	}
}

// --- client requests ---

func (r *Replica) recvPacket(pkt *wire.Packet) {
	switch pkt.Op {
	case wire.OpWrite:
		if r.status != statusNormal {
			pkt.Release() // client retries after the view change settles
			return
		}
		if !r.IsLeader() {
			r.Env.Send(r.leaderAddr(), pkt)
			return
		}
		r.leaderWrite(pkt)
	case wire.OpRead:
		if pkt.Flags&wire.FlagFastPath != 0 {
			target := protocol.Target(r.leaderAddr())
			if r.IsLeader() {
				target = protocol.TargetSelf()
			}
			if r.HandleFastRead(pkt, target) {
				r.leaderRead(pkt)
			}
			return
		}
		if r.status != statusNormal {
			pkt.Release()
			return
		}
		if !r.IsLeader() {
			r.Env.Send(r.leaderAddr(), pkt)
			return
		}
		r.leaderRead(pkt)
	}
}

func (r *Replica) leaderWrite(pkt *wire.Packet) {
	// §5.2 write-order requirement, enforced at log entry.
	if r.AdmitWrite(pkt, r.lastSwitchSeq, true) != protocol.Admitted {
		pkt.Release() // discarded or duplicate: fully handled
		return
	}
	r.lastSwitchSeq = pkt.Seq
	// The log takes over the delivery reference and gives it back when
	// the op is trimmed; every other holder — a prepare on its way, a
	// backup's log, a view-change or state-transfer message — has a
	// reference of its own.
	r.log.Append(pkt, r.selfBit())
	r.broadcastPrepare(r.opNum(), pkt)
	r.maybeCommit(r.opNum()) // 1-replica group commits immediately
}

// leaderRead serves a normal-path read from executed (committed) state
// under the leader lease.
func (r *Replica) leaderRead(pkt *wire.Packet) {
	r.Env.SendSwitch(r.ReadReply(pkt))
	pkt.Release()
}

// --- normal-case replication ---

func (r *Replica) recvPrepare(m prepare) {
	if m.View < r.view || r.status != statusNormal {
		m.Pkt.Release()
		return
	}
	if m.View > r.view {
		m.Pkt.Release()
		r.stateTransfer(m.View)
		return
	}
	r.touchLeader()
	switch {
	case m.OpNum == r.opNum()+1:
		r.log.Append(m.Pkt, 0)
		r.sendPrepareOK(m.OpNum)
	case m.OpNum > r.opNum()+1:
		// Missed entries: fetch them rather than acknowledging a gap.
		m.Pkt.Release()
		r.stateTransfer(r.view)
		return
	default:
		// Duplicate of an entry we have; re-ack it.
		m.Pkt.Release()
		r.sendPrepareOK(m.OpNum)
	}
	r.executeUpTo(m.CommitNum)
	r.log.TrimTo(min(m.Stable, r.commitNum))
}

func (r *Replica) recvPrepareOK(m prepareOK) {
	if m.View != r.view || !r.IsLeader() {
		return
	}
	// Only an uncommitted op of this leader's log collects acks, and
	// only from a member: Replica picks a bit of the ack set.
	if m.OpNum <= r.commitNum || m.OpNum > r.opNum() ||
		m.Replica < 0 || m.Replica >= r.Group.N() {
		return
	}
	r.log.At(m.OpNum).Acks |= 1 << uint(m.Replica)
	r.maybeCommit(m.OpNum)
}

// selfBit is the ack set holding only this replica.
func (r *Replica) selfBit() uint64 { return 1 << uint(r.Group.Self) }

// resetAcks restarts ack collection at a new leader: every op above
// committed starts out acknowledged by this replica alone.
func (r *Replica) resetAcks(committed uint64) {
	for op := committed + 1; op <= r.opNum(); op++ {
		r.log.At(op).Acks = r.selfBit()
	}
}

func (r *Replica) maybeCommit(opNum uint64) {
	if opNum != r.commitNum+1 {
		// Commit strictly in order; a quorum for a later op implies
		// earlier ones were prepared at those replicas too, but we
		// advance one at a time for clarity — earlier acks arrive
		// first in practice and the loop below re-drives.
		opNum = r.commitNum + 1
	}
	for opNum <= r.opNum() {
		entry := r.log.At(opNum)
		if bits.OnesCount64(entry.Acks) < r.Group.Quorum() {
			return
		}
		r.commitNum = opNum
		r.executeOne(opNum)
		pkt := entry.Pkt
		rep := r.WriteReply(pkt, false) // completions are separate in read-behind
		r.CT.Complete(pkt.ClientID, pkt.ReqID, rep)
		r.Env.SendSwitch(rep)
		r.execPoint[r.Group.Self] = r.commitNum
		if r.opts.EagerCompletions {
			r.Env.SendSwitch(r.Completion(pkt.ObjID, pkt.Seq))
			r.completed = r.commitNum
		}
		// From here on the op may be trimmed and pkt recycled: under
		// synchronous delivery (ptest) the commit's acks come back
		// inside the broadcast.
		r.broadcastCommit()
		r.advanceCompletions()
		opNum++
	}
}

// executeOne applies the op at opNum to the store.
func (r *Replica) executeOne(opNum uint64) {
	pkt := r.log.At(opNum).Pkt
	// Apply can only fail on sequence regression, which cannot happen
	// for a log executed in order with leader-enforced seq monotony;
	// a failure here would be a protocol bug, so surface it loudly.
	if err := r.Apply(pkt); err != nil {
		panic("vr: out-of-order execution: " + err.Error())
	}
	// Keep the client table warm at every replica so any future
	// leader can answer duplicates. The table takes its own reference;
	// this replica never sends the reply, so its own is dropped.
	if !r.IsLeader() {
		rep := r.WriteReply(pkt, false)
		r.CT.Complete(pkt.ClientID, pkt.ReqID, rep)
		rep.Release()
	}
}

// executeUpTo executes committed ops at a backup and sends the
// Harmonia COMMIT-ACK for its new execution point.
func (r *Replica) executeUpTo(commitNum uint64) {
	commitNum = min(commitNum, r.opNum())
	advanced := false
	for r.commitNum < commitNum {
		r.commitNum++
		r.executeOne(r.commitNum)
		advanced = true
	}
	if advanced && !r.IsLeader() {
		r.free.commitAck.Send(r.Env, r.leaderAddr(), commitAck{View: r.view, ExecutedNum: r.commitNum, Replica: r.Group.Self})
	}
}

func (r *Replica) recvCommit(m commitMsg) {
	if m.View != r.view || r.status != statusNormal {
		if m.View > r.view {
			r.stateTransfer(m.View)
		}
		return
	}
	r.touchLeader()
	if m.CommitNum > r.opNum() {
		r.stateTransfer(r.view)
		return
	}
	before := r.commitNum
	r.executeUpTo(m.CommitNum)
	r.log.TrimTo(min(m.Stable, r.commitNum))
	// Liveness: when an idle heartbeat repeats a stale commit point
	// while we hold uncommitted suffix entries, our PREPARE-OKs were
	// probably lost — re-ack them. Restricting this to non-advancing
	// heartbeats keeps the leader from drowning in redundant acks
	// during normal pipelined operation.
	if r.commitNum == before && r.opNum() > r.commitNum {
		for op := r.commitNum + 1; op <= r.opNum(); op++ {
			r.sendPrepareOK(op)
		}
	}
}

// recvCommitAck advances the completion point: once a quorum of
// replicas (including the leader) has executed op n, its
// WRITE-COMPLETION is released to the switch (§7.3).
func (r *Replica) recvCommitAck(m commitAck) {
	if m.View != r.view || !r.IsLeader() || m.Replica < 0 || m.Replica >= r.Group.N() {
		return
	}
	if m.ExecutedNum > r.execPoint[m.Replica] {
		r.execPoint[m.Replica] = m.ExecutedNum
	}
	r.advanceCompletions()
}

// completionPoint returns the highest op executed by every live
// replica, which is also where the log is trimmed. §7.3 delays
// WRITE-COMPLETIONs "until the write has likely been executed on all
// replicas" — releasing them at a mere quorum leaves the minority
// chronically behind the commit stamp, so the switch's fast-path reads
// bounce off it and pile onto the leader. Crashed replicas are
// excluded via RemoveMember so completions (and with them the fast path)
// survive failures.
func (r *Replica) completionPoint() uint64 {
	min := ^uint64(0)
	live := 0
	for i, p := range r.execPoint {
		if r.dead[i] {
			continue
		}
		live++
		if p < min {
			min = p
		}
	}
	if live == 0 {
		return 0
	}
	return min
}

// RemoveMember excludes a crashed replica from the completion wait
// (§5.3 server-failure handling; the cluster controller invokes it
// alongside removing the replica from the switch's address set). A
// crashed leader is replaced by the view-change timers.
func (r *Replica) RemoveMember(i int) {
	if i >= 0 && i < len(r.dead) {
		r.dead[i] = true
		r.advanceCompletions()
	}
}

// advanceCompletions releases the WRITE-COMPLETIONs up to the
// completion point and trims the log to it: no live member will ask
// for an op it has executed. The trim follows completionPoint, not
// completed, which the eager ablation advances at commit.
func (r *Replica) advanceCompletions() {
	target := r.completionPoint()
	if !r.opts.EagerCompletions {
		for r.completed < target {
			r.completed++
			pkt := r.log.At(r.completed).Pkt
			r.Env.SendSwitch(r.Completion(pkt.ObjID, pkt.Seq))
		}
	}
	r.log.TrimTo(target)
}

// --- state transfer ---

func (r *Replica) stateTransfer(view uint64) {
	r.Env.Send(r.leaderFor(view), getState{View: view, OpNum: r.opNum(), Replica: r.Group.Self})
}

func (r *Replica) leaderFor(view uint64) simnet.NodeID {
	return r.Group.Addr(int(view % uint64(r.Group.N())))
}

func (r *Replica) recvGetState(m getState) {
	if m.View != r.view || r.status != statusNormal || !r.IsLeader() {
		return
	}
	if m.OpNum < r.log.Base() && r.dead[m.Replica] {
		// Trimmed without waiting for it: unlike a live member's
		// overtaken request (OpLog.Copy), this one needs what is gone.
		panic(fmt.Sprintf("vr: replica %d, declared dead, asks for op %d and the log window starts at op %d: "+
			"replica rejoin needs a snapshot transfer, which is not modelled", m.Replica, m.OpNum+1, r.log.Base()+1))
	}
	first, log := r.log.Copy(m.OpNum+1, r.opNum())
	r.Env.Send(r.Group.Addr(m.Replica), newState{View: r.view, FirstOp: first, Log: log, CommitNum: r.commitNum})
}

func (r *Replica) recvNewState(m newState) {
	defer m.Release()
	if m.View < r.view {
		return
	}
	if m.View > r.view {
		r.enterView(m.View)
	}
	if m.FirstOp != r.opNum()+1 {
		return // stale response; a newer transfer is in flight
	}
	r.log.Adopt(m.FirstOp, m.Log, r.opNum())
	r.executeUpTo(m.CommitNum)
	r.touchLeader()
}

// --- view changes ---

func (r *Replica) startViewChange(newView uint64) {
	if newView <= r.view {
		return
	}
	if r.status == statusNormal {
		r.lastNormalView = r.view
	}
	r.view = newView
	r.status = statusViewChange
	r.ViewChanges++
	r.voteSVC(newView, r.Group.Self)
	r.broadcast(startViewChange{View: newView, Replica: r.Group.Self})
	// Re-arm the timeout: if this view change stalls, try the next.
	r.vcTimer.Stop()
	if r.opts.ViewChangeTimeout > 0 {
		r.vcTimer = r.Env.After(r.opts.ViewChangeTimeout, func() {
			if r.status == statusViewChange {
				r.startViewChange(r.view + 1)
			}
		})
	}
}

func (r *Replica) voteSVC(view uint64, replica int) bool {
	votes, ok := r.svcVotes[view]
	if !ok {
		votes = make(map[int]bool)
		r.svcVotes[view] = votes
	}
	votes[replica] = true
	return len(votes) >= r.Group.Quorum()
}

func (r *Replica) recvStartViewChange(m startViewChange) {
	if m.View < r.view || (m.View == r.view && r.status == statusNormal) {
		return
	}
	if m.View > r.view {
		r.startViewChange(m.View)
	}
	if r.voteSVC(m.View, m.Replica) {
		// Send DO-VIEW-CHANGE to the new leader once a quorum agrees.
		lead := int(m.View % uint64(r.Group.N()))
		first, log := r.window()
		dvc := doViewChange{
			View: m.View, FirstOp: first, Log: log,
			LastNormalView: r.lastNormalView, CommitNum: r.commitNum, Replica: r.Group.Self,
		}
		if lead == r.Group.Self {
			r.recvDoViewChange(dvc)
		} else {
			r.Env.Send(r.Group.Addr(lead), dvc)
		}
	}
}

// window copies the whole log window for a view-change message. It
// always reaches far enough down: the window starts at or below the op
// every live member has executed, and a receiver keeps its own
// executed prefix (adoptLog).
func (r *Replica) window() (first uint64, log []protocol.LogEntry) { return r.log.Copy(0, r.opNum()) }

func (r *Replica) recvDoViewChange(m doViewChange) {
	if m.View > r.view {
		r.startViewChange(m.View)
	}
	// Only the view's leader collects these, and only until it has
	// started the view: a straggler must not sit in dvcMsgs pinning a
	// copy of the window.
	if m.View < r.view || r.status != statusViewChange || int(m.View%uint64(r.Group.N())) != r.Group.Self {
		m.Release()
		return
	}
	msgs, ok := r.dvcMsgs[m.View]
	if !ok {
		msgs = make(map[int]doViewChange)
		r.dvcMsgs[m.View] = msgs
	}
	msgs[m.Replica].Release()
	msgs[m.Replica] = m
	if len(msgs) < r.Group.Quorum() {
		return
	}
	// Choose the log from the replica with the largest
	// (lastNormalView, opNum).
	best := m
	for _, cand := range msgs {
		if cand.LastNormalView > best.LastNormalView ||
			(cand.LastNormalView == best.LastNormalView && cand.opNum() > best.opNum()) {
			best = cand
		}
	}
	maxCommit := uint64(0)
	for _, cand := range msgs {
		if cand.CommitNum > maxCommit {
			maxCommit = cand.CommitNum
		}
	}
	r.adoptLog(best.FirstOp, best.Log)
	r.enterNormal()
	// Every recipient gets a copy of its own: a message owns the
	// references it carries.
	for i := 0; i < r.Group.N(); i++ {
		if i != r.Group.Self {
			first, log := r.window()
			r.Env.Send(r.Group.Addr(i), startView{View: r.view, FirstOp: first, Log: log, CommitNum: maxCommit})
		}
	}
	// Re-prepare uncommitted suffix bookkeeping.
	r.resetAcks(maxCommit)
	r.executeUpTo(maxCommit)
	r.execPoint[r.Group.Self] = r.commitNum
	// What was trimmed here every live member had executed, which is
	// the condition a completion waits for: an earlier leader sent
	// those.
	r.completed = max(r.completed, r.log.Base())
	r.armTimers()
	if r.OnViewChange != nil {
		r.OnViewChange(r.view, r.Group.Self)
	}
	// Drive commits for the re-prepared suffix (others will ack).
	r.maybeCommit(r.commitNum + 1)
}

func (r *Replica) recvStartView(m startView) {
	defer m.Release()
	if m.View < r.view {
		return
	}
	r.view = m.View
	r.adoptLog(m.FirstOp, m.Log)
	r.enterNormal()
	r.lastNormalView = m.View
	// Acknowledge the uncommitted suffix to the new leader.
	for op := m.CommitNum + 1; op <= r.opNum(); op++ {
		r.sendPrepareOK(op)
	}
	r.executeUpTo(m.CommitNum)
	r.armTimers()
	r.touchLeader()
	if r.OnViewChange != nil {
		r.OnViewChange(r.view, r.Leader())
	}
}

// adoptLog installs a log window from a view change above this
// replica's executed prefix, re-executing nothing: commitNum only moves
// forward and logs agree on committed prefixes.
func (r *Replica) adoptLog(first uint64, log []protocol.LogEntry) {
	r.log.Adopt(first, log, r.commitNum)
	// Restore the switch-seq guard from the log tail; a tail that was
	// trimmed has been executed.
	r.lastSwitchSeq = r.Store.LastApplied()
	if r.log.Len() > 0 {
		r.lastSwitchSeq = r.log.At(r.opNum()).Pkt.Seq
	}
}

func (r *Replica) enterView(view uint64) {
	r.view = view
	r.enterNormal()
	r.lastNormalView = view
	r.armTimers()
}

// enterNormal puts the replica in normal status in r.view and drops the
// view-change bookkeeping: every vote and DO-VIEW-CHANGE it holds is
// for this view or an earlier one, and no handler reads those again.
func (r *Replica) enterNormal() {
	r.status = statusNormal
	clear(r.svcVotes)
	for _, msgs := range r.dvcMsgs {
		for _, m := range msgs {
			m.Release()
		}
	}
	clear(r.dvcMsgs)
}
