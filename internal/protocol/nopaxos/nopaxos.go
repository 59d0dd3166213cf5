// Package nopaxos implements NOPaxos (Li et al., OSDI 2016) with the
// Harmonia adaptations of §7.3.
//
// NOPaxos replaces leader-driven ordering with an in-network sequencer:
// client writes are stamped with a session and message number and
// multicast to every replica (ordered unreliable multicast, OUM). In
// this reproduction the Harmonia switch doubles as the sequencer — the
// paper notes the two naturally share a switch — so the Harmonia
// sequence number (epoch = OUM session, counter = message number) is
// the OUM stamp, and the scheduler's MulticastWrites mode performs the
// delivery.
//
// Replicas append sequenced writes to their logs; only the leader
// executes immediately and answers the client. Drops appear as message
// -number gaps: followers fetch missing entries from the leader, and a
// gap at the leader is resolved by committing a NO-OP in that slot
// (gap agreement, leader-driven here). A periodic synchronization
// (SYNC-PREPARE / SYNC-ACK / SYNC-COMMIT) brings all replicas' executed
// state to a common prefix; per §7.3, completion of a synchronization
// is when the leader releases WRITE-COMPLETIONs for the objects
// affected in the synced range.
//
// Scope note: NOPaxos view changes (leader failure) are not
// implemented; the paper's evaluation does not exercise them, and the
// Harmonia integration is unaffected.
package nopaxos

import (
	"fmt"
	"slices"
	"time"

	"harmonia/internal/protocol"
	"harmonia/internal/sim"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// --- protocol messages ---

// gapRequest asks the leader for missing log entries [From, To].
type gapRequest struct {
	From, To uint64 // op numbers
	Replica  int
}

// CostClass marks gap traffic as control.
func (gapRequest) CostClass() protocol.CostClass { return protocol.CostControl }

// gapReply returns entries starting at First (a nil Pkt is an agreed
// NO-OP). It owns a reference to every packet it carries
// (protocol.OpLog.Copy), which the handler releases when it returns.
type gapReply struct {
	First   uint64
	Entries []protocol.LogEntry
}

// CostClass marks gap traffic as control.
func (gapReply) CostClass() protocol.CostClass { return protocol.CostControl }

// Release drops the references the message carries.
func (m gapReply) Release() { protocol.ReleaseEntries(m.Entries) }

// gapCommit instructs replicas to place a NO-OP at OpNum (replacing a
// real entry if they had one — the slot's fate is decided by the
// leader). Epoch identifies the OUM session the slot belongs to, so a
// replica that has not yet seen any write of that session establishes
// the correct session base.
type gapCommit struct {
	Epoch uint32
	OpNum uint64
}

// CostClass marks gap traffic as control.
func (gapCommit) CostClass() protocol.CostClass { return protocol.CostControl }

// syncPrepare starts a synchronization round up to OpNum. Stable, here
// and in syncCommit, is the leader's trim point — the lowest sync point
// its live members last acknowledged, all of it executed everywhere —
// and a follower trims its log to min(Stable, its own executed op).
type syncPrepare struct {
	OpNum  uint64
	Stable uint64
}

// CostClass marks sync traffic as control.
func (syncPrepare) CostClass() protocol.CostClass { return protocol.CostControl }

// syncAck confirms the replica's log covers OpNum. SyncPoint tells the
// leader how far this replica has already synchronized, so the commit
// can carry exactly the NO-OP positions the replica has not yet
// reconciled.
type syncAck struct {
	OpNum     uint64
	Replica   int
	SyncPoint uint64
}

// CostClass marks sync traffic as control.
func (syncAck) CostClass() protocol.CostClass { return protocol.CostControl }

// syncCommit finalizes the round: the recipient reconciles the listed
// NO-OP slots (a gapCommit may have been lost — without this, a
// follower could execute a real entry in a slot the leader declared
// NO-OP, diverging permanently) and then executes through OpNum.
type syncCommit struct {
	OpNum  uint64
	NoOps  []uint64 // NO-OP op numbers in (recipient's SyncPoint, OpNum]; read-only, shared with the leader
	Stable uint64
}

// CostClass marks sync traffic as control.
func (syncCommit) CostClass() protocol.CostClass { return protocol.CostControl }

// Options tunes the replica.
type Options struct {
	// SyncEvery is the leader's synchronization cadence. Zero disables
	// the timer (tests drive syncs manually via ForceSync).
	SyncEvery time.Duration
}

// DefaultOptions returns the standard sync cadence.
func DefaultOptions() Options { return Options{SyncEvery: time.Millisecond} }

// Replica is one NOPaxos group member. Index 0 is the leader.
type Replica struct {
	*protocol.Base
	opts Options

	// log holds the ops above the trim point (a nil packet is an agreed
	// NO-OP); its Last is the log length.
	log      protocol.OpLog
	curEpoch uint32 // current OUM session
	sessBase uint64 // log length when the session began
	lastMsg  uint64 // last in-session message number appended

	pending map[uint64]*wire.Packet // buffered out-of-order arrivals (opNum → write)

	executed  uint64 // ops executed against the store
	syncPoint uint64 // last synchronized op

	// Leader bookkeeping. All of it covers the log window only: rounds
	// at or below the committed one and NO-OP positions at or below the
	// trim point are dropped.
	syncAcks     map[uint64]map[int]uint64 // open rounds: opNum → replica → acked sync point
	lastSyncSent uint64
	completedOp  uint64   // ops whose completions have been released
	noopPos      []uint64 // sorted op numbers of committed NO-OPs above the trim point
	lastAcked    []uint64 // per replica: the newest sync point it acknowledged
	dead         []bool   // replicas excluded from the trim point

	// Scratch reused across rounds.
	freeAcks []map[int]uint64 // cleared ack maps of closed rounds
	latest   map[wire.ObjectID]wire.Seq
	order    []wire.ObjectID

	syncTimer sim.Timer

	// Stats
	WritesExecuted uint64
	NoOps          uint64
	Syncs          uint64
}

// New builds a NOPaxos replica.
func New(env protocol.Env, g protocol.GroupConfig, shards int, opts Options) *Replica {
	r := &Replica{
		Base:     protocol.NewBase(env, g, protocol.ReadBehind, shards),
		opts:     opts,
		pending:  make(map[uint64]*wire.Packet),
		syncAcks: make(map[uint64]map[int]uint64),
	}
	if r.IsLeader() {
		r.lastAcked = make([]uint64, g.N())
		r.dead = make([]bool, g.N())
		r.latest = make(map[wire.ObjectID]wire.Seq)
	}
	if r.IsLeader() && opts.SyncEvery > 0 {
		r.syncTimer = env.After(opts.SyncEvery, r.syncTick)
	}
	return r
}

// IsLeader reports whether this replica is the (static) leader.
func (r *Replica) IsLeader() bool { return r.Group.Self == 0 }

func (r *Replica) leaderAddr() simnet.NodeID { return r.Group.Addr(0) }

// LogWindow returns the number of log entries held (tests): the ops
// some live member has yet to synchronize.
func (r *Replica) LogWindow() int { return r.log.Len() }

// HeldPackets returns the packet references the replica holds: its
// log's writes (not its NO-OPs), its out-of-order arrivals and its
// cached replies.
func (r *Replica) HeldPackets() int {
	n := len(r.pending) + r.CT.Held()
	for op := r.log.Base() + 1; op <= r.log.Last(); op++ {
		if r.log.At(op).Pkt != nil {
			n++
		}
	}
	return n
}

// SyncPoint returns the last synchronized op (tests).
func (r *Replica) SyncPoint() uint64 { return r.syncPoint }

// Recv implements simnet.Handler.
func (r *Replica) Recv(from simnet.NodeID, msg simnet.Message) {
	if r.HandleControl(msg) {
		return
	}
	switch m := msg.(type) {
	case *wire.Packet:
		r.recvPacket(m)
	case gapRequest:
		r.recvGapRequest(m)
	case gapReply:
		r.recvGapReply(m)
	case gapCommit:
		r.recvGapCommit(m)
	case syncPrepare:
		r.recvSyncPrepare(m)
	case syncAck:
		r.recvSyncAck(m)
	case syncCommit:
		r.recvSyncCommit(m)
	default:
		// A message in a representation the cases above do not list (a
		// pointer to one of them, say) must not vanish silently.
		panic(fmt.Sprintf("nopaxos: unexpected message %T", msg))
	}
}

func (r *Replica) recvPacket(pkt *wire.Packet) {
	switch pkt.Op {
	case wire.OpWrite:
		r.recvSequencedWrite(pkt)
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
		if !r.IsLeader() {
			r.Env.Send(r.leaderAddr(), pkt)
			return
		}
		r.leaderRead(pkt)
	}
}

// leaderRead serves a normal-path read from the leader's fully
// executed state.
func (r *Replica) leaderRead(pkt *wire.Packet) {
	r.Env.SendSwitch(r.ReadReply(pkt))
	pkt.Release()
}

// recvSequencedWrite handles an OUM-delivered write.
// sessionCheck admits a message from session e, performing the session
// change if e is newer. It reports whether the message is current.
func (r *Replica) sessionCheck(e uint32) bool {
	if e < r.curEpoch {
		return false // stale session
	}
	if e > r.curEpoch {
		// Session change: the old session's undelivered tail is
		// abandoned (clients retry through the new sequencer).
		r.curEpoch = e
		r.sessBase = r.log.Last()
		r.lastMsg = 0
		for _, p := range r.pending {
			p.Release()
		}
		r.pending = make(map[uint64]*wire.Packet)
	}
	return true
}

func (r *Replica) recvSequencedWrite(pkt *wire.Packet) {
	if !r.sessionCheck(pkt.Seq.Epoch) {
		pkt.Release() // stale session; the client retries
		return
	}
	n := pkt.Seq.N
	switch {
	case n == r.lastMsg+1:
		r.appendWrite(pkt)
		r.drainPending()
	case n > r.lastMsg+1:
		// Gap: buffer this write and ask the leader for the missing
		// range. The leader resolves its own gaps with NO-OPs.
		r.pending[r.sessBase+n] = pkt
		if r.IsLeader() {
			r.leaderFillGaps(n)
		} else {
			r.Env.Send(r.leaderAddr(), gapRequest{
				From: r.sessBase + r.lastMsg + 1, To: r.sessBase + n - 1, Replica: r.Group.Self,
			})
		}
	default:
		// Duplicate delivery; already have it.
		pkt.Release()
	}
}

// appendWrite appends the next in-order write; the leader executes and
// replies immediately.
func (r *Replica) appendWrite(pkt *wire.Packet) {
	r.log.Append(pkt, 0)
	r.lastMsg = pkt.Seq.N
	if r.IsLeader() {
		r.executeThrough(r.log.Last())
	}
}

// leaderFillGaps commits NO-OPs for the leader's own missing slots up
// to (but excluding) message n, then drains the buffer.
func (r *Replica) leaderFillGaps(n uint64) {
	for r.lastMsg+1 < n {
		r.lastMsg++
		r.log.Append(nil, 0)
		r.NoOps++
		op := r.sessBase + r.lastMsg
		r.noopPos = append(r.noopPos, op)
		r.executeThrough(r.log.Last())
		r.broadcast(gapCommit{Epoch: r.curEpoch, OpNum: op})
	}
	r.drainPending()
}

// drainPending consumes buffered arrivals that are now in order.
func (r *Replica) drainPending() {
	for {
		op := r.sessBase + r.lastMsg + 1
		pkt, ok := r.pending[op]
		if !ok {
			return
		}
		delete(r.pending, op)
		r.appendWrite(pkt)
	}
}

func (r *Replica) broadcast(msg any) {
	for i := 0; i < r.Group.N(); i++ {
		if i != r.Group.Self {
			r.Env.Send(r.Group.Addr(i), msg)
		}
	}
}

// executeThrough executes log entries (leader: as they arrive;
// followers: at sync) up to opNum.
func (r *Replica) executeThrough(opNum uint64) {
	for r.executed < opNum && r.executed < r.log.Last() {
		r.executed++
		pkt := r.log.At(r.executed).Pkt
		if pkt == nil {
			continue // NO-OP
		}
		// The write gate runs at EVERY replica during execution, not
		// just the leader: a client retry is a second log entry (the
		// sequencer cannot deduplicate), and if followers applied it
		// while the leader's client table skipped it, their states would
		// diverge whenever the duplicate lands after a newer write to
		// the same object. Executing the same log with the same table
		// and store yields identical decisions everywhere; only the
		// leader answers. The order guard drops an abandoned
		// old-session entry that surfaces after a session change let a
		// higher-seq write apply.
		if r.AdmitWrite(pkt, r.Store.LastApplied(), r.IsLeader()) != protocol.Admitted {
			continue
		}
		_ = r.Apply(pkt) // in order: the gate checked
		r.WritesExecuted++
		// The client table takes its own reference; the leader's send
		// transfers this one, a follower drops it (nothing is sent).
		rep := r.WriteReply(pkt, false)
		r.CT.Complete(pkt.ClientID, pkt.ReqID, rep)
		if r.IsLeader() {
			r.Env.SendSwitch(rep)
		} else {
			rep.Release()
		}
	}
}

// --- gap handling ---

func (r *Replica) recvGapRequest(m gapRequest) {
	if !r.IsLeader() {
		return
	}
	// The leader resolves slots it does not have yet as NO-OPs (its
	// own gap handling), then answers from its log.
	if m.To > r.log.Last() {
		if m.To > r.sessBase {
			r.leaderFillGaps(m.To - r.sessBase + 1)
		}
	}
	if m.From > r.log.Last() || m.From == 0 {
		return
	}
	if m.From <= r.log.Base() && m.Replica > 0 && m.Replica < len(r.dead) && r.dead[m.Replica] {
		// Trimmed without waiting for it: unlike a live follower's
		// overtaken request (OpLog.Copy), this one needs what is gone.
		panic(fmt.Sprintf("nopaxos: replica %d, declared dead, asks for op %d and the log window starts at op %d: "+
			"replica rejoin needs a snapshot transfer, which is not modelled", m.Replica, m.From, r.log.Base()+1))
	}
	first, ents := r.log.Copy(m.From, min(m.To, r.log.Last()))
	r.Env.Send(r.Group.Addr(m.Replica), gapReply{First: first, Entries: ents})
}

func (r *Replica) recvGapReply(m gapReply) {
	defer m.Release()
	for i, e := range m.Entries {
		op := m.First + uint64(i)
		if op != r.log.Last()+1 {
			continue // already have it (or still out of order)
		}
		if e.Pkt != nil {
			if !r.sessionCheck(e.Pkt.Seq.Epoch) {
				continue
			}
			r.log.Append(e.Pkt.Retain(), 0)
			r.lastMsg = e.Pkt.Seq.N
		} else {
			r.log.Append(nil, 0)
			r.lastMsg++
			r.NoOps++
		}
	}
	r.drainPending()
}

// setNoOp turns the slot of op, not yet executed, into a NO-OP.
func (r *Replica) setNoOp(op uint64) {
	e := r.log.At(op)
	if e.Pkt != nil {
		e.Pkt.Release()
		e.Pkt = nil
	}
}

func (r *Replica) recvGapCommit(m gapCommit) {
	if !r.sessionCheck(m.Epoch) {
		return
	}
	switch {
	case m.OpNum == r.log.Last()+1:
		r.log.Append(nil, 0)
		r.lastMsg++
		r.NoOps++
		r.drainPending()
	case m.OpNum <= r.log.Last():
		// The leader declared this slot a NO-OP; replace a real entry
		// if it is not yet executed (executed entries can only differ
		// if the sync protocol misfired, which would be a bug).
		if m.OpNum > r.executed {
			r.setNoOp(m.OpNum)
		}
	default:
		// Future slot: note it in pending as a NO-OP via log growth
		// when preceding entries arrive. Simplest: ignore; the next
		// sync or gap request will reconcile.
	}
}

// --- synchronization (§7.3 completion source) ---

func (r *Replica) syncTick() {
	if r.IsLeader() {
		r.ForceSync()
		r.syncTimer = r.Env.After(r.opts.SyncEvery, r.syncTick)
	}
}

// ForceSync starts a synchronization round at the leader for its
// current log length.
func (r *Replica) ForceSync() {
	if !r.IsLeader() {
		return
	}
	op := r.log.Last()
	if op <= r.syncPoint || op == r.lastSyncSent {
		return
	}
	r.lastSyncSent = op
	var acks map[int]uint64
	if n := len(r.freeAcks); n > 0 {
		acks, r.freeAcks = r.freeAcks[n-1], r.freeAcks[:n-1]
	} else {
		acks = make(map[int]uint64)
	}
	acks[0] = r.syncPoint
	r.syncAcks[op] = acks
	r.broadcast(syncPrepare{OpNum: op, Stable: r.log.Base()})
	r.maybeCommitSync(op) // single-replica group
}

// noopsIn returns the committed NO-OP positions in (lo, hi], for lo at
// or above the trim point. The result aliases noopPos, whose elements
// are never rewritten, so it can ride a message as it is.
func (r *Replica) noopsIn(lo, hi uint64) []uint64 {
	i, _ := slices.BinarySearch(r.noopPos, lo+1)
	j, _ := slices.BinarySearch(r.noopPos, hi+1)
	if i >= j {
		return nil
	}
	return r.noopPos[i:j:j]
}

// RemoveMember excludes a crashed follower from the trim point, so that
// it stops holding the window open (the cluster controller invokes it
// alongside removing the replica from the switch's address set). The
// leader cannot be removed: its failover, a view change, is not
// modelled.
func (r *Replica) RemoveMember(i int) {
	if i > 0 && i < len(r.dead) {
		r.dead[i] = true
		r.trimStable()
	}
}

// trimStable trims the leader's log, and the NO-OP positions kept for
// reconciling followers, to the lowest sync point a live member last
// acknowledged: every member has executed that far, so none will ask
// for those slots again.
func (r *Replica) trimStable() {
	stable := r.syncPoint
	for i := 1; i < len(r.lastAcked); i++ {
		if !r.dead[i] {
			stable = min(stable, r.lastAcked[i])
		}
	}
	r.log.TrimTo(stable)
	i, _ := slices.BinarySearch(r.noopPos, stable+1)
	r.noopPos = r.noopPos[i:]
}

func (r *Replica) recvSyncPrepare(m syncPrepare) {
	if r.IsLeader() {
		return
	}
	r.log.TrimTo(min(m.Stable, r.executed))
	if r.log.Last() < m.OpNum {
		// Missing tail: fetch it first; ack after the gap reply via
		// the next sync round.
		r.Env.Send(r.leaderAddr(), gapRequest{
			From: r.log.Last() + 1, To: m.OpNum, Replica: r.Group.Self,
		})
		return
	}
	r.Env.Send(r.leaderAddr(), syncAck{OpNum: m.OpNum, Replica: r.Group.Self, SyncPoint: r.syncPoint})
}

func (r *Replica) recvSyncAck(m syncAck) {
	if !r.IsLeader() || m.Replica <= 0 || m.Replica >= r.Group.N() {
		return
	}
	if m.SyncPoint > r.lastAcked[m.Replica] {
		r.lastAcked[m.Replica] = m.SyncPoint
		r.trimStable()
	}
	acks, ok := r.syncAcks[m.OpNum]
	if !ok {
		// The round already committed (or never existed): answer the
		// late acker directly so it does not have to wait for the
		// next round.
		if m.OpNum <= r.syncPoint {
			r.Env.Send(r.Group.Addr(m.Replica),
				syncCommit{OpNum: m.OpNum, NoOps: r.noopsIn(m.SyncPoint, m.OpNum), Stable: r.log.Base()})
		}
		return
	}
	acks[m.Replica] = m.SyncPoint
	r.maybeCommitSync(m.OpNum)
}

func (r *Replica) maybeCommitSync(op uint64) {
	acks, ok := r.syncAcks[op]
	if !ok || len(acks) < r.Group.Quorum() || op <= r.syncPoint {
		return
	}
	r.Syncs++
	prev := r.syncPoint
	r.syncPoint = op
	// Unicast the commit with per-replica NO-OP reconciliation lists:
	// each follower needs exactly the NO-OPs between its own sync
	// point and this round's target (its gapCommits may have been
	// dropped).
	for i := 0; i < r.Group.N(); i++ {
		if i == r.Group.Self {
			continue
		}
		from, acked := acks[i]
		if !acked {
			continue // lagging replica catches the next round
		}
		r.Env.Send(r.Group.Addr(i), syncCommit{OpNum: op, NoOps: r.noopsIn(from, op), Stable: r.log.Base()})
	}
	// This round and every round it overtook are closed: a later ack
	// for one is answered like any late ack.
	for round, acks := range r.syncAcks {
		if round <= op {
			delete(r.syncAcks, round)
			clear(acks)
			r.freeAcks = append(r.freeAcks, acks)
		}
	}
	// §7.3: upon completion of a synchronization the leader sends
	// WRITE-COMPLETIONs for all objects affected in the synced range,
	// each carrying the object's newest sequenced write so the dirty
	// set entry clears only when no newer write is pending.
	latest, order := r.latest, r.order[:0]
	for i := prev + 1; i <= op; i++ {
		pkt := r.log.At(i).Pkt
		if pkt == nil {
			continue // NO-OP
		}
		if _, seen := latest[pkt.ObjID]; !seen {
			order = append(order, pkt.ObjID)
		}
		if latest[pkt.ObjID].Less(pkt.Seq) {
			latest[pkt.ObjID] = pkt.Seq
		}
	}
	for _, obj := range order {
		r.Env.SendSwitch(r.Completion(obj, latest[obj]))
	}
	clear(latest)
	r.order = order
	r.completedOp = op
	r.trimStable()
}

func (r *Replica) recvSyncCommit(m syncCommit) {
	if r.log.Last() < m.OpNum {
		// Shouldn't normally happen (we ack only when covered), but a
		// commit can outrun a gap fill; fetch and let the next round
		// settle.
		r.Env.Send(r.leaderAddr(), gapRequest{
			From: r.log.Last() + 1, To: m.OpNum, Replica: r.Group.Self,
		})
		return
	}
	if m.OpNum <= r.syncPoint {
		return // stale or duplicate round
	}
	// Reconcile NO-OP slots the leader committed but whose gapCommits
	// we may have missed; these are all beyond our executed prefix
	// (we only execute synchronized slots, and the list covers
	// (ourSyncPoint, OpNum]).
	for _, op := range m.NoOps {
		if op > r.executed && op <= r.log.Last() && r.log.At(op).Pkt != nil {
			r.setNoOp(op)
			r.NoOps++
		}
	}
	r.syncPoint = m.OpNum
	r.executeThrough(m.OpNum)
	r.log.TrimTo(min(m.Stable, r.executed))
}
