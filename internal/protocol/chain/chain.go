// Package chain implements chain replication (van Renesse & Schneider,
// OSDI 2004) with the Harmonia adaptations of §7.2, and CRAQ (Terrace &
// Freedman, USENIX ATC 2009) as its apportioned-read mode: the
// protocol-level alternative to Harmonia that the paper compares
// against in §9.5.
//
// Replicas form a chain: the first live member is the head, the last
// the tail. Writes enter at the head and propagate down; the tail's
// application commits the write and produces the client reply, which
// piggybacks the WRITE-COMPLETION through the switch. Normal-path reads
// are served by the tail (whose state is exactly the committed state);
// Harmonia fast-path reads may land on any replica and are validated
// with the read-ahead integrity check.
//
// Commit acknowledgments flow back up the chain so that each node can
// trim its resend buffer; on a node failure, the survivors re-link
// around it and resend their unacknowledged writes, and the successor's
// in-order guard discards what it already has.
//
// In CRAQ mode every node serves reads, without switch assistance (the
// cluster routes reads to a uniformly random replica). A node's store
// holds its clean (committed) versions; its resend buffer holds the
// dirty ones, which reach the store when the up-chain ack commits them.
// That ack does real per-object work at every node, the extra write
// cost Harmonia avoids by moving conflict tracking into the switch. A
// read of a dirty object asks the tail which version committed and
// returns that one.
package chain

import (
	"fmt"

	"harmonia/internal/protocol"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// propagate carries a write down the chain.
type propagate struct {
	Pkt *wire.Packet
}

// CostClass marks propagation as a full write application.
func (propagate) CostClass() protocol.CostClass { return protocol.CostWrite }

// Release gives back the reference of a propagation the network dropped.
func (m propagate) Release() { m.Pkt.Release() }

// ack flows from the tail up the chain announcing the commit point,
// letting nodes trim their resend buffers. One per hop per write: it
// travels as a pointer to a recycled record (ownership rule in
// protocol/msgs.go). propagate needs none — a struct of one pointer
// rides in the interface word itself.
type ack struct {
	Seq wire.Seq
	// Commit marks a CRAQ ack, which commits every version it trims —
	// the new clean version, the old one collected — and is charged as
	// a write: that is what halves CRAQ's write throughput relative to
	// chain replication in Fig. 9(a).
	Commit bool
}

// CostClass charges a CRAQ ack like a write and a chain ack as control
// traffic.
func (m ack) CostClass() protocol.CostClass {
	if m.Commit {
		return protocol.CostWrite
	}
	return protocol.CostControl
}

// versionQuery asks the tail for an object's committed version on
// behalf of a CRAQ read of a dirty object.
type versionQuery struct {
	Pkt *wire.Packet // the pending read, echoed back opaquely
}

// CostClass marks the query as control traffic at the tail.
func (versionQuery) CostClass() protocol.CostClass { return protocol.CostControl }

// Release gives back the pending read of a query the network dropped.
func (m versionQuery) Release() { m.Pkt.Release() }

// versionReply answers a versionQuery: the sequence number of the
// object's committed version, or Found false when the committed state
// holds no such object.
type versionReply struct {
	Seq   wire.Seq
	Found bool
	Pkt   *wire.Packet
}

// CostClass marks the reply as control traffic.
func (versionReply) CostClass() protocol.CostClass { return protocol.CostControl }

// Release gives back the pending read of a reply the network dropped.
func (m versionReply) Release() { m.Pkt.Release() }

// Replica is one chain node.
type Replica struct {
	*protocol.Base

	// next and prev are chain-neighbor indexes (-1 at the ends); they
	// change under reconfiguration.
	next, prev int
	// dead marks the indexes removed from the chain.
	dead []bool

	// unacked is the resend buffer: the writes forwarded but not yet
	// known committed, in sequence order, for resend on successor
	// failure. Acks trim it. In CRAQ mode these are the node's dirty
	// versions.
	unacked protocol.OpLog

	// craq selects CRAQ's apportioned reads: writes reach the store at
	// commit, and dirtyN counts the versions in unacked per object — an
	// object is dirty here while it has one.
	craq   bool
	dirtyN map[wire.ObjectID]int

	// acks and reReplies are shared by the engine's chain nodes.
	acks      *protocol.FreeList[ack]
	reReplies *protocol.FreeList[protocol.ReReply]

	// Stats
	WritesCommitted uint64 // tail only
	ReadsServed     uint64 // tail normal-path reads
	CleanReads      uint64 // CRAQ reads answered from the store
	DirtyReads      uint64 // CRAQ reads that needed a tail version query
}

// New builds a chain node that serves normal-path reads at the tail.
func New(env protocol.Env, g protocol.GroupConfig, shards int) *Replica {
	return NewMode(env, g, shards, false)
}

// NewMode builds a chain node, in CRAQ mode if craq is set.
func NewMode(env protocol.Env, g protocol.GroupConfig, shards int, craq bool) *Replica {
	r := &Replica{
		Base:      protocol.NewBase(env, g, protocol.ReadAhead, shards),
		dead:      make([]bool, g.N()),
		craq:      craq,
		dirtyN:    make(map[wire.ObjectID]int),
		acks:      protocol.FreeLists[protocol.FreeList[ack]](env.Msgs()),
		reReplies: protocol.FreeLists[protocol.FreeList[protocol.ReReply]](env.Msgs()),
	}
	r.next, r.prev = r.neighbor(1), r.neighbor(-1)
	return r
}

// neighbor returns the nearest live member after this node (step 1) or
// before it (step -1), or -1 at that end of the chain.
func (r *Replica) neighbor(step int) int {
	for i := r.Group.Self + step; i >= 0 && i < r.Group.N(); i += step {
		if !r.dead[i] {
			return i
		}
	}
	return -1
}

// isHead and isTail report chain position under the current
// configuration.
func (r *Replica) isHead() bool { return r.prev == -1 }
func (r *Replica) isTail() bool { return r.next == -1 }

// tailAddr returns the current tail's address, from liveness.
func (r *Replica) tailAddr() simnet.NodeID {
	for i := r.Group.N() - 1; i >= 0; i-- {
		if !r.dead[i] {
			return r.Group.Addr(i)
		}
	}
	return r.Env.ID()
}

// last returns the newest write this node took in: the newest one it
// buffers, or else the store's.
func (r *Replica) last() wire.Seq {
	if r.unacked.Len() > 0 {
		return r.unacked.At(r.unacked.Last()).Pkt.Seq
	}
	return r.Store.LastApplied()
}

// Recv implements simnet.Handler.
func (r *Replica) Recv(from simnet.NodeID, msg simnet.Message) {
	if r.HandleControl(msg) {
		return
	}
	switch m := msg.(type) {
	case *wire.Packet:
		r.recvPacket(m)
	case propagate:
		r.apply(m.Pkt)
	case *ack:
		r.recvAck(r.acks.Take(m).Seq)
	case *protocol.ReReply:
		r.HandleControl(r.reReplies.Take(m))
	case versionQuery:
		o, ok := r.Store.Get(m.Pkt.ObjID)
		r.Env.Send(from, versionReply{Seq: o.Seq, Found: ok, Pkt: m.Pkt})
	case versionReply:
		r.recvVersionReply(m)
	default:
		// A message in a representation the cases above do not list (a
		// recycled type sent by value, say) must not vanish silently.
		panic(fmt.Sprintf("chain: unexpected message %T", msg))
	}
}

func (r *Replica) recvPacket(pkt *wire.Packet) {
	switch pkt.Op {
	case wire.OpWrite:
		if r.isHead() {
			r.headWrite(pkt)
			return
		}
		pkt.Release() // writes to a non-head are a routing error
	case wire.OpRead:
		switch {
		case r.craq:
			r.craqRead(pkt)
		case pkt.Flags&wire.FlagFastPath != 0:
			target := protocol.Target(r.tailAddr())
			if r.isTail() {
				target = protocol.TargetSelf()
			}
			if r.HandleFastRead(pkt, target) {
				r.tailRead(pkt)
			}
		case r.isTail():
			r.tailRead(pkt)
		default:
			// Stale routing: pass the read along to the real tail.
			r.Env.Send(r.tailAddr(), pkt)
		}
	}
}

// headWrite admits a client write at the head.
func (r *Replica) headWrite(pkt *wire.Packet) {
	switch r.AdmitWrite(pkt, r.last(), false) {
	case protocol.Admitted:
		r.apply(pkt)
		return
	case protocol.Duplicate:
		// The tail replies, so it holds the reply cache: ask it to re-send
		// the reply if the write already committed; if still in flight the
		// pending reply will serve the retransmission.
		r.reReplies.Send(r.Env, r.tailAddr(), protocol.ReReply{ClientID: pkt.ClientID, ReqID: pkt.ReqID})
	}
	pkt.Release() // discarded or duplicate: fully handled
}

// apply takes in a write and moves it along the chain, or commits it
// at the tail. In CRAQ mode a non-tail node holds it as a dirty version
// until the ack commits it.
func (r *Replica) apply(pkt *wire.Packet) {
	if !r.last().Less(pkt.Seq) {
		// §5.2 write-order requirement: out-of-order writes are
		// discarded; the client's retry gets a fresh sequence number.
		pkt.Release()
		return
	}
	if r.isTail() {
		r.commit(pkt)
		r.commitAtTail(pkt)
		return
	}
	if r.craq {
		r.dirtyN[pkt.ObjID]++
	} else {
		r.commit(pkt)
	}
	// The resend buffer keeps the delivery reference; the downstream
	// propagation carries its own.
	r.unacked.Append(pkt, 0)
	r.Env.Send(r.Group.Addr(r.next), propagate{Pkt: pkt.Retain()})
}

// commit installs a write in the store. Writes reach it in the order
// apply took them in, so the store's order guard cannot refuse one.
func (r *Replica) commit(pkt *wire.Packet) {
	if err := r.Apply(pkt); err != nil {
		panic("chain: out-of-order commit: " + err.Error())
	}
}

// commitAtTail finishes a write the tail's store holds: the reply,
// which piggybacks the WRITE-COMPLETION, and the ack up the chain.
//
// The switch clears the object from its dirty set on that piggyback in
// CRAQ mode too: CRAQ takes no read assistance from the switch, but
// the switch still sequences its writes, and the dirty set is the
// quiescence signal slot migration drains on.
func (r *Replica) commitAtTail(pkt *wire.Packet) {
	r.WritesCommitted++
	rep := r.WriteReply(pkt, true)
	r.CT.Complete(pkt.ClientID, pkt.ReqID, rep)
	r.Env.SendSwitch(rep)
	r.sendAck(pkt.Seq)
	pkt.Release() // the tail's commit is the write's terminal consumption
}

// sendAck passes the commit point to the predecessor, if there is one.
func (r *Replica) sendAck(seq wire.Seq) {
	if r.prev >= 0 {
		r.acks.Send(r.Env, r.Group.Addr(r.prev), ack{Seq: seq, Commit: r.craq})
	}
}

// recvAck trims the resend buffer and relays the commit point up.
func (r *Replica) recvAck(seq wire.Seq) {
	op, exact := r.unacked.Find(seq)
	if !exact {
		op-- // Find landed on the first write after seq
	}
	r.trimTo(op)
	r.sendAck(seq)
}

// trimTo drops the buffered writes up to op. In CRAQ mode each first
// becomes its object's clean version, superseding the previous one.
//
// A version may commit here after its slot migrated away: the handoff
// drains on the tail's reply, not on the ack climbing the chain, so the
// source can drop the slot first. The late commit then leaves a copy in
// a slot no read is routed to, and a transfer that brings the slot back
// replaces the whole slot table before it serves (cluster ship).
func (r *Replica) trimTo(op uint64) {
	for i := r.unacked.Base() + 1; r.craq && i <= op; i++ {
		pkt := r.unacked.At(i).Pkt
		r.commit(pkt)
		if r.dirtyN[pkt.ObjID]--; r.dirtyN[pkt.ObjID] == 0 {
			delete(r.dirtyN, pkt.ObjID)
		}
	}
	r.unacked.TrimTo(op)
}

// tailRead serves a read from committed state.
func (r *Replica) tailRead(pkt *wire.Packet) {
	r.ReadsServed++
	r.Env.SendSwitch(r.ReadReply(pkt))
	pkt.Release()
}

// craqRead serves a read at this node: a clean object answers from the
// store at once; a dirty one needs the tail's commit point first.
func (r *Replica) craqRead(pkt *wire.Packet) {
	if r.dirtyN[pkt.ObjID] > 0 {
		r.DirtyReads++
		r.Env.Send(r.tailAddr(), versionQuery{Pkt: pkt})
		return
	}
	r.CleanReads++
	r.Env.SendSwitch(r.ReadReply(pkt))
	pkt.Release()
}

// recvVersionReply finishes a dirty read with the version the tail
// committed: still dirty here, or already the clean one in the store —
// which may even be newer, and is then just as committed.
func (r *Replica) recvVersionReply(m versionReply) {
	value, found := []byte(nil), false
	if m.Found {
		o, ok := r.Store.Get(m.Pkt.ObjID)
		value, found = o.Value, ok
		if op, ok := r.unacked.Find(m.Seq); ok {
			if w := r.unacked.At(op).Pkt; w.ObjID == m.Pkt.ObjID {
				value, found = w.Value, w.Flags&wire.FlagDelete == 0
			}
		}
	}
	r.Env.SendSwitch(r.ValueReply(m.Pkt, value, found))
	m.Pkt.Release() // the pending read terminates here
}

// RemoveMember removes a failed node from the chain. Every survivor,
// not only the failed node's predecessor, re-links and recovers the
// writes it has not seen acknowledged: a new tail commits them itself,
// and any other survivor resends them to its (possibly new) successor,
// whose in-order guard discards what it already has.
func (r *Replica) RemoveMember(failed int) {
	if failed < 0 || failed >= r.Group.N() || r.dead[failed] {
		return
	}
	r.dead[failed] = true
	if failed == r.Group.Self {
		return
	}
	r.next, r.prev = r.neighbor(1), r.neighbor(-1)
	// Each recovered write consumes a reference of its own; a new tail
	// then trims the buffer, which commits its dirty versions in CRAQ
	// mode.
	first, last := r.unacked.Base()+1, r.unacked.Last()
	for op := first; op <= last; op++ {
		pkt := r.unacked.At(op).Pkt.Retain()
		if r.isTail() {
			r.commitAtTail(pkt)
		} else {
			r.Env.Send(r.Group.Addr(r.next), propagate{Pkt: pkt})
		}
	}
	if r.isTail() {
		r.trimTo(last)
	}
}

// HeldPackets returns the packet references the node holds: its
// resend buffer and its cached replies.
func (r *Replica) HeldPackets() int { return r.unacked.Len() + r.CT.Held() }
