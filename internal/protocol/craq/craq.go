// Package craq implements CRAQ (Terrace & Freedman, USENIX ATC 2009),
// the protocol-level alternative to Harmonia that the paper compares
// against in §9.5.
//
// CRAQ extends chain replication so any node can serve reads: every
// node keeps, per object, the latest clean (committed) version plus any
// newer dirty versions. Writes run in two phases — a down-chain
// propagation that marks the object dirty at each node, then an
// up-chain commit acknowledgment that marks it clean — which is the
// extra write cost Harmonia avoids by moving conflict tracking into the
// switch. A read of a dirty object asks the tail which version
// committed and returns that one.
//
// A node's clean versions are the shared store of protocol.Base; its
// dirty versions are the writes it applied in phase 1 and has not yet
// learned committed, in sequence order. CRAQ runs without any switch
// assistance: the cluster harness routes reads to a uniformly random
// replica (client-side load balancing).
package craq

import (
	"fmt"

	"harmonia/internal/protocol"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// propagate carries a write down the chain (phase 1: mark dirty).
type propagate struct {
	Pkt *wire.Packet
}

// CostClass marks phase 1 as a full write.
func (propagate) CostClass() protocol.CostClass { return protocol.CostWrite }

// Release gives back the reference of a propagation the network dropped.
func (m propagate) Release() { m.Pkt.Release() }

// commitAck flows up the chain (phase 2: mark clean): every write up to
// Seq committed. CRAQ's extra phase does real per-object work at every
// node — committing the version, garbage-collecting its predecessor —
// so it is charged as a write, which is what halves CRAQ's write
// throughput relative to chain replication in Fig. 9(a). One per hop
// per write: it travels as a pointer to a recycled record (ownership
// rule in protocol/msgs.go).
type commitAck struct {
	Seq wire.Seq
}

// CostClass charges the commit phase like a write.
func (commitAck) CostClass() protocol.CostClass { return protocol.CostWrite }

// versionQuery asks the tail for an object's committed version on
// behalf of a read of a dirty object.
type versionQuery struct {
	From simnet.NodeID
	Pkt  *wire.Packet // the pending read, echoed back opaquely
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

// Replica is one CRAQ chain node.
type Replica struct {
	*protocol.Base

	// dirty holds the writes this node applied in phase 1 and has not
	// yet learned committed, oldest first, and dirtyN counts them per
	// object: an object is dirty here while it has one. The tail commits
	// on apply and holds none.
	dirty  protocol.OpLog
	dirtyN map[wire.ObjectID]int
	last   wire.Seq // newest write applied in phase 1 (§5.2 in-order guard)

	next, prev int

	acks *protocol.FreeList[commitAck] // shared by the engine's CRAQ nodes

	// Stats
	WritesCommitted uint64
	CleanReads      uint64
	DirtyReads      uint64 // reads that needed a tail version query
}

// New builds a CRAQ node.
func New(env protocol.Env, g protocol.GroupConfig, shards int) *Replica {
	r := &Replica{
		Base:   protocol.NewBase(env, g, protocol.ReadAhead, shards),
		dirtyN: make(map[wire.ObjectID]int),
		next:   g.Self + 1,
		prev:   g.Self - 1,
		acks:   protocol.FreeLists[protocol.FreeList[commitAck]](env.Msgs()),
	}
	if r.next >= g.N() {
		r.next = -1
	}
	return r
}

// HeldPackets returns the packet references the node holds: its dirty
// versions and its cached replies.
func (r *Replica) HeldPackets() int { return r.dirty.Len() + r.CT.Held() }

// IsHead and IsTail report chain position.
func (r *Replica) IsHead() bool { return r.Group.Self == 0 }

// IsTail reports whether this node is the tail.
func (r *Replica) IsTail() bool { return r.next == -1 }

func (r *Replica) tailAddr() simnet.NodeID { return r.Group.Addr(r.Group.N() - 1) }

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
	case *commitAck:
		seq := r.acks.Take(m).Seq
		r.commitUpTo(seq)
		r.sendCommit(seq)
	case versionQuery:
		o, ok := r.Store.Get(m.Pkt.ObjID)
		r.Env.Send(m.From, versionReply{Seq: o.Seq, Found: ok, Pkt: m.Pkt})
	case versionReply:
		r.recvVersionReply(m)
	default:
		// A message in a representation the cases above do not list (a
		// recycled type sent by value, say) must not vanish silently.
		panic(fmt.Sprintf("craq: unexpected message %T", msg))
	}
}

func (r *Replica) recvPacket(pkt *wire.Packet) {
	switch pkt.Op {
	case wire.OpWrite:
		if r.IsHead() {
			r.headWrite(pkt)
			return
		}
		pkt.Release() // writes to a non-head are a routing error
	case wire.OpRead:
		r.read(pkt)
	}
}

// headWrite admits a client write and starts phase 1.
func (r *Replica) headWrite(pkt *wire.Packet) {
	switch r.AdmitWrite(pkt, r.last, false) {
	case protocol.Admitted:
		r.apply(pkt)
		return
	case protocol.Duplicate:
		// The tail holds the replies: ask it to re-send one.
		r.Env.Send(r.tailAddr(), protocol.ReReply{ClientID: pkt.ClientID, ReqID: pkt.ReqID})
	}
	pkt.Release() // discarded or duplicate: fully handled
}

// apply runs phase 1 at this node: the write becomes a dirty version
// and moves down the chain, or commits at the tail.
func (r *Replica) apply(pkt *wire.Packet) {
	if !r.last.Less(pkt.Seq) {
		pkt.Release() // out-of-order write discarded
		return
	}
	r.last = pkt.Seq
	if r.IsTail() {
		r.commitAtTail(pkt)
		return
	}
	// The dirty list keeps the delivery reference; the propagation
	// carries its own.
	r.dirty.Append(pkt, 0)
	r.dirtyN[pkt.ObjID]++
	r.Env.Send(r.Group.Addr(r.next), propagate{Pkt: pkt.Retain()})
}

// commitAtTail finishes the write: the tail's apply commits it, and
// phase 2 starts upstream.
func (r *Replica) commitAtTail(pkt *wire.Packet) {
	r.commit(pkt)
	r.WritesCommitted++
	// The reply carries the write's sequence number so the switch on
	// the return path clears the object from its dirty set. CRAQ takes
	// no read assistance from the switch, but the switch still
	// sequences CRAQ's writes, and the dirty set is the quiescence
	// signal slot migration drains on — a reply without the piggyback
	// would leave entries nothing clears.
	rep := r.WriteReply(pkt, true)
	r.CT.Complete(pkt.ClientID, pkt.ReqID, rep)
	r.Env.SendSwitch(rep)
	r.sendCommit(pkt.Seq)
	pkt.Release() // the store holds the committed version
}

// sendCommit passes the commit point to the predecessor, if any.
func (r *Replica) sendCommit(seq wire.Seq) {
	if r.prev >= 0 {
		m := r.acks.Get()
		*m = commitAck{Seq: seq}
		r.Env.Send(r.Group.Addr(r.prev), m)
	}
}

// commitUpTo cleans every dirty version up to seq: each becomes the
// object's clean version in the store, superseding the previous one.
//
// A version may commit here after its slot migrated away: the handoff
// drains on the tail's reply, not on the commit climbing the chain, so
// the source can drop the slot first. The late commit then leaves a copy
// in a slot no read is routed to, and a transfer that brings the slot
// back replaces the whole slot table before it serves (cluster ship).
func (r *Replica) commitUpTo(seq wire.Seq) {
	for r.dirty.Len() > 0 {
		op := r.dirty.Base() + 1
		pkt := r.dirty.At(op).Pkt
		if seq.Less(pkt.Seq) {
			return
		}
		r.commit(pkt)
		r.dirtyN[pkt.ObjID]--
		if r.dirtyN[pkt.ObjID] == 0 {
			delete(r.dirtyN, pkt.ObjID)
		}
		r.dirty.TrimTo(op) // gives the packet back
	}
}

// commit installs a committed version. Versions commit in the order
// phase 1 admitted them, so the store's order guard cannot refuse one.
func (r *Replica) commit(pkt *wire.Packet) {
	if err := r.Apply(pkt); err != nil {
		panic("craq: out-of-order commit: " + err.Error())
	}
}

// recvVersionReply finishes a dirty read with the version the tail
// committed: still dirty here, or already the clean one in the store —
// which may even be newer, and is then just as committed.
func (r *Replica) recvVersionReply(m versionReply) {
	value, found := []byte(nil), false
	if m.Found {
		o, ok := r.Store.Get(m.Pkt.ObjID)
		value, found = o.Value, ok
		if op, ok := r.dirty.Find(m.Seq); ok {
			if w := r.dirty.At(op).Pkt; w.ObjID == m.Pkt.ObjID {
				value, found = w.Value, w.Flags&wire.FlagDelete == 0
			}
		}
	}
	r.Env.SendSwitch(r.ValueReply(m.Pkt, value, found))
	m.Pkt.Release() // the pending read terminates here
}

// read serves a read at this node: a clean object answers from the
// store at once; a dirty one needs the tail's commit point first.
func (r *Replica) read(pkt *wire.Packet) {
	if r.dirtyN[pkt.ObjID] > 0 {
		r.DirtyReads++
		r.Env.Send(r.tailAddr(), versionQuery{From: r.Env.ID(), Pkt: pkt})
		return
	}
	r.CleanReads++
	r.Env.SendSwitch(r.ReadReply(pkt))
	pkt.Release()
}
