// Package pb implements the primary-backup replication protocol (§2 of
// the paper) with the Harmonia adaptations of §7.2.
//
// The primary orders writes and transfers them to every backup; it
// replies to the client only after all backups acknowledge, so the
// protocol is read-ahead: replicas may hold applied-but-uncommitted
// state, and fast-path reads are validated with the last-committed
// stamp (integrity check P2). WRITE-COMPLETIONs piggyback on the write
// reply, which traverses the switch on its way to the client.
package pb

import (
	"fmt"

	"harmonia/internal/protocol"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// update carries a write from the primary to the backups. A struct of
// one pointer rides in the interface word itself: sending it boxes
// nothing.
type update struct {
	Pkt *wire.Packet
}

// CostClass classifies applying the update as a full write.
func (update) CostClass() protocol.CostClass { return protocol.CostWrite }

// Release gives back the reference of an update the network dropped.
func (m update) Release() { m.Pkt.Release() }

// updateAck acknowledges an applied update. One per backup per write:
// it travels as a pointer to a recycled record (ownership rule in
// protocol/msgs.go).
type updateAck struct {
	Seq     wire.Seq
	Replica int
}

// CostClass classifies the ack as control traffic.
func (updateAck) CostClass() protocol.CostClass { return protocol.CostControl }

// queuedRead is a normal-path read waiting for the object's pending
// writes to commit.
type queuedRead struct {
	pkt     *wire.Packet
	barrier wire.Seq // committed point that releases the read
}

// Replica is one primary-backup group member. Index 0 is the primary.
type Replica struct {
	*protocol.Base

	// Primary-only state. pending holds the applied writes awaiting
	// backup acknowledgments, in sequence order; an entry's Acks is the
	// set of backups that applied it, and the write commits once that
	// covers live. Committing trims the window, which gives the write's
	// packet back.
	pending   protocol.OpLog
	deletes   int    // pending writes that delete their object
	live      uint64 // the backups the primary waits for (failure handling removes crashed ones)
	committed wire.Seq
	reads     []queuedRead

	acks *protocol.FreeList[updateAck] // shared by the engine's PB replicas

	// Stats
	ReadsQueued uint64
}

// New builds a replica. shards is the store shard count. The group has
// at most 64 members (the width of an ack set).
func New(env protocol.Env, g protocol.GroupConfig, shards int) *Replica {
	if g.N() > 64 {
		panic("pb: group larger than the 64-replica ack set")
	}
	return &Replica{
		Base: protocol.NewBase(env, g, protocol.ReadAhead, shards),
		live: (1<<uint(g.N()) - 1) &^ 1, // every backup; bit 0 is the primary
		acks: protocol.FreeLists[protocol.FreeList[updateAck]](env.Msgs()),
	}
}

// IsPrimary reports whether this replica is the primary.
func (r *Replica) IsPrimary() bool { return r.Group.Self == 0 }

// primaryAddr returns the primary's address.
func (r *Replica) primaryAddr() simnet.NodeID { return r.Group.Addr(0) }

// Recv implements simnet.Handler.
func (r *Replica) Recv(from simnet.NodeID, msg simnet.Message) {
	if r.HandleControl(msg) {
		return
	}
	switch m := msg.(type) {
	case *wire.Packet:
		r.recvPacket(m)
	case update:
		r.recvUpdate(m)
	case *updateAck:
		r.recvUpdateAck(r.acks.Take(m))
	default:
		// A message in a representation the cases above do not list (a
		// recycled type sent by value, say) must not vanish silently.
		panic(fmt.Sprintf("pb: unexpected message %T", msg))
	}
}

func (r *Replica) recvPacket(pkt *wire.Packet) {
	switch pkt.Op {
	case wire.OpWrite:
		if r.IsPrimary() {
			r.primaryWrite(pkt)
			return
		}
		// Writes to a backup are a routing error; drop.
		pkt.Release()
	case wire.OpRead:
		if pkt.Flags&wire.FlagFastPath != 0 {
			if r.HandleFastRead(pkt, r.normalTarget()) {
				r.normalRead(pkt)
			}
			return
		}
		if r.IsPrimary() {
			r.normalRead(pkt)
			return
		}
		// A normal-path read landed on a backup (stale switch
		// targets); pass it to the primary.
		r.Env.Send(r.primaryAddr(), pkt)
	}
}

func (r *Replica) normalTarget() protocol.SendTarget {
	if r.IsPrimary() {
		return protocol.TargetSelf()
	}
	return protocol.Target(r.primaryAddr())
}

// primaryWrite handles a sequenced write at the primary.
func (r *Replica) primaryWrite(pkt *wire.Packet) {
	if r.AdmitWrite(pkt, r.Store.LastApplied(), true) != protocol.Admitted {
		pkt.Release() // discarded or duplicate: fully handled
		return
	}
	// The gate passed the write in sequence order, so it applies.
	_ = r.Apply(pkt)
	// The pending window keeps the delivery reference; each backup
	// update carries its own, released by recvUpdate.
	r.pending.Append(pkt, 0)
	if pkt.Flags&wire.FlagDelete != 0 {
		r.deletes++
	}
	for i := 1; i < r.Group.N(); i++ {
		if r.live&(1<<uint(i)) != 0 {
			r.Env.Send(r.Group.Addr(i), update{Pkt: pkt.Retain()})
		}
	}
	r.maybeCommit(r.pending.Last()) // zero backups: commits immediately
}

// recvUpdate applies a state transfer at a backup.
func (r *Replica) recvUpdate(m update) {
	pkt := m.Pkt
	defer pkt.Release() // the backup keeps nothing past this call
	if err := r.Apply(pkt); err != nil {
		// Out-of-order update: dropped, no ack, so the write cannot
		// commit and the client will retry. This keeps the §5.2
		// invariant without any reordering buffer.
		return
	}
	r.acks.Send(r.Env, r.primaryAddr(), updateAck{Seq: pkt.Seq, Replica: r.Group.Self})
}

// recvUpdateAck collects acknowledgments at the primary.
func (r *Replica) recvUpdateAck(m updateAck) {
	op, ok := r.pending.Find(m.Seq)
	if !ok {
		return // committed already
	}
	r.pending.At(op).Acks |= 1 << uint(m.Replica)
	r.maybeCommit(op)
}

// maybeCommit commits the pending write at op — and every earlier one,
// in log order — once every live backup acknowledged it. Because
// backups apply updates in sequence order, full acknowledgment of op
// implies every earlier write is applied everywhere, even if its acks
// were reordered away. Each commit replies to the client with a
// piggybacked WRITE-COMPLETION.
func (r *Replica) maybeCommit(op uint64) {
	if op <= r.pending.Base() || r.pending.At(op).Acks&r.live != r.live {
		return
	}
	for r.pending.Base() < op {
		pkt := r.pending.At(r.pending.Base() + 1).Pkt
		r.committed = r.committed.Max(pkt.Seq)
		rep := r.WriteReply(pkt, true)
		r.CT.Complete(pkt.ClientID, pkt.ReqID, rep)
		r.Env.SendSwitch(rep)
		if pkt.Flags&wire.FlagDelete != 0 {
			r.deletes--
		}
		r.pending.TrimTo(r.pending.Base() + 1) // retires the write's packet
	}
	r.releaseReads()
}

// normalRead serves a read on the normal protocol path at the primary:
// reads of objects with pending (uncommitted) writes wait for the
// newest of them to commit, so the reply always reflects committed
// state.
func (r *Replica) normalRead(pkt *wire.Packet) {
	if barrier, ok := r.newestPending(pkt.ObjID); ok {
		r.ReadsQueued++
		r.reads = append(r.reads, queuedRead{pkt: pkt, barrier: barrier})
		return
	}
	r.Env.SendSwitch(r.ReadReply(pkt))
	pkt.Release()
}

// newestPending returns the sequence number of the newest pending write
// to id, if there is one. The primary applies a write when it admits
// it, so the store's version of id is the newest write to it, pending
// exactly when the window holds it. A delete leaves nothing in the
// store: the window is searched for id only while a delete is pending.
func (r *Replica) newestPending(id wire.ObjectID) (wire.Seq, bool) {
	if o, ok := r.Store.Get(id); ok {
		op, ok := r.pending.Find(o.Seq)
		return o.Seq, ok && r.pending.At(op).Pkt.ObjID == id
	}
	if r.deletes == 0 {
		return wire.Seq{}, false
	}
	for op := r.pending.Last(); op > r.pending.Base(); op-- {
		if w := r.pending.At(op).Pkt; w.ObjID == id {
			return w.Seq, true
		}
	}
	return wire.Seq{}, false
}

// releaseReads serves queued reads whose barrier write has committed.
func (r *Replica) releaseReads() {
	rest := r.reads[:0]
	for _, q := range r.reads {
		if q.barrier.LessEq(r.committed) {
			r.Env.SendSwitch(r.ReadReply(q.pkt))
			q.pkt.Release()
		} else {
			rest = append(rest, q)
		}
	}
	r.reads = rest
}

// RemoveMember excludes a crashed backup from the ack set (§5.3 server
// failure handling: the protocol reconfigures and the switch control
// plane is updated separately). Pending writes blocked only on the
// removed backup commit immediately: the newest fully acknowledged one
// commits everything before it. The primary cannot be removed: its
// failover needs a configuration service this model does not have.
func (r *Replica) RemoveMember(idx int) {
	r.live &^= 1 << uint(idx)
	for op := r.pending.Last(); op > r.pending.Base(); op-- {
		r.maybeCommit(op)
	}
}

// HeldPackets returns the packet references the replica holds: its
// pending writes, its queued reads and its cached replies.
func (r *Replica) HeldPackets() int { return r.pending.Len() + len(r.reads) + r.CT.Held() }
