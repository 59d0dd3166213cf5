// Package chain implements chain replication (van Renesse & Schneider,
// OSDI 2004) with the Harmonia adaptations of §7.2.
//
// Replicas form a chain: index 0 is the head, index N-1 the tail.
// Writes enter at the head and propagate down; the tail's application
// commits the write and produces the client reply, which piggybacks the
// WRITE-COMPLETION through the switch. Normal-path reads are served by
// the tail (whose state is exactly the committed state); Harmonia
// fast-path reads may land on any replica and are validated with the
// read-ahead integrity check.
//
// Commit acknowledgments flow back up the chain so that each node can
// trim its resend buffer; on a mid-chain node failure, the predecessor
// resends unacknowledged writes to its new successor, and the
// successor's in-order apply guard discards what it already has.
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

// chainAck flows from the tail up the chain announcing the commit
// point, letting nodes trim their resend buffers. One per hop per
// write: it travels as a pointer to a recycled record (ownership rule
// in protocol/msgs.go). propagate needs none — a struct of one pointer
// rides in the interface word itself.
type chainAck struct {
	Seq wire.Seq
}

// CostClass marks the ack as control traffic.
func (chainAck) CostClass() protocol.CostClass { return protocol.CostControl }

// Replica is one chain node.
type Replica struct {
	*protocol.Base

	// next and prev are chain-neighbor indexes (-1 at the ends); they
	// change under reconfiguration.
	next, prev int
	// alive tracks which indexes are still chain members.
	alive []bool

	// unacked is the resend buffer: the writes forwarded but not yet
	// known committed, in sequence order, for resend on successor
	// failure. Acks trim it.
	unacked protocol.OpLog

	acks *protocol.FreeList[chainAck] // shared by the engine's chain nodes

	// Stats
	WritesApplied   uint64
	WritesCommitted uint64 // tail only
	ReadsServed     uint64 // tail normal-path reads
}

// New builds a chain node.
func New(env protocol.Env, g protocol.GroupConfig, shards int) *Replica {
	r := &Replica{
		Base:  protocol.NewBase(env, g, protocol.ReadAhead, shards),
		next:  g.Self + 1,
		prev:  g.Self - 1,
		alive: make([]bool, g.N()),
		acks:  protocol.FreeLists[protocol.FreeList[chainAck]](env.Msgs()),
	}
	if r.next >= g.N() {
		r.next = -1
	}
	for i := range r.alive {
		r.alive[i] = true
	}
	return r
}

// IsHead and IsTail report chain position under the current
// configuration.
func (r *Replica) IsHead() bool { return r.prev == -1 }

// IsTail reports whether this node is the current tail.
func (r *Replica) IsTail() bool { return r.next == -1 }

// tailIndex computes the current tail's index from liveness.
func (r *Replica) tailIndex() int {
	for i := r.Group.N() - 1; i >= 0; i-- {
		if r.alive[i] {
			return i
		}
	}
	return r.Group.Self
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
		r.recvPropagate(m.Pkt)
	case *chainAck:
		r.recvAck(r.acks.Take(m).Seq)
	default:
		// A message in a representation the cases above do not list (a
		// recycled type sent by value, say) must not vanish silently.
		panic(fmt.Sprintf("chain: unexpected message %T", msg))
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
		if pkt.Flags&wire.FlagFastPath != 0 {
			target := protocol.Target(r.Group.Addr(r.tailIndex()))
			if r.IsTail() {
				target = protocol.TargetSelf()
			}
			if r.HandleFastRead(pkt, target) {
				r.tailRead(pkt)
			}
			return
		}
		if r.IsTail() {
			r.tailRead(pkt)
			return
		}
		// Stale routing: pass the read along to the real tail.
		r.Env.Send(r.Group.Addr(r.tailIndex()), pkt)
	}
}

// headWrite admits a client write at the head.
func (r *Replica) headWrite(pkt *wire.Packet) {
	switch r.AdmitWrite(pkt, r.Store.LastApplied(), false) {
	case protocol.Admitted:
		r.apply(pkt)
		return
	case protocol.Duplicate:
		// The tail replies, so it holds the reply cache: ask it to re-send
		// the reply if the write already committed; if still in flight the
		// pending reply will serve the retransmission.
		r.Env.Send(r.Group.Addr(r.tailIndex()), protocol.ReReply{ClientID: pkt.ClientID, ReqID: pkt.ReqID})
	}
	pkt.Release() // discarded or duplicate: fully handled
}

// recvPropagate applies a write arriving from the predecessor.
func (r *Replica) recvPropagate(pkt *wire.Packet) { r.apply(pkt) }

// apply installs a write and moves it along the chain, or commits it
// at the tail.
func (r *Replica) apply(pkt *wire.Packet) {
	if err := r.Apply(pkt); err != nil {
		// §5.2 write-order requirement: out-of-order writes are
		// discarded; the client's retry gets a fresh sequence number.
		pkt.Release()
		return
	}
	r.WritesApplied++
	if r.IsTail() {
		r.commitAtTail(pkt)
		return
	}
	// The resend buffer keeps the delivery reference; the downstream
	// propagation carries its own.
	r.unacked.Append(pkt, 0)
	r.Env.Send(r.Group.Addr(r.next), propagate{Pkt: pkt.Retain()})
}

// commitAtTail finishes a write: the tail's apply is the commit.
func (r *Replica) commitAtTail(pkt *wire.Packet) {
	r.WritesCommitted++
	rep := r.WriteReply(pkt, true) // piggybacks the WRITE-COMPLETION
	r.CT.Complete(pkt.ClientID, pkt.ReqID, rep)
	r.Env.SendSwitch(rep)
	r.sendAck(pkt.Seq)
	pkt.Release() // the tail's apply is the write's terminal consumption
}

// sendAck passes the commit point to the predecessor, if there is one.
func (r *Replica) sendAck(seq wire.Seq) {
	if r.prev >= 0 {
		m := r.acks.Get()
		*m = chainAck{Seq: seq}
		r.Env.Send(r.Group.Addr(r.prev), m)
	}
}

// recvAck trims the resend buffer and relays the commit point up.
func (r *Replica) recvAck(seq wire.Seq) {
	op, exact := r.unacked.Find(seq)
	if !exact {
		op-- // Find landed on the first write after seq
	}
	r.unacked.TrimTo(op)
	r.sendAck(seq)
}

// tailRead serves a read from committed state.
func (r *Replica) tailRead(pkt *wire.Packet) {
	r.ReadsServed++
	r.Env.SendSwitch(r.ReadReply(pkt))
	pkt.Release()
}

// Reconfigure removes a failed node from the chain. Every survivor
// re-links; the failed node's predecessor resends its unacknowledged
// writes to its new successor (or commits them itself if it became the
// tail). The in-order apply guard at the successor discards anything
// it already processed.
func (r *Replica) Reconfigure(failed int) {
	if failed < 0 || failed >= r.Group.N() || !r.alive[failed] {
		return
	}
	r.alive[failed] = false
	self := r.Group.Self
	if self == failed {
		return
	}
	// Recompute neighbors from the liveness map.
	r.next, r.prev = -1, -1
	for i := self + 1; i < r.Group.N(); i++ {
		if r.alive[i] {
			r.next = i
			break
		}
	}
	for i := self - 1; i >= 0; i-- {
		if r.alive[i] {
			r.prev = i
			break
		}
	}
	// If our successor was the failed node, recover its in-flight
	// writes: each is committed here, if this node became the tail, or
	// resent to the (possibly new) successor. Either consumes a
	// reference of its own, and a new tail then trims the buffer.
	first, last := r.unacked.Base()+1, r.unacked.Last()
	for op := first; op <= last; op++ {
		pkt := r.unacked.At(op).Pkt.Retain()
		if r.IsTail() {
			r.commitAtTail(pkt)
		} else {
			r.Env.Send(r.Group.Addr(r.next), propagate{Pkt: pkt})
		}
	}
	if r.IsTail() {
		r.unacked.TrimTo(last)
	}
}

// HeldPackets returns the packet references the node holds: its
// resend buffer and its cached replies.
func (r *Replica) HeldPackets() int { return r.unacked.Len() + r.CT.Held() }
