package protocol

import (
	"harmonia/internal/simnet"
	"harmonia/internal/store"
	"harmonia/internal/wire"
)

// ReadClass distinguishes the two §7 protocol families, which differ
// in which anomaly they must defend against on the fast path.
type ReadClass int

const (
	// ReadAhead protocols (primary-backup, chain replication) may have
	// applied uncommitted writes; the shim rejects fast reads whose
	// stamp is older than the object's applied write (§7.2).
	ReadAhead ReadClass = iota
	// ReadBehind protocols (VR, NOPaxos) may lag behind the commit
	// point; the shim rejects fast reads whose stamp is ahead of the
	// replica's execution point (§7.3).
	ReadBehind
)

// Base bundles the per-replica state every protocol carries: the
// storage backend, the duplicate-suppression table, and the switch
// lease, plus the shim-layer logic for fast-path reads.
type Base struct {
	Env   Env
	Pkts  *wire.Pool // Env.Packets, where every reply comes from
	Group GroupConfig
	Store *store.Store
	CT    *ClientTable
	Lease SwitchLease
	Class ReadClass

	// DisableCheck is an ablation switch: the replica serves fast-path
	// reads without the §7 visibility/integrity check, demonstrating
	// why the dirty set alone is insufficient under network asynchrony
	// (§5.2). Never enable outside experiments.
	DisableCheck bool

	// Stats the harness inspects.
	FastServed    uint64 // fast-path reads answered locally
	FastRejected  uint64 // fast-path reads forwarded to the normal path
	LeaseRejected uint64 // fast-path reads rejected by the lease gate
	UnsafeServed  uint64 // served with DisableCheck where the check would have rejected
}

// NewBase constructs the shared state.
func NewBase(env Env, g GroupConfig, class ReadClass, shards int) *Base {
	return &Base{
		Env:   env,
		Pkts:  env.Packets(),
		Group: g,
		Store: store.New(shards),
		CT:    NewClientTable(),
		Class: class,
	}
}

// Admission is the write gate's verdict on a client write.
type Admission uint8

const (
	// Admitted: fresh and in sequence order; the caller executes it.
	Admitted Admission = iota
	// OutOfOrder: sequenced behind the caller's last write (§5.2) and
	// discarded; the client retries under a fresh sequence number.
	OutOfOrder
	// Duplicate: a request the client table has seen, answered from the
	// reply cache when the caller asked for that and holds the reply.
	Duplicate
)

// AdmitWrite is the write entry of every protocol: the §5.2 order guard
// first, against last — the caller's last sequenced write — and
// at-most-once admission second. The order matters. A write that arrives
// behind a later-sequenced one is discarded, and its client retries the
// same request under a fresh sequence number; recorded as in progress
// before the discard, the request would have suppressed every such retry
// forever. With answer set, a duplicate of a completed request is
// answered here from the reply cache, on a flight copy with a zero Seq
// so that its traversal cannot re-trigger the completion. Heads that
// keep no replies (chain, in either read mode) and replicas replaying a
// log the leader answers from (NOPaxos followers) pass false.
func (b *Base) AdmitWrite(pkt *wire.Packet, last wire.Seq, answer bool) Admission {
	if !last.Less(pkt.Seq) {
		return OutOfOrder
	}
	execute, cached := b.CT.Admit(pkt.ClientID, pkt.ReqID)
	if execute {
		return Admitted
	}
	if answer && cached != nil {
		b.resend(cached)
	}
	return Duplicate
}

// resend puts a flight copy of a cached reply on the wire, without the
// completion it piggybacked the first time.
func (b *Base) resend(cached *wire.Packet) {
	rep := b.Pkts.FlightClone(cached)
	rep.Seq = wire.ZeroSeq
	b.Env.SendSwitch(rep)
}

// Apply installs a write in the local store; it fails when the write is
// out of sequence order (§5.2).
func (b *Base) Apply(pkt *wire.Packet) error {
	return b.Store.Apply(pkt.ObjID, pkt.Value, pkt.Seq, pkt.Flags&wire.FlagDelete != 0)
}

// ReadReply builds the reply for a read of pkt's object from the local
// store. The reply comes from Pkts; the caller owns its one reference
// and transfers it by sending.
func (b *Base) ReadReply(pkt *wire.Packet) *wire.Packet {
	obj, ok := b.Store.Get(pkt.ObjID)
	return b.ValueReply(pkt, obj.Value, ok)
}

// ValueReply builds the reply for a read of pkt's object carrying
// value, or not-found. From Pkts like ReadReply's.
func (b *Base) ValueReply(pkt *wire.Packet, value []byte, found bool) *wire.Packet {
	rep := b.Pkts.Reply(pkt, wire.OpReadReply)
	// Echo the request's commit stamp (diagnostic; clients and the
	// switch ignore it on replies).
	rep.LastCommitted = pkt.LastCommitted
	if found {
		// Alias the value: store values and packet payloads are written
		// once and never mutated in place, and reply packets are
		// immutable once built (internal/wire ownership contract), so
		// the read path copies no payload bytes. Callers that hand the
		// value to mutating code must copy (see cluster.SyncClient).
		rep.Value = value
	} else {
		rep.Flags |= wire.FlagNotFound
	}
	return rep
}

// WriteReply builds the client reply for a completed write. If
// piggyback is true, the reply carries the write's sequence number so
// the switch processes it as a WRITE-COMPLETION on the way through
// (Fig. 2b); read-behind protocols pass false and send completions
// separately once the §7.3 condition holds.
func (b *Base) WriteReply(pkt *wire.Packet, piggyback bool) *wire.Packet {
	rep := b.Pkts.Reply(pkt, wire.OpWriteReply)
	if piggyback {
		rep.Seq = pkt.Seq
	}
	return rep
}

// Completion builds a standalone WRITE-COMPLETION notification for the
// switch. From Pkts like the replies; the scheduler releases it after
// processing.
func (b *Base) Completion(objID wire.ObjectID, seq wire.Seq) *wire.Packet {
	c := b.Pkts.New()
	c.Op = wire.OpWriteCompletion
	c.ObjID = objID
	c.Group = uint16(b.Group.ID)
	c.Seq = seq
	return c
}

// HandleFastRead runs the shim-layer check for a fast-path read. When
// the read passes the lease gate and the class-specific §7 check, it
// is answered from the local store; otherwise it is forwarded to
// normalDst (primary, tail, or leader) marked FlagForwarded so that no
// switch re-examines it. If normalDst is this replica itself, the
// caller's normal-path handler is invoked via the returned flag
// instead (serveNormally == true).
func (b *Base) HandleFastRead(pkt *wire.Packet, normalDst SendTarget) (serveNormally bool) {
	epoch := pkt.LastCommitted.Epoch
	if !b.Lease.Allows(epoch, b.Env.Now()) {
		b.LeaseRejected++
		return b.rejectFast(pkt, normalDst)
	}
	// One probe serves both the check and the reply; an absent object
	// (never written, or deleted) comes back at the zero Seq.
	obj, found := b.Store.Get(pkt.ObjID)
	var ok bool
	switch b.Class {
	case ReadAhead:
		ok = ReadAheadAccept(pkt.LastCommitted, obj.Seq)
	case ReadBehind:
		ok = ReadBehindAccept(pkt.LastCommitted, b.Store.LastApplied())
	}
	if b.DisableCheck {
		if !ok {
			b.UnsafeServed++
		}
		ok = true
	}
	if !ok {
		b.FastRejected++
		return b.rejectFast(pkt, normalDst)
	}
	b.FastServed++
	b.Env.SendSwitch(b.ValueReply(pkt, obj.Value, found))
	pkt.Release() // the read is fully answered; drop its delivery reference
	return false
}

func (b *Base) rejectFast(pkt *wire.Packet, normalDst SendTarget) bool {
	pkt.Flags = (pkt.Flags &^ wire.FlagFastPath) | wire.FlagForwarded
	if normalDst.Self {
		return true
	}
	b.Env.Send(normalDst.Node, pkt)
	return false
}

// SendTarget names where rejected fast reads go.
type SendTarget struct {
	Node simnet.NodeID
	Self bool
}

// TargetSelf marks the local replica as the normal-path destination.
func TargetSelf() SendTarget { return SendTarget{Self: true} }

// Target points at a remote node.
func Target(n simnet.NodeID) SendTarget { return SendTarget{Node: n} }
