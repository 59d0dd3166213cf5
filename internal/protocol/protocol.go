// Package protocol holds the machinery shared by all replication
// protocol implementations: the environment abstraction replicas run
// against, group configuration, the client table for at-most-once
// semantics, the write gate every protocol's client writes enter
// through (Base.AdmitWrite), the switch-lease gate, and the shim-layer
// helpers that implement the paper's §7 fast-path read checks.
package protocol

import (
	"math/rand"
	"time"

	"harmonia/internal/sim"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// Env is the world a replica interacts with. The cluster harness wires
// it to the simulated network; nothing in the protocols depends on
// simulation specifics beyond this interface.
type Env interface {
	// ID returns this replica's network address.
	ID() simnet.NodeID
	// Send delivers a protocol-internal message to a peer: a plain
	// value, or a pointer to a record from one of Msgs' free lists,
	// which the receiver recycles (msgs.go has the ownership rule).
	Send(to simnet.NodeID, msg any)
	// SendSwitch puts a client-facing Harmonia packet (reply or
	// write-completion) onto the data path through the switch.
	SendSwitch(pkt *wire.Packet)
	// After schedules fn after d of simulated time; the returned timer
	// can be cancelled.
	After(d time.Duration, fn func()) sim.Timer
	// Now returns the current simulated time.
	Now() sim.Time
	// Rand returns the deterministic random source.
	Rand() *rand.Rand
	// Msgs returns the message free lists shared by every replica on
	// this Env's engine; the harness owns them.
	Msgs() *MsgPool
	// Packets returns the packet pool of this Env's engine, which the
	// harness owns next to Msgs.
	Packets() *wire.Pool
}

// GroupConfig describes a replica group.
type GroupConfig struct {
	// ID is this group's index in the sharded cluster (§6.1). Replicas
	// stamp it into standalone write-completions so the switch
	// front-end credits the right scheduler partition; single-group
	// clusters use 0.
	ID int
	// Replicas lists member addresses; a member's index is its replica
	// number (chain position, VR replica index, …).
	Replicas []simnet.NodeID
	// Self is this node's index in Replicas.
	Self int
	// F is the number of tolerated failures for quorum protocols
	// (len(Replicas) = 2F+1 there).
	F int
}

// N returns the group size.
func (g GroupConfig) N() int { return len(g.Replicas) }

// Quorum returns the majority size F+1.
func (g GroupConfig) Quorum() int { return g.F + 1 }

// Addr returns the address of replica i.
func (g GroupConfig) Addr(i int) simnet.NodeID { return g.Replicas[i] }

// CostClass buckets messages by how much server CPU handling them
// costs; the cluster's processor model translates classes into service
// times calibrated to the paper's single-server Redis numbers.
type CostClass int

const (
	// CostControl is a small protocol message (ack, commit notice).
	CostControl CostClass = iota
	// CostRead is a full read execution against the store.
	CostRead
	// CostWrite is a full write application.
	CostWrite
)

// Costed lets protocol-internal messages declare their cost class.
// Messages that do not implement it default to CostControl.
type Costed interface{ CostClass() CostClass }

// ClassOf returns the cost class for any message: Harmonia packets by
// op, protocol messages via Costed, and CostControl otherwise.
func ClassOf(msg any) CostClass {
	switch m := msg.(type) {
	case *wire.Packet:
		switch m.Op {
		case wire.OpRead:
			return CostRead
		case wire.OpWrite:
			return CostWrite
		default:
			return CostControl
		}
	case Costed:
		return m.CostClass()
	default:
		return CostControl
	}
}

// ---------------------------------------------------------------------
// Client table (at-most-once semantics)

type clientEntry struct {
	reqID uint64
	reply *wire.Packet // nil while the request is still in progress
}

// ClientTable filters duplicate client writes, as in Viewstamped
// Replication: each client has at most one outstanding request, and a
// retransmission of the latest request is answered from the cache
// rather than re-executed.
//
// Alongside the protocol-managed table, migrated records (Merge) are
// kept in a separate overlay matched ONLY on the exact request ID.
// The separation is a correctness requirement, not bookkeeping: the
// main table is derived deterministically from the protocol's own
// admission/execution order, and replicas replaying a log (NOPaxos
// followers at sync, VR backups at commit) must reach the decisions
// the leader reached. A foreign record folded into the main table
// would also suppress OLDER requests of the same client — requests the
// leader may already have executed before the records arrived — and
// the replicas' stores would silently diverge. An exact-match overlay
// suppresses precisely the one cross-group duplicate it was exported
// for and nothing else.
type ClientTable struct {
	m map[uint32]clientEntry
	// migrated holds records imported by slot handoffs, keyed by
	// client, matched only on exact request ID.
	migrated map[uint32]clientEntry
}

// NewClientTable returns an empty table.
func NewClientTable() *ClientTable {
	return &ClientTable{m: make(map[uint32]clientEntry), migrated: make(map[uint32]clientEntry)}
}

// Admit decides what to do with request (clientID, reqID):
//
//   - fresh requests are admitted (execute=true) and recorded as in
//     progress;
//   - a retransmission of the in-progress request is suppressed
//     (execute=false, cached=nil — the eventual reply will serve it);
//   - a retransmission of the completed request returns the cached
//     reply;
//   - anything older is ignored.
//
// A returned cached reply is BORROWED from the table: a caller that
// re-sends it must transmit a FlightClone, never the table's copy.
func (t *ClientTable) Admit(clientID uint32, reqID uint64) (execute bool, cached *wire.Packet) {
	if mig, ok := t.migrated[clientID]; ok {
		if reqID == mig.reqID {
			// The cross-group duplicate a slot handoff exported this
			// record for: suppress it and replay the cached reply.
			return false, mig.reply
		}
		if reqID > mig.reqID {
			// The client moved on; the migrated record can never match
			// again.
			if mig.reply != nil {
				mig.reply.Release()
			}
			delete(t.migrated, clientID)
		}
	}
	e, ok := t.m[clientID]
	if !ok || reqID > e.reqID {
		if ok && e.reply != nil {
			// The client moved on: the previous request's cached reply
			// can never be replayed again. This is the steady-state
			// reclamation point for reply packets.
			e.reply.Release()
		}
		t.m[clientID] = clientEntry{reqID: reqID}
		return true, nil
	}
	if reqID == e.reqID {
		return false, e.reply // may be nil: still in progress
	}
	return false, nil
}

// Complete records the reply for the client's current request. A
// completion for a request the table has not seen (possible at a chain
// tail, where admission happens at the head) registers it directly;
// completions older than the tracked request are dropped.
//
// The table takes its OWN reference on the stored reply (Retain), so
// the caller keeps its reference for the send that usually follows; a
// caller that caches a reply without sending it releases its own
// reference after Complete.
func (t *ClientTable) Complete(clientID uint32, reqID uint64, reply *wire.Packet) {
	if e, ok := t.m[clientID]; ok {
		if reqID < e.reqID {
			return
		}
		if e.reply == reply {
			t.m[clientID] = clientEntry{reqID: reqID, reply: reply}
			return // already hold this exact reply; no extra reference
		}
		if e.reply != nil {
			e.reply.Release()
		}
	}
	t.m[clientID] = clientEntry{reqID: reqID, reply: reply.Retain()}
}

// Cached returns the stored reply for (clientID, reqID) without
// mutating the table, or nil. Migrated records answer too: a chain
// tail asked to re-reply a cross-group duplicate has the reply only in
// its overlay.
func (t *ClientTable) Cached(clientID uint32, reqID uint64) *wire.Packet {
	if e, ok := t.m[clientID]; ok && e.reqID == reqID && e.reply != nil {
		return e.reply
	}
	if mig, ok := t.migrated[clientID]; ok && mig.reqID == reqID {
		return mig.reply
	}
	return nil
}

// Held returns the number of cached replies the table holds, in the
// protocol-managed table and the migrated-record overlay.
func (t *ClientTable) Held() int {
	n := 0
	for _, m := range [...]map[uint32]clientEntry{t.m, t.migrated} {
		for _, e := range m {
			if e.reply != nil {
				n++
			}
		}
	}
	return n
}

// ClientRecord is one exported client-table entry, carried with a
// slot handoff: the client's latest request ID and, when the request
// completed, the cached reply (nil while still in progress).
type ClientRecord struct {
	ReqID uint64
	Reply *wire.Packet
}

// Export copies the table's COMPLETED records for state transfer. A
// migration moves the records with the objects: without them, a
// destination group would re-execute a write whose reply was lost in
// flight — the source already applied it, so the duplicate could
// resurrect an old value over a newer committed write (at-most-once is
// per table, and the retry now hashes to a different group's table).
//
// In-progress records (no cached reply) are deliberately NOT exported:
// an exact-match hit on one would suppress the client's retry at the
// destination with nothing to answer it, wedging the client forever.
// A completed-nowhere write is also safe to re-execute — it never
// applied at the source (a drained slot's writes either committed,
// caching a reply at whichever replica executed them, or can never
// apply), so no resurrection hazard exists for it.
//
// Each exported record carries its own reference on the reply
// (Retain), owned by the caller. Merge takes its own references on
// whatever it adopts, so one exported set can be merged into every
// replica of a destination group (or several groups); the caller
// releases the set with ReleaseRecords when the last merge is done.
func (t *ClientTable) Export() map[uint32]ClientRecord {
	out := make(map[uint32]ClientRecord, len(t.m))
	for c, e := range t.m {
		if e.reply != nil {
			out[c] = ClientRecord{ReqID: e.reqID, Reply: e.reply}
		}
	}
	// Records a previous inbound handoff parked here may still be the
	// only copy of a reply a client is retrying for; pass them along
	// unless the protocol-managed entry is newer and completed.
	for c, mig := range t.migrated {
		if mig.reply == nil {
			continue
		}
		if cur, ok := out[c]; !ok || mig.reqID > cur.ReqID {
			out[c] = ClientRecord{ReqID: mig.reqID, Reply: mig.reply}
		}
	}
	for _, rec := range out {
		rec.Reply.Retain()
	}
	return out
}

// Merge installs exported records into the migrated-record overlay,
// keeping the newer request per client; on a tie, an entry carrying a
// cached reply wins over an in-progress one (so the destination can
// answer the retry instead of suppressing it forever). The main table
// is never touched — see the type comment for why that would corrupt
// log replay.
//
// Merge takes its own reference on each adopted reply and releases any
// overlay entry it displaces; the records themselves are left intact,
// so the caller can merge the same set into several tables before
// dropping it with ReleaseRecords.
func (t *ClientTable) Merge(recs map[uint32]ClientRecord) {
	for c, rec := range recs {
		e, ok := t.migrated[c]
		if !ok || rec.ReqID > e.reqID || (rec.ReqID == e.reqID && e.reply == nil && rec.Reply != nil) {
			if rec.Reply != nil {
				rec.Reply.Retain()
			}
			if ok && e.reply != nil {
				e.reply.Release()
			}
			t.migrated[c] = clientEntry{reqID: rec.ReqID, reply: rec.Reply}
		}
	}
}

// ReleaseRecords drops the caller-owned reply references of an
// exported record set once its merges are done.
func ReleaseRecords(recs map[uint32]ClientRecord) {
	for _, rec := range recs {
		if rec.Reply != nil {
			rec.Reply.Release()
		}
	}
}

// ---------------------------------------------------------------------
// Switch lease (§5.3)

// SwitchLease gates fast-path reads per switch incarnation. The
// replication protocol "periodically agrees to allow single-replica
// reads from the current switch for a time period"; granting a lease
// for epoch E implicitly refuses all epochs < E, and a replacement
// switch's writes are only admitted after the old lease was revoked or
// expired.
type SwitchLease struct {
	epoch  uint32
	expiry sim.Time
}

// Grant installs a lease for epoch until expiry. Grants never move the
// epoch backwards.
func (l *SwitchLease) Grant(epoch uint32, expiry sim.Time) {
	if epoch < l.epoch {
		return
	}
	if epoch > l.epoch || expiry > l.expiry {
		l.epoch, l.expiry = epoch, expiry
	}
}

// Revoke immediately ends the lease of every epoch ≤ epoch ("all
// replicas agree to cut it short").
func (l *SwitchLease) Revoke(epoch uint32) {
	if epoch >= l.epoch {
		l.epoch, l.expiry = epoch, 0
	}
}

// Allows reports whether a fast-path read from the given switch epoch
// may be served locally at time now.
func (l *SwitchLease) Allows(epoch uint32, now sim.Time) bool {
	return epoch == l.epoch && now < l.expiry
}

// Epoch returns the currently leased epoch.
func (l *SwitchLease) Epoch() uint32 { return l.epoch }

// ---------------------------------------------------------------------
// §7 fast-path read checks (the shim layer)

// ReadAheadAccept is the §7.2 integrity check for read-ahead protocols
// (primary-backup, chain replication): a replica may answer a
// fast-path read locally only when the last-committed point stamped by
// the switch is at least the sequence number of the latest write it
// has applied to the object — which proves every applied write to this
// object had committed when the switch forwarded the read.
func ReadAheadAccept(stamped, objSeq wire.Seq) bool {
	return objSeq.LessEq(stamped)
}

// ReadBehindAccept is the §7.3 visibility check for read-behind
// protocols (VR, NOPaxos): a replica may answer locally only when it
// has executed at least up to the stamped last-committed point —
// otherwise a write the switch already saw complete might be missing
// here.
func ReadBehindAccept(stamped, lastExecuted wire.Seq) bool {
	return stamped.LessEq(lastExecuted)
}
