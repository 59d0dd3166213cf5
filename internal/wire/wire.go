// Package wire defines the Harmonia packet formats exchanged between
// clients, the in-network request scheduler, and storage servers.
//
// The client library exposes two header fields to the switch (§4 of the
// paper): the operation type and the affected object ID. Writes
// additionally carry the switch-assigned sequence number, and fast-path
// reads carry the switch's last-committed point. Sequence numbers are
// augmented with the switch's unique ID ("epoch" here) and ordered
// lexicographically, epoch first (§5.3), so that no two writes issued by
// different switch incarnations share a sequence number.
package wire

import (
	"fmt"
	"hash/fnv"

	"harmonia/internal/sim"
)

// Op is the operation type carried in the Harmonia header.
type Op uint8

const (
	// OpRead is a client GET. The switch either forwards it along the
	// normal protocol path or, when the object is not in the dirty set,
	// stamps it with the last-committed point and sends it to a single
	// random replica (the fast path).
	OpRead Op = iota + 1
	// OpWrite is a client SET or DEL. The switch assigns it a sequence
	// number and inserts the object into the dirty set.
	OpWrite
	// OpWriteCompletion notifies the switch that a write has been fully
	// committed by the replication protocol. It is usually piggybacked
	// on the write reply that traverses the switch on its way back to
	// the client.
	OpWriteCompletion
	// OpReadReply and OpWriteReply are responses to the client.
	OpReadReply
	OpWriteReply
)

// String implements fmt.Stringer for diagnostics.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpWriteCompletion:
		return "WRITE-COMPLETION"
	case OpReadReply:
		return "READ-REPLY"
	case OpWriteReply:
		return "WRITE-REPLY"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// ObjectID is the fixed-length (32-bit) object identifier tracked by
// the switch. Variable-length application keys are hashed down to an
// ObjectID by the client library (§6.1); collisions can only cause the
// switch to believe a key is contended, never the reverse, so they
// affect performance but not consistency.
type ObjectID uint32

// HashKey maps a variable-length key to its fixed-length ObjectID.
func HashKey(key string) ObjectID {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return ObjectID(h.Sum32())
}

// NumSlots is the fixed, power-of-two routing-slot count. Every object
// hashes to exactly one slot via SlotOf; the switch front-end owns a
// slot → replica-group table consulted on every client-originated
// packet, which is what makes group rebalancing an online routine
// operation (move a slot's route, not a hash function). 256 slots give
// the rebalancer fine-grained units while the table still fits in a
// handful of switch registers.
const NumSlots = 256

// SlotOf maps an object to its routing slot. The golden-ratio multiply
// decorrelates slot assignment from the dirty-set stage hashes, which
// also mix the raw ObjectID bits. Clients may cache a slot table to
// guess the owning group, but the switch front-end's table is the
// routing authority — a stale client guess is overridden in-network.
func SlotOf(id ObjectID) int {
	return int((uint32(id) * 0x9E3779B1 >> 8) % NumSlots)
}

// DefaultGroupOfSlot is the boot-time slot → group assignment: slots
// are striped across the n groups. The front-end's table starts out
// exactly like this and diverges only through explicit migrations.
func DefaultGroupOfSlot(slot, n int) int {
	if n <= 1 {
		return 0
	}
	return slot % n
}

// GroupOf composes SlotOf with the default slot striping — the static
// mapping used before any rebalancing, kept for boot-time setup and
// for single-table tests. Live routing goes through the switch
// front-end's slot table, which starts equal to this function.
func GroupOf(id ObjectID, n int) int {
	return DefaultGroupOfSlot(SlotOf(id), n)
}

// Seq is an epoch-tagged sequence number. Epoch is the unique ID of the
// switch incarnation that assigned it; N is the per-switch counter.
// Ordering is lexicographic with the epoch considered first.
type Seq struct {
	Epoch uint32
	N     uint64
}

// Zero is the bottom sequence number, smaller than any assigned one.
var ZeroSeq = Seq{}

// Less reports whether s orders strictly before o.
func (s Seq) Less(o Seq) bool {
	if s.Epoch != o.Epoch {
		return s.Epoch < o.Epoch
	}
	return s.N < o.N
}

// LessEq reports s ≤ o in the lexicographic order.
func (s Seq) LessEq(o Seq) bool { return !o.Less(s) }

// IsZero reports whether s is the bottom element.
func (s Seq) IsZero() bool { return s == Seq{} }

// Max returns the larger of s and o.
func (s Seq) Max(o Seq) Seq {
	if s.Less(o) {
		return o
	}
	return s
}

// String renders "epoch:n".
func (s Seq) String() string { return fmt.Sprintf("%d:%d", s.Epoch, s.N) }

// Flags on a packet.
type Flags uint8

const (
	// FlagFastPath marks a read the switch scheduled directly to a
	// single replica; the replica may answer it locally only after the
	// §7 visibility/integrity check passes.
	FlagFastPath Flags = 1 << iota
	// FlagForwarded marks a fast-path read a replica rejected and
	// forwarded into the normal protocol path; it must not be
	// re-examined by the switch's dirty set (it is already on the slow
	// path).
	FlagForwarded
	// FlagDelete marks a write as a deletion rather than an update.
	FlagDelete
	// FlagNotFound marks a read reply for a missing object.
	FlagNotFound
	// FlagDropped marks a write reply synthesized by the switch when
	// the dirty set had no free slot and the write was dropped (§6.1:
	// "The write is dropped if no slot is available"). Clients retry.
	FlagDropped
	// FlagFlush marks a control-plane drain write that is allowed to
	// pass a frozen routing slot. A whole-group drain (group retirement
	// or membership respec) freezes every slot the group serves, which
	// would otherwise wedge the drain: flushing a stray dirty entry
	// below the commit point requires one more write through the same
	// scheduler partition, and all of its slots are frozen. Only the
	// cluster's own drain machinery sets this flag.
	FlagFlush
	// FlagInvalidate marks a write to a hot-replicated key: the switch
	// stamps it when the front-end's hot-key table holds the object, as
	// the wire-visible record that the holder copies were invalidated
	// in the same traversal (Hermes-style broadcast invalidation,
	// executed in the switch's register state rather than by extra
	// messages).
	FlagInvalidate
	// FlagRefresh marks a control-plane refresh completion for a
	// hot-replicated key: the holder copies have been re-installed, and
	// the carried Seq.N is the write generation the refresh captured.
	// The front-end validates its hot-key entry against it instead of
	// forwarding the packet to any scheduler partition.
	FlagRefresh
)

// HotKey is one switch hot-key table entry: a promoted object, the
// replica groups holding an extra copy (the home group is implicit —
// whatever the routing table maps the object's slot to), a bitmap of
// holders whose copies are invalid (a write was sequenced since their
// last refresh), and the write generation the invalidation state is
// versioned by. The shape is register-friendly on purpose: fixed-width
// fields, at most one promoted key per routing slot, so a hardware
// front-end could keep the table next to the dirty set.
type HotKey struct {
	ObjID   ObjectID
	Holders []uint16
	// Invalid is a bitmap over Holders: bit i set means holder i's copy
	// has not been refreshed since the last write.
	Invalid uint64
	// WriteGen counts writes sequenced against the key since promotion;
	// a refresh validates holders only if it captured the latest
	// generation.
	WriteGen uint64
}

// InvalidCount returns how many holder copies are currently invalid.
func (h HotKey) InvalidCount() int {
	n := 0
	for i := range h.Holders {
		if h.Invalid&(1<<uint(i)) != 0 {
			n++
		}
	}
	return n
}

// Packet is the Harmonia request/reply unit. One struct covers all five
// ops; unused fields are zero. A request names its object only by
// ObjID: the client library hashes the key away before sending (§6.1),
// and the switch reads nothing but the op type and the ID (§4).
// Packets travel by pointer and are reference-counted (see the
// ownership contract below).
type Packet struct {
	Op    Op
	Flags Flags

	// ObjID is the fixed-length object identifier.
	ObjID ObjectID

	// Group is the replica group serving this object. Clients stamp it
	// with GroupOf so their routing matches the switch front-end's;
	// replicas echo it into replies and write-completions so the switch
	// credits the right scheduler partition.
	Group uint16

	// Switch is the switch front-end that handled the packet. In a
	// multi-switch rack each front-end owns a contiguous shard of the
	// routing slots; the owning front-end stamps its ID on every packet
	// it forwards, so clients (and tests) can observe which epoch/lease
	// domain served an operation. Single-switch racks always stamp 0.
	Switch uint8

	// Seq is the switch-assigned sequence number (writes,
	// write-completions, and replies that piggyback completions).
	Seq Seq

	// LastCommitted is the switch's last-committed point, stamped into
	// fast-path reads (and used by replicas for the §7 checks).
	LastCommitted Seq

	// ClientID and ReqID identify the request for at-most-once
	// semantics and reply matching.
	ClientID uint32
	ReqID    uint64

	// Span is the operation's trace-span reference (internal/trace),
	// 0 when the op is untraced: a simulation-side annotation, not a
	// header field. Clone and FlightClone copy it, which is how a span
	// follows the op across per-transmission header copies and
	// protocol replies.
	Span uint64

	// Value is the write payload or read result. A zero-length value
	// is canonically nil: Clone and FlightClone normalize empty to nil,
	// so "no payload" has exactly one representation no matter how
	// many copies a packet takes.
	Value []byte

	// refs is the reference count of a managed packet. 0 means
	// unmanaged: a packet built as a literal (tests, client master
	// records) is outside the lifecycle and every Retain/Release on it
	// is a no-op. Managed packets come from a Pool with refs == 1;
	// refsFreed marks a released packet, so any use after free panics
	// instead of corrupting an unrelated packet.
	refs int32
	// pool is where the last Release parks the packet; nil leaves it to
	// the garbage collector (NewPacket).
	pool *Pool
}

// Ownership contract. In the simulated network packets travel by
// pointer and are reference-counted: Send transfers one reference to
// the receiving node, and whichever handler terminally consumes a
// packet (replies to it, drops it, or absorbs it into a reply) calls
// Release; a handler that stores the packet past its Recv call (a
// replication log, a pending-write table, a cached reply) keeps the
// reference it was handed, and every additional long-lived holder or
// concurrent transmission takes its own via Retain — a protocol
// message carrying the packet too, whose Release the network calls if
// it drops the message. Packets are immutable once sequenced — the
// switch stamps header fields (Seq, LastCommitted, Flags, Group,
// Switch) while it is the sole owner, and after fan-out every receiver
// shares the struct and payload read-only; a sender that may
// retransmit (client retries, cached re-replies) therefore sends a
// FlightClone per transmission, never the retained original. Value
// bytes are never recycled — only the packet struct is — so a store or
// client table that aliased a released packet's payload stays valid.
// An engine's packets come from one Pool, whose Live count is the leak
// check in every build; double releases and uses after free panic.

// Clone returns a deep copy of p: fresh header and a fresh payload
// copy. Zero-length values normalize to nil.
func (p *Packet) Clone() *Packet {
	q := *p
	q.refs, q.pool = 0, nil // deep copies start unmanaged regardless of the source
	if len(p.Value) > 0 {
		q.Value = append([]byte(nil), p.Value...)
	} else {
		q.Value = nil
	}
	return &q
}

// refsFreed marks a released packet. Any Retain, Release, or
// FlightClone on it is a use after free and panics.
const refsFreed int32 = -1

// Pool is the packet free list of one engine, owned by whoever owns
// the engine (a cluster, a protocol test harness) and not safe for
// concurrent use: a sim.FreeList and a reference count. Only the struct
// is recycled, never the Value it points at. The zero value is
// an empty pool; a nil *Pool (NewPacket) hands out packets the GC
// reclaims.
type Pool struct {
	free sim.FreeList[Packet]
	live int // references held on packets not parked in free
}

// New returns a zeroed managed packet holding one reference. The
// caller owns that reference and must balance it with Release (or
// transfer it by sending the packet).
func (pl *Pool) New() *Packet { return pl.FlightClone(&Packet{}) }

// FlightClone returns a managed header copy of p sharing its payload,
// holding one fresh reference. It is the per-transmission copy for
// senders that may transmit the same logical packet more than once —
// client retries and cached re-replies — keeping the retained original
// off the wire so in-flight header stamps never race a second flight.
// p itself may be managed or unmanaged; its count is untouched.
func (pl *Pool) FlightClone(p *Packet) *Packet {
	if p.refs < 0 {
		panic("wire: FlightClone of a freed packet")
	}
	var q *Packet
	if pl != nil {
		pl.live++
		q = pl.free.Get()
	} else {
		q = new(Packet)
	}
	*q = *p
	q.refs, q.pool = 1, pl
	if len(q.Value) == 0 {
		q.Value = nil
	}
	return q
}

// Reply returns a packet from pl answering req with op: addressed to
// req's client and request, about req's object and group. The
// trace span follows the op onto the reply leg, so the client's
// completion hook can close it (internal/trace).
func (pl *Pool) Reply(req *Packet, op Op) *Packet {
	rep := pl.New()
	rep.Op, rep.ObjID, rep.Group = op, req.ObjID, req.Group
	rep.ClientID, rep.ReqID, rep.Span = req.ClientID, req.ReqID, req.Span
	return rep
}

// Live returns the references out on the pool's packets: one per
// holder, so at quiescence it is what every holder holds.
func (pl *Pool) Live() int { return pl.live }

// NewPacket returns a managed packet that belongs to no pool: its last
// Release leaves it to the garbage collector.
func NewPacket() *Packet { return (*Pool)(nil).New() }

// FlightClone is Pool.FlightClone into p's own pool.
func (p *Packet) FlightClone() *Packet { return p.pool.FlightClone(p) }

// Retain adds a reference to a managed packet and returns it. Take one
// per additional long-lived holder or concurrent transfer: a cached
// reply stored while the same packet rides to the client, a multicast
// fan-out beyond the first destination, a chain propagation that also
// stays in the local resend window. On an unmanaged packet (refs 0:
// literals, Clone results) Retain is a no-op, so code
// paths shared with test-crafted packets need no special casing.
// Retaining a freed packet panics.
func (p *Packet) Retain() *Packet {
	if p.refs < 0 {
		panic("wire: Retain of a freed packet")
	}
	if p.refs > 0 {
		p.refs++
		if p.pool != nil {
			p.pool.live++
		}
	}
	return p
}

// Release drops one reference; at zero the struct returns to its
// pool. Call it at every terminal consumption: a handler that
// answered, dropped, or absorbed the packet; a trimmed log entry; a
// replaced cached reply; a message dropped in the network. Unmanaged
// packets ignore Release; a double Release panics instead of recycling
// a packet someone still holds.
func (p *Packet) Release() {
	if p.refs == 0 {
		return
	}
	if p.refs < 0 {
		panic("wire: Release of a freed packet (double release)")
	}
	pl := p.pool
	if p.refs--; p.refs == 0 {
		*p = Packet{refs: refsFreed}
		if pl != nil {
			pl.free.Put(p)
		}
	}
	if pl != nil {
		pl.live--
	}
}

// Managed reports whether p participates in the refcount lifecycle
// (came from a Pool or NewPacket and is still live).
func (p *Packet) Managed() bool { return p.refs > 0 }

// IsReply reports whether the packet is a client-bound response.
func (p *Packet) IsReply() bool { return p.Op == OpReadReply || p.Op == OpWriteReply }

// String renders a compact human-readable form for logs and tests.
func (p *Packet) String() string {
	return fmt.Sprintf("{%s obj=%d g=%d seq=%s lc=%s c=%d r=%d f=%02x}",
		p.Op, p.ObjID, p.Group, p.Seq, p.LastCommitted, p.ClientID, p.ReqID, uint8(p.Flags))
}
