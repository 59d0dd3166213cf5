package protocol

import (
	"harmonia/internal/sim"
	"harmonia/internal/simnet"
)

// Message ownership — the protocol-side companion of the packet
// contract in internal/wire. A replication protocol's per-write
// messages (VR's prepare / prepareOK / commit / commitAck, the acks of
// chain replication, in either read mode, and of primary-backup, a
// chain head's re-reply request for a duplicate write, NOPaxos's sync
// round) travel through Env.Send as POINTERS to structs drawn from a
// FreeList, so putting one on the network boxes nothing and a
// committed write allocates nothing. The rule has one line per party:
//
//   - The sender hands the message to the list's Send, which copies
//     the whole struct into a record, so no field of a previous use
//     survives, and sends the record. A broadcast Sends once per
//     recipient: a record has exactly one receiver.
//   - The receiver Takes the message — copies the struct out and puts
//     the record back — BEFORE it handles the copy, so nothing the
//     handler does — sending, recursing through a synchronous test
//     harness, panicking — can see a record that is both live and free.
//   - The network recycles nothing. A record it drops (crashed or
//     unknown destination, a queue lost to a crash) is never put back
//     and keeps its slot in its block for the cluster's life, but the
//     packets it carries are released by its Release method, which
//     every packet-carrying message has. It never copies a record
//     either, so recycled messages may only travel links that deliver
//     at most once — the replica↔replica links, which the cluster
//     models as reliable FIFO channels; a link with DupProb set would
//     hand one record to two receivers.
//
// Rare, bulky or multi-recipient messages — view changes, state
// transfer, lease control — stay plain values: they are not worth a
// free list, and only the packet references they carry need the rule
// above.
//
// The free lists belong to the harness that owns the engine (a
// cluster, a ptest.Harness), reached through Env.Msgs, and so does the
// packet pool, reached through Env.Packets: every replica
// on one engine shares them, which is what lets a record sent by the
// leader and recycled by a backup be found again by the leader's next
// Send, and nothing is shared between engines, so clusters running in
// parallel tests never meet. They are sim.FreeLists on the simulation's
// one thread — not a sync.Pool, which every garbage collection empties.
// Race builds poison every recycled record and check the poison on
// reuse (msgs_race.go): a second Take or a write through a stale pointer
// panics, a read through one yields values no protocol state matches.

// FreeList recycles the records of one message type: a sim.FreeList,
// so an empty list carves a block of records per miss, plus the race
// builds' poison check.
type FreeList[T any] struct {
	guard recycleGuard[T] // empty outside race builds
	list  sim.FreeList[T]
}

// Get returns a record for the caller to fill and send. Its contents
// are unspecified; assign the whole struct.
func (l *FreeList[T]) Get() *T {
	m := l.list.Get()
	l.guard.reuse(m)
	return m
}

// Send copies msg into a record and sends the record to "to".
func (l *FreeList[T]) Send(env Env, to simnet.NodeID, msg T) {
	m := l.Get()
	*m = msg
	env.Send(to, m)
}

// Take is the receiving side in one step: it returns the message by
// value and recycles its record, cleared so that the list pins nothing
// the message pointed at. m must not be used afterwards.
func (l *FreeList[T]) Take(m *T) T {
	v := *m
	var zero T
	*m = zero
	l.guard.recycle(m)
	l.list.Put(m)
	return v
}

// MsgPool holds the free lists of everything that runs on one engine.
// Protocol packages keep their message types private, so the pool
// stores one opaque bundle per protocol (a struct of FreeLists) and
// FreeLists hands each replica the shared instance of its own.
type MsgPool struct {
	bundles map[any]any // (*L)(nil) → *L
}

// NewMsgPool returns an empty pool. One per engine: the lists are not
// safe for concurrent use.
func NewMsgPool() *MsgPool { return &MsgPool{bundles: make(map[any]any)} }

// FreeLists returns p's instance of the bundle type L, creating it on
// first use. A replica calls it once at construction and keeps the
// pointer; the message path never comes back here.
func FreeLists[L any](p *MsgPool) *L {
	key := any((*L)(nil))
	if l, ok := p.bundles[key]; ok {
		return l.(*L)
	}
	l := new(L)
	p.bundles[key] = l
	return l
}
