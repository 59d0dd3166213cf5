// Package store provides the in-memory storage backend the replicas
// run — the stand-in for Redis in the paper's prototype.
//
// Beyond a plain map, the store keeps the switch-assigned sequence
// number of the last write applied to each object, which is exactly the
// state the Harmonia shim layer needs for the §7 fast-path read checks
// (R.obj.seq in the paper's proof notation), and it enforces the §5.2
// write-order requirement: writes must be applied in strictly
// increasing sequence-number order.
package store

import (
	"errors"
	"fmt"
	"math/bits"

	"harmonia/internal/wire"
)

// Object is a stored value plus the sequence number of the write that
// produced it.
type Object struct {
	Value []byte
	Seq   wire.Seq
}

// ErrOutOfOrder reports an attempt to apply a write whose sequence
// number does not exceed the last applied one.
var ErrOutOfOrder = errors.New("store: write out of sequence order")

// Store is a key-value store laid out by routing slot: one
// open-addressed table per wire.SlotOf value, so the unit a group
// handoff moves (ExtractSlot, DropSlot, SlotLen) is one table rather
// than a scan of everything the replica holds, and a lookup is one
// multiply and a short linear probe with no hashing of the key bytes.
// The simulation charges service time at the node level and runs on
// one thread, so the paper's eight Redis processes per server need no
// counterpart in the layout.
type Store struct {
	slots [wire.NumSlots]slotTab

	// lastApplied is the sequence number of the most recent write
	// applied to any object (R.seq in the paper's proof), used by
	// read-behind protocols' visibility check.
	lastApplied wire.Seq

	applied uint64 // total applied writes
}

// slotTab holds one routing slot's objects: linear probing over
// parallel power-of-two arrays kept at most 7/8 full, deletion by
// backward shift so lookups never meet a tombstone. A probe run walks
// only the 4-byte IDs, and an object sits at its ID's position, so
// both addresses follow from the hash and their cache misses overlap.
type slotTab struct {
	ids   []wire.ObjectID // emptyID(slot) marks a free position
	objs  []Object
	n     int
	shift uint8 // 32 - log2(len(ids))
}

const slotTabMinLen = 8

// emptyID returns the free-position marker of a slot's table: an ID
// that routes to some other slot and so is never stored in this one
// (TestEmptyIDRoutesElsewhere holds it to wire.SlotOf). Zero for every
// slot but one, so only that slot's fresh arrays need filling.
func emptyID(slot int) wire.ObjectID {
	if slot == 0 {
		return 1
	}
	return 0
}

// home is id's preferred position: the top bits of the golden-ratio
// product whose bits 8–15 wire.SlotOf routes by.
func (t *slotTab) home(id wire.ObjectID) int { return int(uint32(id) * 0x9E3779B1 >> t.shift) }

// find returns id's position, or -1.
func (t *slotTab) find(id, empty wire.ObjectID) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.ids) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		switch t.ids[i] {
		case id:
			return i
		case empty:
			return -1
		}
	}
}

// put inserts or replaces id's object.
func (t *slotTab) put(id, empty wire.ObjectID, o Object) {
	if i := t.find(id, empty); i >= 0 {
		t.objs[i] = o
		return
	}
	if 8*(t.n+1) > 7*len(t.ids) {
		t.grow(empty, t.n+1)
	}
	t.link(id, empty, o)
	t.n++
}

// link places an absent id at the first free position from its home.
func (t *slotTab) link(id, empty wire.ObjectID, o Object) {
	mask := len(t.ids) - 1
	i := t.home(id)
	for t.ids[i] != empty {
		i = (i + 1) & mask
	}
	t.ids[i], t.objs[i] = id, o
}

// grow doubles the table, or brings it straight to the size that
// doubling would reach by the time it holds want objects, and re-links
// what it holds.
func (t *slotTab) grow(empty wire.ObjectID, want int) {
	oldIDs, oldObjs := t.ids, t.objs
	size := max(2*len(oldIDs), slotTabMinLen)
	for 8*want > 7*size {
		size *= 2
	}
	t.ids, t.objs = make([]wire.ObjectID, size), make([]Object, size)
	t.shift = uint8(32 - bits.TrailingZeros(uint(size)))
	if empty != 0 {
		for i := range t.ids {
			t.ids[i] = empty
		}
	}
	for i, id := range oldIDs {
		if id != empty {
			t.link(id, empty, oldObjs[i])
		}
	}
}

// del removes id if present. Backward shift: walk the rest of the probe
// run and pull into the hole every entry whose home lies at or before
// it (cyclically), so each remaining entry stays reachable from its
// home.
func (t *slotTab) del(id, empty wire.ObjectID) {
	i := t.find(id, empty)
	if i < 0 {
		return
	}
	mask := len(t.ids) - 1
	for j := i; ; {
		j = (j + 1) & mask
		k := t.ids[j]
		if k == empty {
			break
		}
		if (j-t.home(k))&mask >= (j-i)&mask {
			t.ids[i], t.objs[i] = k, t.objs[j]
			i = j
		}
	}
	t.ids[i], t.objs[i] = empty, Object{}
	t.n--
}

// each calls fn for every object of the table, in table order.
func (t *slotTab) each(empty wire.ObjectID, fn func(wire.ObjectID, Object)) {
	for i, id := range t.ids {
		if id != empty {
			fn(id, t.objs[i])
		}
	}
}

// New creates a store. shards is the number of storage processes the
// server models (eight Redis instances in the paper's prototype); the
// layout does not depend on it.
func New(shards int) *Store { return &Store{} }

func (s *Store) put(id wire.ObjectID, o Object) {
	slot := wire.SlotOf(id)
	s.slots[slot].put(id, emptyID(slot), o)
}

// Apply installs a write. It returns ErrOutOfOrder if seq does not
// strictly exceed the last applied sequence number — the §5.2
// requirement that lets the switch keep only one entry per contended
// object. delete removes the object instead of updating it.
func (s *Store) Apply(id wire.ObjectID, value []byte, seq wire.Seq, del bool) error {
	if !s.lastApplied.Less(seq) {
		return ErrOutOfOrder
	}
	s.lastApplied = seq
	s.applied++
	if del {
		slot := wire.SlotOf(id)
		s.slots[slot].del(id, emptyID(slot))
		return nil
	}
	s.put(id, Object{Value: value, Seq: seq})
	return nil
}

// Seed installs an object without the order check, for warming a
// replica before it serves traffic (e.g. preloading a key space).
// lastApplied only ever moves forward.
func (s *Store) Seed(id wire.ObjectID, value []byte, seq wire.Seq) {
	s.put(id, Object{Value: value, Seq: seq})
	if s.lastApplied.Less(seq) {
		s.lastApplied = seq
	}
}

// Reserve makes room for n more objects in one routing slot, so that a
// bulk load re-links the slot's table once instead of at every doubling
// on the way. The table ends at exactly the size n single inserts of
// new objects would have grown it to.
func (s *Store) Reserve(slot, n int) {
	t := &s.slots[slot]
	if want := t.n + n; 8*want > 7*len(t.ids) {
		t.grow(emptyID(slot), want)
	}
}

// CopySlot replaces the store's table of one routing slot with a copy of
// src's — same size, same layout, same objects — with Seed semantics:
// lastApplied moves forward to the newest copied object, the applied
// count is unchanged. The copy shares no array with src (the value
// bytes, which are never written in place, are shared), and reuses the
// table's own arrays when they are already src's size.
func (s *Store) CopySlot(src *Store, slot int) {
	t, from := &s.slots[slot], &src.slots[slot]
	if len(t.ids) != len(from.ids) {
		t.ids, t.objs = make([]wire.ObjectID, len(from.ids)), make([]Object, len(from.objs))
	}
	copy(t.ids, from.ids)
	copy(t.objs, from.objs)
	t.n, t.shift = from.n, from.shift
	// No object is newer than its store's lastApplied, so only a source
	// ahead of this store can hand it a newer one.
	if s.lastApplied.Less(src.lastApplied) {
		for _, o := range t.objs { // a free position holds the zero Object
			if s.lastApplied.Less(o.Seq) {
				s.lastApplied = o.Seq
			}
		}
	}
}

// Get returns the object and whether it exists.
func (s *Store) Get(id wire.ObjectID) (Object, bool) {
	slot := wire.SlotOf(id)
	t := &s.slots[slot]
	if i := t.find(id, emptyID(slot)); i >= 0 {
		return t.objs[i], true
	}
	return Object{}, false
}

// ObjectSeq returns the sequence number of the last write applied to
// id (zero if the object has never been written or was deleted — a
// deleted object's tombstone semantics are captured by lastApplied
// ordering, since deletes also advance it).
func (s *Store) ObjectSeq(id wire.ObjectID) wire.Seq {
	if o, ok := s.Get(id); ok {
		return o.Seq
	}
	return wire.ZeroSeq
}

// LastApplied returns the sequence number of the most recent applied
// write (R.seq).
func (s *Store) LastApplied() wire.Seq { return s.lastApplied }

// AppliedCount returns the number of writes applied over the store's
// lifetime.
func (s *Store) AppliedCount() uint64 { return s.applied }

// Len returns the number of live objects.
func (s *Store) Len() int {
	n := 0
	for slot := range s.slots {
		n += s.slots[slot].n
	}
	return n
}

// Snapshot copies the full state, used for state transfer when a
// replica falls behind or a new replica joins.
type Snapshot struct {
	Objects     map[wire.ObjectID]Object
	LastApplied wire.Seq
}

// Snapshot captures the current state.
func (s *Store) Snapshot() Snapshot {
	snap := Snapshot{Objects: make(map[wire.ObjectID]Object, s.Len()), LastApplied: s.lastApplied}
	for slot := range s.slots {
		s.slots[slot].each(emptyID(slot), func(id wire.ObjectID, o Object) { snap.Objects[id] = o })
	}
	return snap
}

// Restore replaces the store contents with snap.
func (s *Store) Restore(snap Snapshot) {
	s.slots = [wire.NumSlots]slotTab{}
	for id, o := range snap.Objects {
		s.put(id, o)
	}
	s.lastApplied = snap.LastApplied
}

// ExtractSlot copies every live object whose ID hashes to the given
// routing slot — the unit of state a group handoff transfers.
func (s *Store) ExtractSlot(slot int) map[wire.ObjectID]Object {
	out := make(map[wire.ObjectID]Object, s.slots[slot].n)
	s.slots[slot].each(emptyID(slot), func(id wire.ObjectID, o Object) { out[id] = o })
	return out
}

// InstallSlot installs migrated objects with Seed semantics: no
// write-order check, and lastApplied only ever moves forward. Callers
// migrating between groups must neuter the incoming sequence numbers
// (epoch 0) first — each group's scheduler counts in its own sequence
// space, and importing a foreign high-water mark into lastApplied
// would make this store reject its own group's subsequent writes as
// out of order.
func (s *Store) InstallSlot(objs map[wire.ObjectID]Object) {
	for id, o := range objs {
		s.Seed(id, o.Value, o.Seq)
	}
}

// DropSlot removes every object in the routing slot, returning the
// count. The handoff source calls it after the route flipped: the
// slot's reads can no longer reach this group, and keeping the copies
// would only shadow the now-authoritative destination.
func (s *Store) DropSlot(slot int) int {
	n := s.slots[slot].n
	s.slots[slot] = slotTab{}
	return n
}

// SlotLen returns the number of live objects in one routing slot.
func (s *Store) SlotLen(slot int) int { return s.slots[slot].n }

// SlotCounts returns a copy of the per-slot object counts — the
// occupancy input to the rebalancer's ObjectCost veto.
func (s *Store) SlotCounts() []int {
	out := make([]int, wire.NumSlots)
	for slot := range s.slots {
		out[slot] = s.slots[slot].n
	}
	return out
}

// String summarizes the store for diagnostics.
func (s *Store) String() string {
	return fmt.Sprintf("store{objects=%d lastApplied=%s}", s.Len(), s.lastApplied)
}
