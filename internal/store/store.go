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
	"unsafe"

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
// parallel arrays kept at most 7/8 full, deletion by backward shift so
// lookups never meet a tombstone. A probe run walks only the 4-byte
// IDs; the object sits at its ID's position in the 16-byte entry array,
// so both addresses follow from the hash and their cache misses
// overlap. A position costs 20 bytes (an Object beside its ID would
// take 44), and the collector finds one pointer per entry. Inserts
// double a table; Reserve sizes one to a bulk load, in whole cache
// lines of IDs, so the arrays need not be a power of two long.
type slotTab struct {
	ids  []wire.ObjectID // emptyID(slot) marks a free position
	ents []entry
	n    int
}

// entry is an Object packed into 16 bytes: the value as its first byte
// (nil stays nil, empty stays empty; what comes back out has
// cap == len) and one meta word holding the value's length, the
// sequence number and a boxed flag. An object that does not fit the
// word — a value of 128 bytes or more, an epoch from 2¹⁶, an N from
// 2⁴⁰ — is boxed instead: val names an immutable heap Object and meta
// is the flag alone. The zero entry, a free position, reads as a nil
// value at the zero sequence number.
type entry struct {
	val  unsafe.Pointer
	meta uint64
}

// The meta word, from its low bit: 7 bits of value length, the boxed
// flag, 16 bits of epoch and 40 of N.
const (
	lenBits    = 7
	boxed      = 1 << lenBits
	epochShift = lenBits + 1
	epochBits  = 16
	nShift     = epochShift + epochBits
)

func pack(o Object) entry {
	v, s := o.Value, o.Seq
	if len(v) >= 1<<lenBits || s.Epoch >= 1<<epochBits || s.N >= 1<<(64-nShift) {
		return entry{val: unsafe.Pointer(&Object{Value: v[:len(v):len(v)], Seq: s}), meta: boxed}
	}
	return entry{val: unsafe.Pointer(unsafe.SliceData(v)), meta: s.N<<nShift | uint64(s.Epoch)<<epochShift | uint64(len(v))}
}

func (e *entry) seqNum() wire.Seq {
	if e.meta&boxed != 0 {
		return (*Object)(e.val).Seq
	}
	return wire.Seq{Epoch: uint32(e.meta >> epochShift & (1<<epochBits - 1)), N: e.meta >> nShift}
}

func (e *entry) object() Object {
	if e.meta&boxed != 0 {
		return *(*Object)(e.val)
	}
	return Object{Value: unsafe.Slice((*byte)(e.val), e.meta&(1<<lenBits-1)), Seq: e.seqNum()}
}

const (
	slotTabMinLen = 8
	// slotTabLine is the granule Reserve sizes a table in: one 64-byte
	// cache line of IDs.
	slotTabLine = 16
)

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

// home is id's preferred position: the golden-ratio product whose bits
// 8–15 wire.SlotOf routes by, read as a fraction of the table and
// scaled to its length (multiply-high). For a power-of-two length that
// is the product's top bits.
func (t *slotTab) home(id wire.ObjectID) int {
	return int(uint64(uint32(id)*0x9E3779B1) * uint64(len(t.ids)) >> 32)
}

// find returns id's position, or -1.
func (t *slotTab) find(id, empty wire.ObjectID) int {
	if t.n == 0 {
		return -1
	}
	for i := t.home(id); ; {
		switch t.ids[i] {
		case id:
			return i
		case empty:
			return -1
		}
		if i++; i == len(t.ids) {
			i = 0
		}
	}
}

// put inserts or replaces id's object.
func (t *slotTab) put(id, empty wire.ObjectID, o Object) {
	e := pack(o)
	if i := t.find(id, empty); i >= 0 {
		t.ents[i] = e
		return
	}
	if 8*(t.n+1) > 7*len(t.ids) {
		t.resize(empty, max(2*len(t.ids), slotTabMinLen))
	}
	t.link(id, empty, e)
	t.n++
}

// link places an absent id at the first free position from its home.
func (t *slotTab) link(id, empty wire.ObjectID, e entry) {
	i := t.home(id)
	for t.ids[i] != empty {
		if i++; i == len(t.ids) {
			i = 0
		}
	}
	t.ids[i], t.ents[i] = id, e
}

// resize moves the table to size positions and re-links what it holds.
func (t *slotTab) resize(empty wire.ObjectID, size int) {
	oldIDs, oldEnts := t.ids, t.ents
	t.ids, t.ents = make([]wire.ObjectID, size), make([]entry, size)
	if empty != 0 {
		for i := range t.ids {
			t.ids[i] = empty
		}
	}
	for i, id := range oldIDs {
		if id != empty {
			t.link(id, empty, oldEnts[i])
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
	for j := i; ; {
		if j++; j == len(t.ids) {
			j = 0
		}
		k := t.ids[j]
		if k == empty {
			break
		}
		if t.behind(t.home(k), j) >= t.behind(i, j) {
			t.ids[i], t.ents[i] = k, t.ents[j]
			i = j
		}
	}
	t.ids[i], t.ents[i] = empty, entry{}
	t.n--
}

// behind returns how many positions from lies before to, cyclically.
func (t *slotTab) behind(from, to int) int {
	d := to - from
	if d < 0 {
		d += len(t.ids)
	}
	return d
}

// each calls fn for every object of the table, in table order.
func (t *slotTab) each(empty wire.ObjectID, fn func(wire.ObjectID, Object)) {
	for i, id := range t.ids {
		if id != empty {
			fn(id, t.ents[i].object())
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
// on the way. A table too small for them moves to the fewest whole cache
// lines of IDs that hold them at 7/8 load, about 23 bytes an object,
// where a table sized by doubling can be as little as 7/16 full. Inserts
// past 7/8 double it as usual.
func (s *Store) Reserve(slot, n int) {
	t := &s.slots[slot]
	if want := t.n + n; 8*want > 7*len(t.ids) {
		size := (8*want + 6) / 7
		t.resize(emptyID(slot), (size+slotTabLine-1)/slotTabLine*slotTabLine)
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
		t.ids, t.ents = make([]wire.ObjectID, len(from.ids)), make([]entry, len(from.ents))
	}
	copy(t.ids, from.ids)
	copy(t.ents, from.ents)
	t.n = from.n
	// No object is newer than its store's lastApplied, so only a source
	// ahead of this store can hand it a newer one.
	if s.lastApplied.Less(src.lastApplied) {
		for i := range t.ents { // a free position holds the zero entry
			if seq := t.ents[i].seqNum(); s.lastApplied.Less(seq) {
				s.lastApplied = seq
			}
		}
	}
}

// Get returns the object and whether it exists.
func (s *Store) Get(id wire.ObjectID) (Object, bool) {
	slot := wire.SlotOf(id)
	t := &s.slots[slot]
	if i := t.find(id, emptyID(slot)); i >= 0 {
		return t.ents[i].object(), true
	}
	return Object{}, false
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

// Snapshot is a copy of the full state: every object and lastApplied,
// for comparing replicas' stores.
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
