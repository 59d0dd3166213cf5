package store

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"harmonia/internal/wire"
	"harmonia/internal/workload"
)

func seq(n uint64) wire.Seq { return wire.Seq{Epoch: 1, N: n} }

// TestEntrySize pins the per-position cost of a stored object: each
// replica holds every key of its groups, so the entry array is most of
// a read-heavy run's heap.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 16 {
		t.Fatalf("entry is %d bytes, want 16", n)
	}
}

func TestApplyGet(t *testing.T) {
	s := New(8)
	if err := s.Apply(1, []byte("v1"), seq(1), false); err != nil {
		t.Fatal(err)
	}
	o, ok := s.Get(1)
	if !ok || !bytes.Equal(o.Value, []byte("v1")) || o.Seq != seq(1) {
		t.Fatalf("Get = %+v, %v", o, ok)
	}
	if _, ok := s.Get(2); ok {
		t.Fatal("phantom object")
	}
}

func TestApplyOutOfOrderRejected(t *testing.T) {
	s := New(4)
	if err := s.Apply(1, []byte("a"), seq(5), false); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(2, []byte("b"), seq(5), false); err != ErrOutOfOrder {
		t.Fatalf("equal seq accepted: %v", err)
	}
	if err := s.Apply(2, []byte("b"), seq(3), false); err != ErrOutOfOrder {
		t.Fatalf("lower seq accepted: %v", err)
	}
	// State must be unchanged by rejected writes.
	if _, ok := s.Get(2); ok {
		t.Fatal("rejected write mutated state")
	}
	if s.LastApplied() != seq(5) {
		t.Fatal("rejected write advanced lastApplied")
	}
}

func TestApplyEpochOrdering(t *testing.T) {
	s := New(4)
	_ = s.Apply(1, []byte("old"), wire.Seq{Epoch: 1, N: 100}, false)
	// A new-epoch write with a smaller counter is still "later".
	if err := s.Apply(1, []byte("new"), wire.Seq{Epoch: 2, N: 1}, false); err != nil {
		t.Fatalf("new-epoch write rejected: %v", err)
	}
	// An old-epoch straggler must be rejected.
	if err := s.Apply(1, []byte("stale"), wire.Seq{Epoch: 1, N: 101}, false); err != ErrOutOfOrder {
		t.Fatalf("old-epoch write accepted: %v", err)
	}
	o, _ := s.Get(1)
	if string(o.Value) != "new" {
		t.Fatalf("value = %q", o.Value)
	}
}

func TestDelete(t *testing.T) {
	s := New(4)
	_ = s.Apply(1, []byte("x"), seq(1), false)
	if err := s.Apply(1, nil, seq(2), true); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(1); ok {
		t.Fatal("object survived delete")
	}
	if s.LastApplied() != seq(2) {
		t.Fatal("delete did not advance lastApplied")
	}
	if o, _ := s.Get(1); o.Seq != wire.ZeroSeq {
		t.Fatal("deleted object has nonzero seq")
	}
}

func TestObjectSeqAndLastApplied(t *testing.T) {
	s := New(4)
	_ = s.Apply(10, []byte("a"), seq(1), false)
	_ = s.Apply(20, []byte("b"), seq(2), false)
	a, _ := s.Get(10)
	b, _ := s.Get(20)
	if a.Seq != seq(1) || b.Seq != seq(2) {
		t.Fatal("per-object seq wrong")
	}
	if s.LastApplied() != seq(2) {
		t.Fatal("lastApplied wrong")
	}
}

func TestLenAndAppliedCount(t *testing.T) {
	s := New(4)
	for i := uint64(1); i <= 10; i++ {
		_ = s.Apply(wire.ObjectID(i%3), []byte("v"), seq(i), false)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.AppliedCount() != 10 {
		t.Fatalf("AppliedCount = %d", s.AppliedCount())
	}
}

// TestSnapshotCopiesState: a snapshot holds every object and
// lastApplied, and later writes to the store do not reach it.
func TestSnapshotCopiesState(t *testing.T) {
	s := New(8)
	for i := uint64(1); i <= 50; i++ {
		_ = s.Apply(wire.ObjectID(i), []byte{byte(i)}, seq(i), false)
	}
	snap := s.Snapshot()
	if len(snap.Objects) != 50 || snap.LastApplied != seq(50) {
		t.Fatalf("snapshot: %d objects, lastApplied %v", len(snap.Objects), snap.LastApplied)
	}
	for i := uint64(1); i <= 50; i++ {
		o, ok := snap.Objects[wire.ObjectID(i)]
		if !ok || o.Value[0] != byte(i) || o.Seq != seq(i) {
			t.Fatalf("object %d wrong in snapshot: %+v %v", i, o, ok)
		}
	}
	_ = s.Apply(1, []byte("zz"), seq(99), false)
	_ = s.Apply(2, nil, seq(100), true)
	if o := snap.Objects[1]; o.Value[0] != 1 || len(snap.Objects) != 50 || snap.LastApplied != seq(50) {
		t.Fatal("snapshot aliases the store")
	}
}

func TestMinShardCount(t *testing.T) {
	s := New(0)
	if err := s.Apply(1, []byte("x"), seq(1), false); err != nil {
		t.Fatal(err)
	}
}

// Property: the store agrees with a model map for any in-order write
// sequence with random keys/deletes.
func TestStoreMatchesModel(t *testing.T) {
	f := func(sd int64) bool {
		rng := rand.New(rand.NewSource(sd))
		s := New(8)
		model := map[wire.ObjectID][]byte{}
		for i := uint64(1); i <= 500; i++ {
			id := wire.ObjectID(rng.Intn(40))
			if rng.Intn(5) == 0 {
				if s.Apply(id, nil, seq(i), true) != nil {
					return false
				}
				delete(model, id)
			} else {
				v := []byte{byte(rng.Intn(256))}
				if s.Apply(id, v, seq(i), false) != nil {
					return false
				}
				model[id] = v
			}
		}
		if s.Len() != len(model) {
			return false
		}
		for k, v := range model {
			o, ok := s.Get(k)
			if !ok || !bytes.Equal(o.Value, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: lastApplied is always the max applied seq, and per-object
// seqs never exceed it.
func TestSeqInvariants(t *testing.T) {
	f := func(sd int64) bool {
		rng := rand.New(rand.NewSource(sd))
		s := New(4)
		var max wire.Seq
		for i := 0; i < 300; i++ {
			sq := wire.Seq{Epoch: uint32(rng.Intn(3)), N: uint64(rng.Intn(1000))}
			id := wire.ObjectID(rng.Intn(20))
			err := s.Apply(id, []byte("v"), sq, false)
			if max.Less(sq) {
				if err != nil {
					return false
				}
				max = sq
			} else if err != ErrOutOfOrder {
				return false
			}
			if s.LastApplied() != max {
				return false
			}
			if o, _ := s.Get(id); s.LastApplied().Less(o.Seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractInstallDropSlot(t *testing.T) {
	src := New(4)
	var inSlot, elsewhere []wire.ObjectID
	for id := wire.ObjectID(1); len(inSlot) < 3 || len(elsewhere) < 2; id++ {
		if wire.SlotOf(id) == 5 {
			inSlot = append(inSlot, id)
		} else {
			elsewhere = append(elsewhere, id)
		}
	}
	seq := uint64(0)
	for _, id := range append(append([]wire.ObjectID{}, inSlot...), elsewhere...) {
		seq++
		if err := src.Apply(id, []byte{byte(seq)}, wire.Seq{Epoch: 1, N: seq}, false); err != nil {
			t.Fatal(err)
		}
	}

	got := src.ExtractSlot(5)
	if len(got) != len(inSlot) {
		t.Fatalf("ExtractSlot(5) returned %d objects, want %d", len(got), len(inSlot))
	}
	for _, id := range inSlot {
		if _, ok := got[id]; !ok {
			t.Fatalf("object %d missing from extract", id)
		}
	}

	// Install into a destination already ahead in its own sequence
	// space, with neutered (epoch-0) seqs: the destination must keep
	// accepting its own writes afterwards.
	dst := New(4)
	if err := dst.Apply(elsewhere[0], []byte("d"), wire.Seq{Epoch: 1, N: 100}, false); err != nil {
		t.Fatal(err)
	}
	install := make(map[wire.ObjectID]Object, len(got))
	for id, o := range got {
		install[id] = Object{Value: o.Value, Seq: wire.Seq{Epoch: 0, N: o.Seq.N}}
	}
	dst.InstallSlot(install)
	for _, id := range inSlot {
		if o, ok := dst.Get(id); !ok || o.Seq.Epoch != 0 {
			t.Fatalf("installed object %d = %+v, %v", id, o, ok)
		}
	}
	if got := dst.LastApplied(); got != (wire.Seq{Epoch: 1, N: 100}) {
		t.Fatalf("install moved lastApplied to %v", got)
	}
	if err := dst.Apply(elsewhere[1], []byte("e"), wire.Seq{Epoch: 1, N: 101}, false); err != nil {
		t.Fatalf("destination rejects its own writes after install: %v", err)
	}

	// Drop removes exactly the slot's objects from the source.
	if n := src.DropSlot(5); n != len(inSlot) {
		t.Fatalf("DropSlot removed %d, want %d", n, len(inSlot))
	}
	for _, id := range inSlot {
		if _, ok := src.Get(id); ok {
			t.Fatalf("object %d survived DropSlot", id)
		}
	}
	for _, id := range elsewhere {
		if _, ok := src.Get(id); !ok {
			t.Fatalf("DropSlot removed out-of-slot object %d", id)
		}
	}
}

// TestSlotCountsTrackOnline verifies the per-slot object counts stay
// exact through every mutation path — write, overwrite, delete, seed,
// install, drop, copy — so the rebalancer's ObjectCost veto can
// sample occupancy without a scan.
func TestSlotCountsTrackOnline(t *testing.T) {
	s := New(4)
	var knuth uint32 = 2654435761
	verify := func(when string) {
		t.Helper()
		want := make(map[int]int)
		for id := range s.Snapshot().Objects {
			want[wire.SlotOf(id)]++
		}
		got := s.SlotCounts()
		for slot := 0; slot < wire.NumSlots; slot++ {
			if got[slot] != want[slot] {
				t.Fatalf("%s: slot %d count %d, scan says %d", when, slot, got[slot], want[slot])
			}
		}
	}

	n := uint64(0)
	apply := func(id wire.ObjectID, del bool) {
		n++
		if err := s.Apply(id, []byte("v"), wire.Seq{Epoch: 1, N: n}, del); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	for i := 0; i < 64; i++ {
		apply(wire.ObjectID(uint32(i)*2654435761), false)
	}
	verify("after writes")
	for i := 0; i < 16; i++ {
		apply(wire.ObjectID(uint32(i)*2654435761), false) // overwrite: no count change
	}
	verify("after overwrites")
	for i := 0; i < 8; i++ {
		apply(wire.ObjectID(uint32(i)*2654435761), true) // delete
	}
	apply(wire.ObjectID(999999999), true) // delete of absent key: no-op
	verify("after deletes")

	s.Seed(wire.ObjectID(42), []byte("s"), wire.Seq{})
	s.Seed(wire.ObjectID(42), []byte("s2"), wire.Seq{}) // reseed: no change
	verify("after seeds")

	slot := wire.SlotOf(wire.ObjectID(8 * knuth))
	if got := s.SlotLen(slot); got != len(s.ExtractSlot(slot)) {
		t.Fatalf("SlotLen(%d) = %d, extract says %d", slot, got, len(s.ExtractSlot(slot)))
	}
	s.DropSlot(slot)
	verify("after drop")

	s2 := New(2)
	s2.Seed(wire.ObjectID(7), []byte("x"), wire.Seq{})
	for slot := range wire.NumSlots {
		s2.CopySlot(s, slot)
	}
	got := s2.SlotCounts()
	want := s.SlotCounts()
	for slot := range got {
		if got[slot] != want[slot] {
			t.Fatalf("copy: slot %d count %d, want %d", slot, got[slot], want[slot])
		}
	}
}

// TestEmptyIDRoutesElsewhere holds every slot's free-position marker
// to the property the tables rely on: wire.SlotOf never sends that ID
// to the slot, so it cannot collide with a stored one.
func TestEmptyIDRoutesElsewhere(t *testing.T) {
	for slot := 0; slot < wire.NumSlots; slot++ {
		if wire.SlotOf(emptyID(slot)) == slot {
			t.Fatalf("slot %d: marker %d routes to the slot it marks", slot, emptyID(slot))
		}
	}
}

// slotIDs returns the first n object IDs, counting up from 0, that
// route to slot.
func slotIDs(slot, n int) []wire.ObjectID {
	var ids []wire.ObjectID
	for id := wire.ObjectID(0); len(ids) < n; id++ {
		if wire.SlotOf(id) == slot {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestReserveSizesInCacheLines: reserving room for n objects and then
// inserting them re-links a slot's table once, at Reserve, to the
// smallest multiple of 16 positions that holds them at 7/8 load (or not
// at all when it already does), from an empty table and from a
// populated one; the n inserts re-link nothing, and plain inserts past
// 7/8 double the table.
func TestReserveSizesInCacheLines(t *testing.T) {
	const slot = 5
	ids := slotIDs(slot, 1400)
	for _, held := range []int{0, 1, 7, 100} {
		for n := 0; held+n <= 1200; n += 1 + n/8 {
			s := New(8)
			for _, id := range ids[:held] {
				s.Seed(id, nil, wire.Seq{N: 1})
			}
			tab := &s.slots[slot]
			before := tab.ids
			s.Reserve(slot, n)
			sized := tab.ids
			want := len(before)
			if 8*(held+n) > 7*want {
				for want = 16; 8*(held+n) > 7*want; want += 16 {
				}
			}
			if len(sized) != want || (want == len(before) && unsafe.SliceData(sized) != unsafe.SliceData(before)) {
				t.Fatalf("%d held + %d reserved: Reserve left a table of %d (was %d), want %d", held, n, len(sized), len(before), want)
			}
			for _, id := range ids[held : held+n] {
				s.Seed(id, nil, wire.Seq{N: 1})
			}
			if unsafe.SliceData(tab.ids) != unsafe.SliceData(sized) {
				t.Fatalf("%d held + %d reserved: the inserts re-linked the table (%d → %d positions)", held, n, len(sized), len(tab.ids))
			}
			for _, id := range ids[:held+n] {
				if _, ok := s.Get(id); !ok {
					t.Fatalf("%d held + %d reserved: object %d lost", held, n, id)
				}
			}
			if len(sized) == 0 {
				continue
			}
			next := held + n
			for ; len(tab.ids) == len(sized); next++ {
				s.Seed(ids[next], nil, wire.Seq{N: 1})
			}
			if len(tab.ids) != 2*len(sized) || 8*(next-1) > 7*len(sized) {
				t.Fatalf("%d held + %d reserved: insert %d moved a table of %d to %d, want it doubled past 7/8", held, n, next, len(sized), len(tab.ids))
			}
		}
	}
}

// TestReservedObjectCost is the memory guard on the replicas' largest
// structure: 100 000 workload keys, reserved slot by slot as a bulk
// load does, take at most 23.3 bytes per object counted from the
// tables' lengths: 20 bytes a position at 7/8 load is 22.86, and
// rounding each of the 256 tables up to a cache line of IDs adds 0.38
// on these keys (23.24). 24-byte entries cost 32.5, power-of-two
// tables 26.2.
func TestReservedObjectCost(t *testing.T) {
	const keys = 100000
	var perSlot [wire.NumSlots]int
	for i := 0; i < keys; i++ {
		perSlot[wire.SlotOf(wire.HashKey(workload.KeyName(i)))]++
	}
	s := New(8)
	positions := 0
	for slot, n := range perSlot {
		s.Reserve(slot, n)
		positions += len(s.slots[slot].ids)
	}
	const perPosition = int(unsafe.Sizeof(wire.ObjectID(0)) + unsafe.Sizeof(entry{}))
	if cost := float64(positions*perPosition) / keys; cost > 23.3 {
		t.Fatalf("%d reserved objects take %d positions, %.2f bytes each, want at most 23.3", keys, positions, cost)
	}
}

// TestCopySlotCopiesTheTable: CopySlot leaves one slot's table exactly
// as the source's — size, probe layout (deletes included), count —
// without sharing its arrays, reusing the destination's own arrays when
// they already have the size; lastApplied moves forward to the newest
// copied object only (Seed's rule, not the source's high-water mark),
// the applied count stays, and every other slot is untouched.
func TestCopySlotCopiesTheTable(t *testing.T) {
	for _, slot := range []int{0, 5} { // slot 0's free marker is not zero
		ids := slotIDs(slot, 300)
		other := wire.ObjectID(0)
		for wire.SlotOf(other) == slot {
			other++
		}
		src, dst := New(8), New(8)
		for i, id := range ids {
			if err := src.Apply(id, []byte{byte(i)}, wire.Seq{Epoch: 1, N: uint64(i + 1)}, false); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < len(ids); i += 3 { // backward shifts rearrange probe runs
			if err := src.Apply(ids[i], nil, wire.Seq{Epoch: 1, N: uint64(len(ids) + i + 1)}, true); err != nil {
				t.Fatal(err)
			}
		}
		newest := wire.ZeroSeq
		src.slots[slot].each(emptyID(slot), func(_ wire.ObjectID, o Object) {
			if newest.Less(o.Seq) {
				newest = o.Seq
			}
		})
		dst.Seed(ids[1], []byte("stale"), wire.Seq{N: 1})
		dst.Seed(other, []byte("kept"), wire.Seq{N: 2})
		if err := dst.Apply(ids[0], []byte("x"), wire.Seq{Epoch: 1, N: 3}, false); err != nil {
			t.Fatal(err)
		}

		dst.CopySlot(src, slot)
		from, got := &src.slots[slot], &dst.slots[slot]
		if got.n != from.n || !slices.Equal(got.ids, from.ids) || len(got.ents) != len(from.ents) {
			t.Fatalf("slot %d: copied table n=%d len=%d, source n=%d len=%d",
				slot, got.n, len(got.ids), from.n, len(from.ids))
		}
		for i := range got.ents {
			if got.ents[i] != from.ents[i] {
				t.Fatalf("slot %d position %d: %v, source %v", slot, i, got.ents[i].object(), from.ents[i].object())
			}
		}
		if &got.ids[0] == &from.ids[0] || &got.ents[0] == &from.ents[0] {
			t.Fatalf("slot %d: the copy shares the source's arrays", slot)
		}
		if dst.LastApplied() != newest || newest == src.LastApplied() {
			t.Fatalf("slot %d: lastApplied %v, want the newest copied object's %v (source's %v)", slot, dst.LastApplied(), newest, src.LastApplied())
		}
		if dst.AppliedCount() != 1 {
			t.Fatalf("slot %d: applied count %d, want the one Apply", slot, dst.AppliedCount())
		}
		if o, ok := dst.Get(other); !ok || string(o.Value) != "kept" || dst.Len() != src.Len()+1 {
			t.Fatalf("slot %d: another slot's object %v %v, Len %d", slot, o, ok, dst.Len())
		}

		// Independent afterwards, both ways.
		live := ids[1]
		if err := src.Apply(live, []byte("src"), wire.Seq{Epoch: 2, N: 1}, false); err != nil {
			t.Fatal(err)
		}
		if err := dst.Apply(ids[2], nil, wire.Seq{Epoch: 2, N: 1}, true); err != nil {
			t.Fatal(err)
		}
		if o, _ := dst.Get(live); string(o.Value) == "src" {
			t.Fatalf("slot %d: a write to the source reached the copy", slot)
		}
		if _, ok := src.Get(ids[2]); !ok {
			t.Fatalf("slot %d: a delete at the copy reached the source", slot)
		}

		// Same size again: the copy reuses its arrays.
		if n := testing.AllocsPerRun(10, func() { dst.CopySlot(src, slot) }); n != 0 {
			t.Fatalf("slot %d: a same-size copy allocated %v times", slot, n)
		}
		// An empty source empties the slot.
		dst.CopySlot(New(8), slot)
		if dst.SlotLen(slot) != 0 || dst.Len() != 1 {
			t.Fatalf("slot %d: after copying an empty slot SlotLen %d Len %d", slot, dst.SlotLen(slot), dst.Len())
		}
	}
}

// TestPackedWritesAllocateNothing: an object inside the meta word's
// widths — an 8-byte value at epoch 3 and N 2³⁹ — is written over a
// live position and read back without allocating. At each width's
// edge, an object packs or is boxed as the widths say, and comes back
// through Get, ExtractSlot and CopySlot exactly as it went in.
func TestPackedWritesAllocateNothing(t *testing.T) {
	s := New(8)
	v := []byte("8 bytes!")
	sq := wire.Seq{Epoch: 3, N: 1 << 39}
	if err := s.Apply(7, v, sq, false); err != nil {
		t.Fatal(err)
	}
	var err error
	if n := testing.AllocsPerRun(100, func() {
		sq.N++
		err = s.Apply(7, v, sq, false)
	}); n != 0 || err != nil {
		t.Fatalf("Apply over a live position: %v allocations, %v", n, err)
	}
	var o Object
	if n := testing.AllocsPerRun(100, func() { o, _ = s.Get(7) }); n != 0 {
		t.Fatalf("Get: %v allocations", n)
	}
	if !sameValue(o.Value, v) || o.Seq != sq {
		t.Fatalf("Get = %q at %v, want %q at %v", o.Value, o.Seq, v, sq)
	}

	long := make([]byte, 128, 300)
	for i := range long {
		long[i] = byte(i)
	}
	for _, c := range []struct {
		o     Object
		boxed bool
	}{
		{Object{long[:127], wire.Seq{Epoch: 1<<16 - 1, N: 1<<40 - 1}}, false},
		{Object{long, wire.Seq{Epoch: 1, N: 1}}, true},
		{Object{nil, wire.Seq{Epoch: 1 << 16, N: 1}}, true},
		{Object{[]byte{}, wire.Seq{N: 1 << 40}}, true},
		{Object{long[:1], wire.Seq{Epoch: 1<<32 - 1, N: 1<<64 - 1}}, true},
	} {
		const slot = 9
		id := slotIDs(slot, 1)[0]
		src, dst := New(8), New(8)
		src.Seed(id, c.o.Value, c.o.Seq)
		tab := &src.slots[slot]
		if isBoxed := tab.ents[tab.find(id, emptyID(slot))].meta&boxed != 0; isBoxed != c.boxed {
			t.Fatalf("%d bytes at %v: boxed %v, want %v", len(c.o.Value), c.o.Seq, isBoxed, c.boxed)
		}
		dst.CopySlot(src, slot)
		got, ok := src.Get(id)
		extracted := src.ExtractSlot(slot)[id]
		copied, copiedOK := dst.Get(id)
		for _, g := range []Object{got, extracted, copied} {
			if !ok || !copiedOK || g.Seq != c.o.Seq || !sameValue(g.Value, c.o.Value) {
				t.Fatalf("%d bytes at %v came back as %d bytes (cap %d) at %v", len(c.o.Value), c.o.Seq, len(g.Value), cap(g.Value), g.Seq)
			}
		}
		if dst.LastApplied() != c.o.Seq {
			t.Fatalf("%d bytes at %v: the copy's lastApplied is %v", len(c.o.Value), c.o.Seq, dst.LastApplied())
		}
	}
}

// TestPrefetchChangesNothing: a hint for a present ID, an absent ID in a
// populated slot, an ID of a slot never written, of a slot whose
// objects were all deleted and of a dropped slot leaves the store's
// contents as they were and allocates nothing.
func TestPrefetchChangesNothing(t *testing.T) {
	s := New(8)
	live, deleted, dropped := slotIDs(5, 40), slotIDs(6, 3), slotIDs(7, 3)
	for i, id := range slices.Concat(live[:20], deleted, dropped) {
		if err := s.Apply(id, []byte{byte(i)}, seq(uint64(i+1)), false); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range deleted {
		if err := s.Apply(id, nil, seq(uint64(100+i)), true); err != nil {
			t.Fatal(err)
		}
	}
	s.DropSlot(7)
	before := s.Snapshot()
	hints := slices.Concat(live, deleted, dropped, slotIDs(8, 3))
	if n := testing.AllocsPerRun(100, func() {
		for _, id := range hints {
			s.Prefetch(id)
		}
	}); n != 0 {
		t.Fatalf("Prefetch: %v allocations", n)
	}
	after := s.Snapshot()
	if !sameObjects(after.Objects, before.Objects) || after.LastApplied != before.LastApplied {
		t.Fatal("Prefetch changed the store's contents")
	}
	if s.SlotLen(6) != 0 || s.SlotLen(7) != 0 || s.SlotLen(8) != 0 || s.SlotLen(5) != 20 {
		t.Fatalf("slot lengths %d %d %d %d after Prefetch", s.SlotLen(5), s.SlotLen(6), s.SlotLen(7), s.SlotLen(8))
	}
}
