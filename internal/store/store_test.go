package store

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"harmonia/internal/wire"
)

func seq(n uint64) wire.Seq { return wire.Seq{Epoch: 1, N: n} }

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
	if s.ObjectSeq(1) != wire.ZeroSeq {
		t.Fatal("deleted object has nonzero seq")
	}
}

func TestObjectSeqAndLastApplied(t *testing.T) {
	s := New(4)
	_ = s.Apply(10, []byte("a"), seq(1), false)
	_ = s.Apply(20, []byte("b"), seq(2), false)
	if s.ObjectSeq(10) != seq(1) || s.ObjectSeq(20) != seq(2) {
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

func TestSnapshotRestore(t *testing.T) {
	s := New(8)
	for i := uint64(1); i <= 50; i++ {
		_ = s.Apply(wire.ObjectID(i), []byte{byte(i)}, seq(i), false)
	}
	snap := s.Snapshot()

	fresh := New(2) // different shard count must not matter
	fresh.Restore(snap)
	if fresh.Len() != 50 || fresh.LastApplied() != seq(50) {
		t.Fatalf("restore: len=%d last=%v", fresh.Len(), fresh.LastApplied())
	}
	for i := uint64(1); i <= 50; i++ {
		o, ok := fresh.Get(wire.ObjectID(i))
		if !ok || o.Value[0] != byte(i) || o.Seq != seq(i) {
			t.Fatalf("object %d wrong after restore: %+v %v", i, o, ok)
		}
	}
	// Snapshot must be a copy: mutating the restored store must not
	// affect the source.
	_ = fresh.Apply(1, []byte("zz"), seq(99), false)
	if o, _ := s.Get(1); o.Value[0] != 1 {
		t.Fatal("snapshot aliases source store")
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
			if s.LastApplied().Less(s.ObjectSeq(id)) {
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
// install, drop, restore — so the rebalancer's ObjectCost veto can
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

	snap := s.Snapshot()
	s2 := New(2)
	s2.Seed(wire.ObjectID(7), []byte("x"), wire.Seq{})
	s2.Restore(snap)
	got := s2.SlotCounts()
	want := s.SlotCounts()
	for slot := range got {
		if got[slot] != want[slot] {
			t.Fatalf("restore: slot %d count %d, want %d", slot, got[slot], want[slot])
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

// TestReserveLandsWhereDoublingDoes: reserving room for n objects and
// then inserting them leaves a slot's table at exactly the size n plain
// inserts grow it to, from an empty table and from a populated one, so
// bulk loading moves no memory figure — and does it in one re-link.
func TestReserveLandsWhereDoublingDoes(t *testing.T) {
	const slot = 5
	var ids []wire.ObjectID
	for id := wire.ObjectID(0); len(ids) < 1200; id++ {
		if wire.SlotOf(id) == slot {
			ids = append(ids, id)
		}
	}
	for _, held := range []int{0, 1, 7, 100} {
		for n := 0; held+n <= len(ids); n += 1 + n/8 {
			plain, reserved := New(8), New(8)
			for _, id := range ids[:held] {
				plain.Seed(id, nil, wire.Seq{N: 1})
				reserved.Seed(id, nil, wire.Seq{N: 1})
			}
			reserved.Reserve(slot, n)
			sized := len(reserved.slots[slot].ids)
			for _, id := range ids[held : held+n] {
				plain.Seed(id, nil, wire.Seq{N: 1})
				reserved.Seed(id, nil, wire.Seq{N: 1})
			}
			if got, want := len(reserved.slots[slot].ids), len(plain.slots[slot].ids); got != want || got != sized {
				t.Fatalf("%d held + %d reserved: table of %d (sized %d by Reserve), plain inserts reach %d", held, n, got, sized, want)
			}
			for _, id := range ids[:held+n] {
				if _, ok := reserved.Get(id); !ok {
					t.Fatalf("%d held + %d reserved: object %d lost", held, n, id)
				}
			}
		}
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
		var ids []wire.ObjectID
		for id := wire.ObjectID(0); len(ids) < 300; id++ {
			if wire.SlotOf(id) == slot {
				ids = append(ids, id)
			}
		}
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
		if got.n != from.n || got.shift != from.shift || !slices.Equal(got.ids, from.ids) || len(got.objs) != len(from.objs) {
			t.Fatalf("slot %d: copied table n=%d shift=%d len=%d, source n=%d shift=%d len=%d",
				slot, got.n, got.shift, len(got.ids), from.n, from.shift, len(from.ids))
		}
		for i := range got.objs {
			if got.objs[i].Seq != from.objs[i].Seq || !bytes.Equal(got.objs[i].Value, from.objs[i].Value) {
				t.Fatalf("slot %d position %d: %v, source %v", slot, i, got.objs[i], from.objs[i])
			}
		}
		if &got.ids[0] == &from.ids[0] || &got.objs[0] == &from.objs[0] {
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
