package store

import (
	"bytes"
	"errors"
	"testing"

	"harmonia/internal/wire"
)

// fuzzIDs is the key pool the fuzz stream draws from: 80 IDs in each
// of three routing slots (ID 0 among them), so probe runs collide,
// indexes grow several times and backward-shift deletes have something
// to shift.
var fuzzIDs, fuzzSlots = func() ([]wire.ObjectID, []int) {
	slots := []int{wire.SlotOf(0), 1, 200}
	var ids []wire.ObjectID
	for _, slot := range slots {
		n := 0
		for id := wire.ObjectID(0); n < 80; id++ {
			if wire.SlotOf(id) == slot {
				ids = append(ids, id)
				n++
			}
		}
	}
	return ids, slots
}()

// storeOracle is the reference: a plain map plus the two counters.
type storeOracle struct {
	objs        map[wire.ObjectID]Object
	lastApplied wire.Seq
	applied     uint64
}

func (o *storeOracle) seed(id wire.ObjectID, v []byte, seq wire.Seq) {
	o.objs[id] = Object{Value: v, Seq: seq}
	if o.lastApplied.Less(seq) {
		o.lastApplied = seq
	}
}

// copySlot replaces o's objects of one slot with src's, seeded.
func (o *storeOracle) copySlot(src *storeOracle, slot int) {
	for id := range o.objs {
		if wire.SlotOf(id) == slot {
			delete(o.objs, id)
		}
	}
	for id, obj := range src.objs {
		if wire.SlotOf(id) == slot {
			o.seed(id, obj.Value, obj.Seq)
		}
	}
}

func (o *storeOracle) slotLen(slot int) int {
	n := 0
	for id := range o.objs {
		if wire.SlotOf(id) == slot {
			n++
		}
	}
	return n
}

func checkSlotCounts(t *testing.T, step int, s *Store, o *storeOracle) {
	t.Helper()
	want := make([]int, wire.NumSlots)
	for id := range o.objs {
		want[wire.SlotOf(id)]++
	}
	for slot, n := range s.SlotCounts() {
		if n != want[slot] || s.SlotLen(slot) != n {
			t.Fatalf("step %d: slot %d SlotCounts %d SlotLen %d, oracle %d", step, slot, n, s.SlotLen(slot), want[slot])
		}
	}
}

// fuzzValue is the value a write with argument arg stores: nil, empty
// but not nil, or 1, 8, 64 or 200 bytes drawn from arg (200 is past
// what an entry packs).
func fuzzValue(arg byte) []byte {
	switch arg % 6 {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	return fuzzBytes([]int{1, 8, 64, 200}[arg%6-2], arg)
}

func fuzzBytes(n int, arg byte) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = arg + byte(i)
	}
	return v
}

// sameValue holds a value the store gave back to the one it was given:
// the same bytes, nil exactly when that was nil, and no capacity beyond
// its length.
func sameValue(got, want []byte) bool {
	return bytes.Equal(got, want) && (got == nil) == (want == nil) && cap(got) == len(got)
}

func sameObjects(a, b map[wire.ObjectID]Object) bool {
	if len(a) != len(b) {
		return false
	}
	for id, x := range a {
		if y, ok := b[id]; !ok || x.Seq != y.Seq || !sameValue(x.Value, y.Value) {
			return false
		}
	}
	return true
}

// FuzzStoreAgainstMap interprets the input as a stream of store
// operations (three bytes each: opcode, key, argument) on two stores,
// each with its own map oracle, and checks both after every step. The
// opcode byte picks the operation (mod 11) and the store it acts on
// (the next bit); op 10 copies one slot, or every slot, of that store
// into the other, after which the two are mutated independently.
func FuzzStoreAgainstMap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 1, 3, 0, 0, 1, 0, 0, 3, 0, 0})
	f.Add([]byte{2, 5, 9, 2, 85, 9, 4, 0, 0, 6, 1, 0, 5, 7, 3, 7, 0, 0, 0, 3, 1, 8, 0, 0})
	grow := make([]byte, 0, 3*len(fuzzIDs)*2)
	for k := range fuzzIDs { // fill all three slots, then delete every other key
		grow = append(grow, 0, byte(k), 1)
	}
	for k := 0; k < len(fuzzIDs); k += 2 {
		grow = append(grow, 1, byte(k), 1)
	}
	f.Add(grow)
	f.Add(append([]byte{9, 1, 200, 2, 1, 7, 9, 1, 3, 6, 1, 0, 9, 1, 0}, grow...)) // reserve, fill, drop, reserve again
	// Fill store 0, copy every slot into store 1, write and delete on
	// each side, copy single slots both ways, then write store 0 again.
	f.Add(append(append(append([]byte(nil), grow...),
		10, 0, 1, 0, 3, 7, 11, 3, 7, 1, 4, 1, 12, 6, 2, 21, 4, 8, 10, 1, 0, 21, 1, 0), grow[:60]...))
	// Reserve 48 positions in slot fuzzSlots[1], write every key of the
	// slot homed in the second half (40 of them), then delete them in the
	// same order: more than 24 such keys overflow position 47 into 0, so
	// the backward shifts wrap past the end of a table that is not a
	// power of two long, along probe runs long enough that a distance
	// taken modulo a power of two goes wrong.
	wrap := []byte{9, 1, 30}
	var tail []byte
	probe := slotTab{ids: make([]wire.ObjectID, 48)}
	for k := 80; k < 160; k++ { // fuzzSlots[1]'s keys
		if probe.home(fuzzIDs[k]) >= 24 {
			tail = append(tail, byte(k))
		}
	}
	if len(tail) <= 24 || 8*len(tail) > 7*48 {
		f.Fatalf("%d keys homed in the last 24 of 48 positions: the probe run does not wrap, or the table grows", len(tail))
	}
	for _, op := range []byte{0, 1} {
		for _, k := range tail {
			wrap = append(wrap, op, k, 1)
		}
	}
	f.Add(wrap)
	// Boxed entries in store 0's table of fuzzSlots[0]: seed every key
	// with a 200-byte value, write over every third with a packed one,
	// reseed every fifth at epoch 2¹⁶, delete every other key (backward
	// shifts pull boxed and packed entries past each other), copy the
	// slot into store 1, read it there and write over it.
	var mixed []byte
	for k := 0; k < 80; k++ {
		mixed = append(mixed, 8, byte(k), byte(3*k))
	}
	for k := 0; k < 80; k += 3 {
		mixed = append(mixed, 0, byte(k), 2)
	}
	for k := 1; k < 80; k += 5 {
		mixed = append(mixed, 8, byte(k), 4)
	}
	for k := 0; k < 80; k += 2 {
		mixed = append(mixed, 1, byte(k), 1)
	}
	mixed = append(mixed, 10, 0, 0)
	for k := 1; k < 80; k += 2 {
		mixed = append(mixed, 11+3, byte(k), 0, 11+0, byte(k), 3)
	}
	f.Add(mixed)
	// Every key of all three slots seeded at N ≥ 2⁴⁰, so each later
	// write is boxed too: delete every third key, write over every
	// seventh, copy every slot into store 1, then delete there and read
	// store 0.
	var wide []byte
	for k := 0; k < len(fuzzIDs); k++ {
		wide = append(wide, 8, byte(k), byte(2+3*(k%80)))
	}
	for k := 0; k < len(fuzzIDs); k += 3 {
		wide = append(wide, 1, byte(k), 1)
	}
	for k := 0; k < len(fuzzIDs); k += 7 {
		wide = append(wide, 0, byte(k), 3)
	}
	wide = append(wide, 10, 0, 1)
	for k := 0; k < len(fuzzIDs); k += 4 {
		wide = append(wide, 11+1, byte(k), 1, 3, byte(k), 0)
	}
	f.Add(wide)

	f.Fuzz(func(t *testing.T, data []byte) {
		stores := [2]*Store{New(8), New(8)}
		oracles := [2]*storeOracle{{objs: map[wire.ObjectID]Object{}}, {objs: map[wire.ObjectID]Object{}}}
		for step := 0; len(data) >= 3; step++ {
			op, which, k, arg := data[0]%11, int(data[0]/11)&1, data[1], data[2]
			data = data[3:]
			s, o := stores[which], oracles[which]
			id := fuzzIDs[int(k)%len(fuzzIDs)]
			slot := fuzzSlots[int(k)%len(fuzzSlots)]
			switch op {
			case 0, 1: // Apply (write or delete), in order or stale
				seq := wire.Seq{Epoch: o.lastApplied.Epoch, N: o.lastApplied.N + 1}
				if arg%8 == 0 {
					seq = wire.Seq{Epoch: o.lastApplied.Epoch, N: o.lastApplied.N - uint64(arg>>3)%(o.lastApplied.N+1)}
				}
				v := fuzzValue(arg)
				err := s.Apply(id, v, seq, op == 1)
				if want := !o.lastApplied.Less(seq); want != errors.Is(err, ErrOutOfOrder) {
					t.Fatalf("step %d: Apply at %v after %v returned %v", step, seq, o.lastApplied, err)
				}
				if err == nil {
					o.lastApplied = seq
					o.applied++
					if op == 1 {
						delete(o.objs, id)
					} else {
						o.objs[id] = Object{Value: v, Seq: seq}
					}
				}
			case 2: // Seed, possibly behind or far ahead of lastApplied
				seq := wire.Seq{Epoch: uint32(arg & 1), N: uint64(arg)}
				v := fuzzValue(arg)
				s.Seed(id, v, seq)
				o.seed(id, v, seq)
			case 3: // Get
			case 4: // ExtractSlot
				want := map[wire.ObjectID]Object{}
				for oid, obj := range o.objs {
					if wire.SlotOf(oid) == slot {
						want[oid] = obj
					}
				}
				if got := s.ExtractSlot(slot); !sameObjects(got, want) {
					t.Fatalf("step %d: ExtractSlot(%d) returned %d objects, oracle %d", step, slot, len(got), len(want))
				}
			case 5: // InstallSlot of up to four neutered objects
				in := map[wire.ObjectID]Object{}
				for j := 0; j < int(arg%5); j++ {
					in[fuzzIDs[(int(k)+7*j)%len(fuzzIDs)]] = Object{Value: []byte{arg, byte(j)}, Seq: wire.Seq{N: uint64(arg) + uint64(j)}}
				}
				s.InstallSlot(in)
				for oid, obj := range in {
					o.seed(oid, obj.Value, obj.Seq)
				}
			case 6: // DropSlot
				want := 0
				for oid := range o.objs {
					if wire.SlotOf(oid) == slot {
						delete(o.objs, oid)
						want++
					}
				}
				if got := s.DropSlot(slot); got != want {
					t.Fatalf("step %d: DropSlot(%d) removed %d, oracle %d", step, slot, got, want)
				}
			case 7: // Snapshot
				snap := s.Snapshot()
				if !sameObjects(snap.Objects, o.objs) || snap.LastApplied != o.lastApplied {
					t.Fatalf("step %d: snapshot differs from the oracle", step)
				}
			case 8: // Seed outside the packed widths: a 200-byte value, an epoch of 2¹⁶ or an N of 2⁴⁰
				v, seq := fuzzValue(arg), wire.Seq{N: uint64(arg)}
				switch arg % 3 {
				case 0:
					v = fuzzBytes(200, arg)
				case 1:
					seq.Epoch = 1 << 16
				case 2:
					seq.N += 1 << 40
				}
				s.Seed(id, v, seq)
				o.seed(id, v, seq)
			case 9: // Reserve room in one slot: no observable change
				s.Reserve(slot, int(arg))
			case 10: // CopySlot into the other store: one slot, or every slot
				dst, dstOracle := stores[1-which], oracles[1-which]
				if arg&1 == 0 {
					dst.CopySlot(s, slot)
					dstOracle.copySlot(o, slot)
					break
				}
				for c := 0; c < wire.NumSlots; c++ {
					dst.CopySlot(s, c)
				}
				clear(dstOracle.objs)
				for oid, obj := range o.objs {
					dstOracle.seed(oid, obj.Value, obj.Seq)
				}
			}

			for i, s := range stores {
				o := oracles[i]
				got, ok := s.Get(id)
				want, wantOK := o.objs[id]
				if ok != wantOK || got.Seq != want.Seq || !sameValue(got.Value, want.Value) {
					t.Fatalf("step %d (op %d): store %d Get(%d) = %v %v, oracle %v %v", step, op, i, id, got, ok, want, wantOK)
				}
				if s.Len() != len(o.objs) || s.LastApplied() != o.lastApplied || s.AppliedCount() != o.applied {
					t.Fatalf("step %d (op %d): store %d Len %d lastApplied %v applied %d, oracle %d %v %d",
						step, op, i, s.Len(), s.LastApplied(), s.AppliedCount(), len(o.objs), o.lastApplied, o.applied)
				}
				if op >= 4 || len(data) < 3 { // whole-slot operations, and the last step
					checkSlotCounts(t, step, s, o)
				} else if got, want := s.SlotLen(wire.SlotOf(id)), o.slotLen(wire.SlotOf(id)); got != want {
					t.Fatalf("step %d (op %d): store %d SlotLen(%d) = %d, oracle %d", step, op, i, wire.SlotOf(id), got, want)
				}
			}
		}
		for i, s := range stores {
			if !sameObjects(s.Snapshot().Objects, oracles[i].objs) {
				t.Fatalf("store %d: final contents differ from the oracle", i)
			}
		}
	})
}
