package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// The heat registers' accounting obligations: (1) before any decay,
// the counters sum exactly to the client-originated operations the
// front-end saw — nothing double-counted, nothing missed, reads and
// writes in their own columns; (2) the counters are indexed by the
// slot the front-end computes from the object ID, so a client's group
// stamp — stale, random, or hostile — can never skew the ranking; (3)
// decay is monotone and sticky at the floor (every counter drops by
// exactly half rounded down — ceil-halving — so relative rankings
// survive a round and a live slot never flaps to zero).
func TestSlotHeatAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f4 := NewFrontend(4) // nil partitions: packets drop after routing, heat still counts
		var (
			total      uint64
			wantReads  [wire.NumSlots]uint64
			wantWrites [wire.NumSlots]uint64
		)
		for i := 0; i < 500; i++ {
			id := wire.ObjectID(rng.Uint32())
			slot := wire.SlotOf(id)
			pkt := &wire.Packet{
				ObjID: id,
				// The group stamp is an arbitrary guess; the front-end
				// must ignore it for heat indexing (and overriding it is
				// its routing job anyway).
				Group: uint16(rng.Intn(8)),
			}
			switch rng.Intn(4) {
			case 0:
				pkt.Op = wire.OpWrite
				wantWrites[slot]++
				total++
			case 1:
				pkt.Op = wire.OpRead
				wantReads[slot]++
				total++
			case 2:
				// Replica-forwarded re-entry of a fast read: already
				// counted on its first traversal, must not count again.
				pkt.Op = wire.OpRead
				pkt.Flags |= wire.FlagForwarded
				pkt.Group = 0
			default:
				// Replica-originated traffic never touches heat.
				pkt.Op = wire.OpWriteReply
				pkt.Group = 0
			}
			// Occasionally freeze the slot first: offered load counts
			// even when the packet is dropped mid-migration.
			frozen := rng.Intn(8) == 0 && pkt.Op != wire.OpWriteReply
			if frozen {
				f4.FreezeSlot(slot)
			}
			f4.Recv(simnet.NodeID(1), pkt)
			if frozen {
				f4.UnfreezeSlot(slot)
			}
		}
		heat := f4.heat
		var sum uint64
		for s, h := range heat {
			if h.Reads != wantReads[s] || h.Writes != wantWrites[s] {
				return false
			}
			sum += h.Total()
		}
		if sum != total {
			return false
		}
		// Decay: ceil-halving (x -= x>>1), per counter, monotone —
		// nonzero counters stay nonzero, so the hysteresis band can't
		// flap a low-rate slot.
		f4.DecayHeat()
		for s, h := range f4.heat {
			if h.Reads != heat[s].Reads-heat[s].Reads/2 || h.Writes != heat[s].Writes-heat[s].Writes/2 {
				return false
			}
			if h.Reads > heat[s].Reads || h.Writes > heat[s].Writes {
				return false
			}
			if heat[s].Reads > 0 && h.Reads == 0 || heat[s].Writes > 0 && h.Writes == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Repeated decay converges to a sticky floor of 1 per live counter —
// a slot that saw any traffic stays warm until the slot is explicitly
// cleared or the front-end reboots, so it cannot flap across the
// hysteresis band. ClearHeat and Reboot still cold-start the register.
func TestSlotHeatDecayAndReboot(t *testing.T) {
	f := NewFrontend(2)
	f.Recv(1, &wire.Packet{Op: wire.OpWrite, ObjID: 7})
	f.Recv(1, &wire.Packet{Op: wire.OpRead, ObjID: 7})
	slot := wire.SlotOf(7)
	if h := f.HeatOf(slot); h.Reads != 1 || h.Writes != 1 {
		t.Fatalf("heat = %+v, want 1 read + 1 write", h)
	}
	for i := 0; i < 64; i++ {
		f.DecayHeat()
	}
	for s, h := range f.heat {
		if s == slot {
			if h.Reads != 1 || h.Writes != 1 {
				t.Fatalf("slot %d heat %+v after full decay, want sticky floor of 1/1", s, h)
			}
			continue
		}
		if h.Total() != 0 {
			t.Fatalf("cold slot %d heat %+v after full decay", s, h)
		}
	}
	if f.Stats.HeatDecays != 64 {
		t.Fatalf("HeatDecays = %d, want 64", f.Stats.HeatDecays)
	}
	f.ClearHeat(slot)
	if h := f.HeatOf(slot); h.Total() != 0 {
		t.Fatalf("heat %+v survived ClearHeat (explicit clears must win over the floor)", h)
	}
	f.Recv(1, &wire.Packet{Op: wire.OpWrite, ObjID: 7})
	f.Reboot()
	if h := f.HeatOf(slot); h.Total() != 0 {
		t.Fatalf("heat %+v survived a reboot (soft register state must not)", h)
	}
}
