package rebalance

import (
	"testing"

	"harmonia/internal/core"
	"harmonia/internal/wire"
)

// TestPolicyLastStuckRecordsIndivisibleSlot: a tick whose trigger
// fires but whose round is empty because the heat is concentrated in
// one slot (moving it would only relocate the hot spot) must record
// that slot for the hot-key promotion policy — and a later tick that
// plans (or calms) must clear the record.
func TestPolicyLastStuckRecordsIndivisibleSlot(t *testing.T) {
	w := newFakeWorld(2)
	p := New(testCfg, w.clock)
	if _, stuck := p.LastStuck(); stuck {
		t.Fatal("fresh policy already stuck")
	}

	// All of group 0's heat in slot 0: the relocation guard refuses
	// the move (group 1 would end hotter than group 0 was), no other
	// candidate exists, and the occupancy veto never fired — so no
	// swap either. Trigger fires, round is empty, slot 0 is stuck.
	w.heat[0] = core.SlotHeat{Reads: 5000}
	w.heat[1] = core.SlotHeat{Reads: 100}
	if round := p.PlanRound(w.heat, w.table, w.objs, w.weights, nil); !round.Empty() {
		t.Fatalf("indivisible hot slot planned %+v", round)
	}
	slot, stuck := p.LastStuck()
	if !stuck || slot != 0 {
		t.Fatalf("LastStuck = (%d, %v), want (0, true)", slot, stuck)
	}
	if p.Rounds() != 0 {
		t.Fatal("a stuck tick must not count as a fired round")
	}

	// A balanced reading on the next tick clears the record.
	w.heat[0] = core.SlotHeat{Reads: 100}
	if round := p.PlanRound(w.heat, w.table, w.objs, w.weights, nil); !round.Empty() {
		t.Fatalf("balanced reading planned %+v", round)
	}
	if _, stuck := p.LastStuck(); stuck {
		t.Fatal("stuck record survived a calm tick")
	}
}

// TestPolicySwapShortObjectSlice (regression): the swap fallback's
// occupancy veto used to skip the whole cost term whenever EITHER
// slot index fell beyond the sampled objects slice, so trading a
// 5000-object hot slot for an unsampled peer was priced at bare
// 2×MoveCost — the exact copy bill the veto exists to charge. Each arm
// now clamps independently: the unsampled peer is free, the dense hot
// slot still pays.
func TestPolicySwapShortObjectSlice(t *testing.T) {
	w := newFakeWorld(2)
	p := New(testCfg, w.clock)
	w.heat[0] = core.SlotHeat{Reads: 600} // group 0, dense and hot
	w.heat[2] = core.SlotHeat{Reads: 200} // group 0, dense
	w.heat[1] = core.SlotHeat{Reads: 100} // group 1, in-range peer, 0 objects
	w.heat[3] = core.SlotHeat{Reads: 100} // group 1, peer BEYOND the sample
	w.objs = []int{5000, 0, 5000}         // slot 3 unsampled

	round := p.PlanRound(w.heat, w.table, w.objs, w.weights, nil)
	if !round.Empty() {
		t.Fatalf("dense-for-unsampled exchange dodged the copy bill: %+v", round)
	}

	// Control: once the sample shows slot 3 equally dense, the
	// occupancy DIFFERENCE is zero and the same exchange passes —
	// proving the veto above charged the clamped arm, nothing else.
	w.objs = []int{5000, 0, 5000, 5000}
	round = p.PlanRound(w.heat, w.table, w.objs, w.weights, nil)
	if len(round.Swaps) != 1 || round.Swaps[0].SlotA != 0 || round.Swaps[0].SlotB != 3 {
		t.Fatalf("round = %+v, want the 0↔3 exchange", round)
	}
}

// TestPolicyDecayStickyFloorNoFlap (regression, fake clock): the heat
// registers used to halve with a plain shift, so a slot receiving one
// op every other interval sampled 1, 0, 1, 0, … — and every policy
// input derived from it (MinOps gating, the hysteresis band, the
// hottest-group ranking) flapped with it. Ceil-halving decay keeps a
// live slot's floor sticky at 1 until it is explicitly cleared.
func TestPolicyDecayStickyFloorNoFlap(t *testing.T) {
	w := newFakeWorld(2)
	p := New(testCfg, w.clock)
	f := core.NewFrontend(2)
	objIn := func(slot int) wire.ObjectID {
		for id := uint32(1); ; id++ {
			if wire.SlotOf(wire.ObjectID(id)) == slot {
				return wire.ObjectID(id)
			}
		}
	}
	hotID, lowID := objIn(0), objIn(1) // groups 0 and 1 under s%2 striping
	heat := make([]core.SlotHeat, wire.NumSlots)
	req := uint64(1)
	for round := 0; round < 20; round++ {
		for i := 0; i < 400; i++ {
			f.Recv(1, &wire.Packet{Op: wire.OpRead, ObjID: hotID, ClientID: 1, ReqID: req})
			req++
		}
		if round%2 == 0 { // the low-rate slot: one op every OTHER interval
			f.Recv(1, &wire.Packet{Op: wire.OpRead, ObjID: lowID, ClientID: 1, ReqID: req})
			req++
		}
		for s := range heat {
			heat[s] = f.HeatOf(s)
		}
		if round > 0 && heat[1].Total() == 0 {
			t.Fatalf("round %d: low-rate slot flapped to zero between ops", round)
		}
		if heat[0].Total() <= heat[1].Total() {
			t.Fatalf("round %d: decay inverted the slot ranking (%d vs %d)",
				round, heat[0].Total(), heat[1].Total())
		}
		p.PlanRound(heat, w.table, nil, w.weights, nil) // the loop consumes the same samples
		w.now += testCfg.Interval
		f.DecayHeat()
	}
}

func TestHotKeyShouldPromoteThresholds(t *testing.T) {
	cfg := HotKeyConfig{}.Filled()
	cases := []struct {
		votes, total uint64
		want         bool
	}{
		{0, 0, false},
		{63, 80, false},      // under the absolute floor
		{64, 200, false},     // floor met, share 0.32 < 0.6
		{120, 200, true},     // share exactly 0.6
		{200, 200, true},     // sole key in the slot
		{1000, 10000, false}, // big but diluted
	}
	for _, tc := range cases {
		if got := cfg.ShouldPromote(tc.votes, tc.total); got != tc.want {
			t.Fatalf("ShouldPromote(%d, %d) = %v, want %v", tc.votes, tc.total, got, tc.want)
		}
	}
}

func TestHotKeyPickHoldersByCapacity(t *testing.T) {
	cfg := HotKeyConfig{MaxHolders: 2}.Filled()
	weights := []float64{1, 4, 2, 3, 1}
	got := cfg.PickHolders(3, weights)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("holders = %v, want [1 2] (heaviest groups, home 3 excluded)", got)
	}
	// A zero-weight group (retired, or behind another switch) is never
	// a holder; ties break toward the lowest ID.
	got = cfg.PickHolders(3, []float64{1, 0, 2, 3, 1})
	if len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Fatalf("holders = %v, want [2 0] with group 1 at weight 0", got)
	}
	// A two-group rack: exactly one holder exists; a one-group rack: none.
	if got := cfg.PickHolders(0, []float64{1, 1}); len(got) != 1 || got[0] != 1 {
		t.Fatalf("holders = %v in a 2-group rack", got)
	}
	if got := cfg.PickHolders(0, []float64{1}); got != nil {
		t.Fatalf("holders = %v in a 1-group rack, want none", got)
	}
	// MaxHolders clamps to 3: the replicated set spans at most 4 groups.
	wide := HotKeyConfig{MaxHolders: 9}.Filled()
	if got := wide.PickHolders(0, []float64{1, 1, 1, 1, 1, 1, 1, 1}); len(got) != 3 {
		t.Fatalf("%d holders with MaxHolders=9, want clamp to 3", len(got))
	}
}
