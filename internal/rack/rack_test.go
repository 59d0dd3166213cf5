package rack

import (
	"testing"
	"time"

	"harmonia/internal/core"
	"harmonia/internal/wire"
)

func TestRackLayoutContiguousShards(t *testing.T) {
	r := New(4, 8)
	// Slot shards are contiguous: the slot → switch map never decreases.
	prev := 0
	for slot := 0; slot < wire.NumSlots; slot++ {
		sw := r.SwitchOfSlot(slot)
		if sw < prev {
			t.Fatalf("slot %d: switch %d after %d — shard not contiguous", slot, sw, prev)
		}
		prev = sw
	}
	// Every slot's group lives on the slot's switch.
	for slot := 0; slot < wire.NumSlots; slot++ {
		g := r.RouteOf(slot)
		if r.SwitchOfGroup(g) != r.SwitchOfSlot(slot) {
			t.Fatalf("slot %d: group %d on switch %d but slot on switch %d",
				slot, g, r.SwitchOfGroup(g), r.SwitchOfSlot(slot))
		}
	}
	// Every group owns at least one slot at boot, and every switch
	// hosts a contiguous group block.
	owned := make(map[int]int)
	for slot := 0; slot < wire.NumSlots; slot++ {
		owned[r.RouteOf(slot)]++
	}
	for g := 0; g < 8; g++ {
		if owned[g] == 0 {
			t.Fatalf("group %d owns no slots at boot", g)
		}
	}
	// Ownership masks partition the slot space exactly.
	for slot := 0; slot < wire.NumSlots; slot++ {
		owners := 0
		for s := 0; s < r.Switches(); s++ {
			if r.Front(s).OwnsSlot(slot) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("slot %d has %d owners", slot, owners)
		}
	}
}

func TestRackSingleSwitchLayoutIsHistorical(t *testing.T) {
	// With one switch the layout must be bit-identical to the
	// pre-rack striping: slot % groups.
	r := New(1, 4)
	for slot := 0; slot < wire.NumSlots; slot++ {
		if got, want := r.RouteOf(slot), wire.DefaultGroupOfSlot(slot, 4); got != want {
			t.Fatalf("slot %d: route %d, historical striping %d", slot, got, want)
		}
		if r.SwitchOfSlot(slot) != 0 {
			t.Fatalf("slot %d not on switch 0", slot)
		}
	}
}

func TestRackCrossSwitchSetRouteMovesOwnership(t *testing.T) {
	r := New(2, 4)
	// Find a slot on switch 0 and a group on switch 1.
	slot := -1
	for s := 0; s < wire.NumSlots; s++ {
		if r.SwitchOfSlot(s) == 0 {
			slot = s
			break
		}
	}
	dst := r.GroupsOf(1)[0]
	r.FreezeSlot(slot)
	if !r.Front(0).Frozen(slot) {
		t.Fatal("freeze did not land on the owning front-end")
	}
	r.SetRoute(slot, dst)
	if r.SwitchOfSlot(slot) != 1 {
		t.Fatalf("slot %d still on switch %d after cross-switch flip", slot, r.SwitchOfSlot(slot))
	}
	if r.Front(0).OwnsSlot(slot) || !r.Front(1).OwnsSlot(slot) {
		t.Fatal("front-end ownership did not transfer with the route")
	}
	if r.Front(0).Frozen(slot) || r.Front(1).Frozen(slot) {
		t.Fatal("slot should thaw through a cross-switch flip")
	}
	if r.RouteOf(slot) != dst {
		t.Fatalf("route is %d, want %d", r.RouteOf(slot), dst)
	}
	// Flip back: ownership returns.
	src := r.GroupsOf(0)[0]
	r.SetRoute(slot, src)
	if r.SwitchOfSlot(slot) != 0 || !r.Front(0).OwnsSlot(slot) {
		t.Fatal("flip back did not restore ownership")
	}
}

func TestRackEpochDomainsIndependent(t *testing.T) {
	r := New(3, 6)
	if r.Epoch(0) != 1 || r.Epoch(1) != 1 || r.Epoch(2) != 1 {
		t.Fatal("epochs should start at 1")
	}
	r.BumpEpoch(1)
	if r.Epoch(0) != 1 || r.Epoch(1) != 2 || r.Epoch(2) != 1 {
		t.Fatalf("bumping switch 1 must not disturb the others: %d %d %d",
			r.Epoch(0), r.Epoch(1), r.Epoch(2))
	}
}

func TestRackValidate(t *testing.T) {
	cases := []struct {
		switches, groups int
		ok               bool
	}{
		{1, 1, true},
		{1, 256, true},
		{4, 4, true},
		{4, 8, true},
		{8, 256, true},
		{0, 1, false},   // no switches
		{9, 16, false},  // beyond MaxSwitches
		{4, 3, false},   // more switches than groups
		{3, 256, false}, // a shard with more groups than slots
	}
	for _, tc := range cases {
		err := Validate(tc.switches, tc.groups)
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%d, %d) = %v, want ok=%v", tc.switches, tc.groups, err, tc.ok)
		}
	}
}

func TestRackStatsAccumulate(t *testing.T) {
	r := New(2, 4)
	r.NoteRevokes(1, 3)
	r.NoteAck(1)
	r.NoteAck(1)
	r.NoteReplacement(1, 5*time.Millisecond)
	st := r.Stats(1)
	if st.RevokesSent != 3 || st.AcksReceived != 2 || st.AgreementMsgs() != 5 {
		t.Fatalf("stats %+v", st)
	}
	if st.Replacements != 1 || st.LastAgreementLatency != 5*time.Millisecond {
		t.Fatalf("replacement stats %+v", st)
	}
	if s0 := r.Stats(0); s0.AgreementMsgs() != 0 {
		t.Fatalf("switch 0 stats disturbed: %+v", s0)
	}
}

// TestRackSetRouteClearsHeatOnTransfer migrates a slot across switches
// and back: the old owner's frozen heat residue must not resurface as
// current heat — both sides start from zero after each transfer.
func TestRackSetRouteClearsHeatOnTransfer(t *testing.T) {
	r := New(2, 4)
	slot := -1
	for s := 0; s < wire.NumSlots; s++ {
		if r.SwitchOfSlot(s) == 0 {
			slot = s
			break
		}
	}
	// Simulate traffic on switch 0 by counting a packet through it.
	r.Front(0).Recv(0, heatProbe(slot))
	if r.SlotHeat()[slot].Total() == 0 {
		t.Fatal("probe did not register heat")
	}
	r.SetRoute(slot, r.GroupsOf(1)[0]) // away…
	if got := r.SlotHeat()[slot].Total(); got != 0 {
		t.Fatalf("destination inherited %d heat; must count from first packet", got)
	}
	r.SetRoute(slot, r.GroupsOf(0)[0]) // …and back
	if got := r.SlotHeat()[slot].Total(); got != 0 {
		t.Fatalf("stale source residue resurfaced as %d current heat", got)
	}
}

// TestSlotHeatIntoAllocs: the rebalancer tick and AddGroup read the
// rack-wide heat sample through SlotHeatInto, which must not allocate.
func TestSlotHeatIntoAllocs(t *testing.T) {
	r := New(2, 4)
	var dst [wire.NumSlots]core.SlotHeat
	if allocs := testing.AllocsPerRun(1000, func() { r.SlotHeatInto(dst[:]) }); allocs != 0 {
		t.Fatalf("SlotHeatInto allocates %.1f per run, want 0", allocs)
	}
}

// heatProbe builds a client read whose object lands in the given slot.
func heatProbe(slot int) *wire.Packet {
	for id := uint32(0); ; id++ {
		if wire.SlotOf(wire.ObjectID(id)) == slot {
			return &wire.Packet{Op: wire.OpRead, ObjID: wire.ObjectID(id)}
		}
	}
}
