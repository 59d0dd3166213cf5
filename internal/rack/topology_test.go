package rack

import (
	"testing"

	"harmonia/internal/wire"
)

// TestTopologyEpochSemantics pins the versioning contract: the epoch
// moves exactly once per MEMBERSHIP revision (add, retire, re-weight)
// and never on per-slot route flips — migrations are steady state.
func TestTopologyEpochSemantics(t *testing.T) {
	r := New(1, 2)
	topo := r.Topo()
	if topo.Epoch() != 1 {
		t.Fatalf("boot epoch = %d, want 1", topo.Epoch())
	}
	r.SetRoute(0, 1-r.RouteOf(0))
	if topo.Epoch() != 1 {
		t.Fatal("route flip bumped the topology epoch")
	}
	g := r.AddGroup(0, 1)
	if g != 2 {
		t.Fatalf("AddGroup returned %d, want 2", g)
	}
	if topo.Epoch() != 2 {
		t.Fatalf("AddGroup moved epoch to %d, want 2", topo.Epoch())
	}
	r.SetGroupWeight(g, 3)
	if topo.Epoch() != 3 {
		t.Fatalf("SetGroupWeight moved epoch to %d, want 3", topo.Epoch())
	}
	// Seed the new group one slot, evacuate group 1, retire it.
	r.SetRoute(5, g)
	for slot := 0; slot < wire.NumSlots; slot++ {
		if r.RouteOf(slot) == 1 {
			r.SetRoute(slot, 0)
		}
	}
	if topo.Epoch() != 3 {
		t.Fatal("evacuation flips bumped the topology epoch")
	}
	r.RetireGroup(1)
	if topo.Epoch() != 4 {
		t.Fatalf("RetireGroup moved epoch to %d, want 4", topo.Epoch())
	}
}

// TestTopologyLiveness covers the live/retired views: weights zero out
// on retirement, LiveGroups and GroupsOf exclude retired IDs, and IDs
// are never reused.
func TestTopologyLiveness(t *testing.T) {
	r := New(1, 3)
	topo := r.Topo()
	for slot := 0; slot < wire.NumSlots; slot++ {
		if r.RouteOf(slot) == 2 {
			r.SetRoute(slot, 0)
		}
	}
	r.RetireGroup(2)
	if r.Live(2) || topo.Weight(2) != 0 {
		t.Fatalf("retired group still live=%v weight=%v", r.Live(2), topo.Weight(2))
	}
	lw := topo.LiveWeights()
	if lw[2] != 0 || lw[0] == 0 || lw[1] == 0 {
		t.Fatalf("LiveWeights = %v", lw)
	}
	if got := r.LiveGroups(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("LiveGroups = %v", got)
	}
	if got := r.GroupsOf(0); len(got) != 2 {
		t.Fatalf("GroupsOf(0) includes retired group: %v", got)
	}
	g := r.AddGroup(0, 2)
	if g != 3 {
		t.Fatalf("new group reused an ID: got %d, want 3", g)
	}
}

// TestTopologyGuards pins the panics that keep the tables consistent:
// retiring a group that still owns slots, routing to a retired group,
// and malformed AddGroup arguments.
func TestTopologyGuards(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := New(1, 2)
	expectPanic("RetireGroup with slots", func() { r.RetireGroup(1) })
	expectPanic("AddGroup bad switch", func() { r.AddGroup(9, 1) })
	expectPanic("AddGroup bad weight", func() { r.AddGroup(0, -1) })
	for slot := 0; slot < wire.NumSlots; slot++ {
		if r.RouteOf(slot) == 1 {
			r.SetRoute(slot, 0)
		}
	}
	r.RetireGroup(1)
	expectPanic("SetRoute to retired group", func() { r.SetRoute(0, 1) })
	expectPanic("SetGroupWeight on retired group", func() { r.SetGroupWeight(1, 2) })
	expectPanic("double retire", func() { r.RetireGroup(1) })
}

// TestTopologyAddGroupCrossSwitch verifies a group added to a second
// switch serves slots there after a cross-switch flip: the slot's
// front-end ownership transfers with the route.
func TestTopologyAddGroupCrossSwitch(t *testing.T) {
	r := New(2, 2)
	g := r.AddGroup(1, 1)
	var slot int
	for s := 0; s < wire.NumSlots; s++ {
		if r.SwitchOfSlot(s) == 0 {
			slot = s
			break
		}
	}
	r.SetRoute(slot, g)
	if r.SwitchOfSlot(slot) != 1 {
		t.Fatalf("slot %d still on switch %d after flip to a switch-1 group", slot, r.SwitchOfSlot(slot))
	}
	if !r.Front(1).OwnsSlot(slot) || r.Front(0).OwnsSlot(slot) {
		t.Fatal("front-end ownership did not transfer with the route")
	}
	if r.Topo().SwitchOfGroup(g) != 1 {
		t.Fatalf("group %d hosted on switch %d, want 1", g, r.Topo().SwitchOfGroup(g))
	}
}
