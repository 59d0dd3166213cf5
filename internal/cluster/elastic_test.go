package cluster

import (
	"strings"
	"testing"
	"time"

	"harmonia/internal/wire"
	"harmonia/internal/workload"
)

// liveSlotCounts tallies slots per owning group and fails on any slot
// owned by a retired group — the coverage invariant every elastic
// operation must preserve.
func liveSlotCounts(t *testing.T, c *Cluster) []int {
	t.Helper()
	counts := make([]int, c.Groups())
	for slot, g := range c.SlotTable() {
		if g < 0 || g >= c.Groups() || !c.rack.Live(g) {
			t.Fatalf("slot %d owned by non-live group %d", slot, g)
		}
		counts[g]++
	}
	return counts
}

// TestElasticAddGroupSeedsAndServes scales a uniform cluster out by
// one group: the new group must receive a weight-fair slot share
// without stranding any slot or emptying any donor, and must serve
// reads and writes for its seeded keys end to end.
func TestElasticAddGroupSeedsAndServes(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 4, Seed: 11})
	cl := c.NewSyncClient()
	// Touch some keys so the heat histogram has a signal to place by.
	for i := 0; i < 64; i++ {
		if err := cl.Set(workload.KeyName(i), []byte("pre")); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	epoch0 := c.rack.TopoEpoch()
	g, err := c.AddGroupWait(GroupSpec{Protocol: Chain})
	if err != nil {
		t.Fatalf("AddGroupWait: %v", err)
	}
	if g != 4 || c.Groups() != 5 || !c.rack.Live(g) {
		t.Fatalf("g=%d groups=%d live=%v", g, c.Groups(), c.rack.Live(g))
	}
	if c.rack.TopoEpoch() <= epoch0 {
		t.Fatal("topology epoch did not advance")
	}
	counts := liveSlotCounts(t, c)
	for lg, n := range counts {
		if c.rack.Live(lg) && n == 0 {
			t.Fatalf("live group %d owns zero slots after scale-out: %v", lg, counts)
		}
	}
	// Uniform weights: the new share should be near 256/5.
	if counts[g] < wire.NumSlots/5-8 {
		t.Fatalf("new group seeded only %d slots: %v", counts[g], counts)
	}
	verify(t, c, Played{})
	// Existing data survived the handoffs, and keys now routed to the
	// new group serve reads and writes through it.
	served := false
	for i := 0; i < 64; i++ {
		v, ok, err := cl.Get(workload.KeyName(i))
		if err != nil || !ok || string(v) != "pre" {
			t.Fatalf("Get(%s) = %q %v %v", workload.KeyName(i), v, ok, err)
		}
		if cl.LastGroup() == g {
			served = true
			if err := cl.Set(workload.KeyName(i), []byte("post")); err != nil {
				t.Fatalf("Set via new group: %v", err)
			}
		}
	}
	if !served {
		t.Fatal("no key routed to the new group")
	}
}

// TestElasticAddGroupWeightScaleRules pins the explicit/derived weight
// scale guard at runtime: a derived-weight cluster rejects an explicit
// weight and vice versa — the same all-or-none rule assembly enforces.
func TestElasticAddGroupWeightScaleRules(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 2, Seed: 3})
	if _, _, err := c.AddGroup(GroupSpec{Protocol: Chain, Weight: 2}); err == nil {
		t.Fatal("derived-weight cluster accepted an explicit weight")
	}
	ec := New(Config{GroupSpecs: []GroupSpec{
		{Protocol: Chain, Replicas: 3, Weight: 2},
		{Protocol: Chain, Replicas: 3, Weight: 1},
	}, UseHarmonia: true, Seed: 3})
	if _, _, err := ec.AddGroup(GroupSpec{Protocol: Chain, Replicas: 3}); err == nil {
		t.Fatal("explicit-weight cluster accepted a derived weight")
	}
	if _, err := ec.AddGroupWait(GroupSpec{Protocol: Chain, Replicas: 3, Weight: 1.5}); err != nil {
		t.Fatalf("explicit-weight AddGroup: %v", err)
	}
}

// TestElasticRemoveGroupRetiresAndServes scales in: the retired
// group's slots land on the survivors by weight, its data stays
// readable, its member nodes shut down, and the retired ID rejects
// further operations.
func TestElasticRemoveGroupRetiresAndServes(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 3, Seed: 17})
	cl := c.NewSyncClient()
	for i := 0; i < 64; i++ {
		if err := cl.Set(workload.KeyName(i), []byte("keep")); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	if err := c.RemoveGroup(1); err != nil {
		t.Fatalf("RemoveGroup: %v", err)
	}
	if c.rack.Live(1) {
		t.Fatal("group 1 still live")
	}
	counts := liveSlotCounts(t, c)
	if counts[1] != 0 {
		t.Fatalf("retired group still owns %d slots", counts[1])
	}
	verify(t, c, Played{})
	for i := 0; i < c.groups[1].n; i++ {
		if !c.net.IsDown(c.groupAddr(1, i)) {
			t.Fatalf("retired member %d still up", i)
		}
	}
	for i := 0; i < 64; i++ {
		v, ok, err := cl.Get(workload.KeyName(i))
		if err != nil || !ok || string(v) != "keep" {
			t.Fatalf("Get(%s) after retirement = %q %v %v", workload.KeyName(i), v, ok, err)
		}
		if g := cl.LastGroup(); g == 1 {
			t.Fatalf("key %s still served by retired group", workload.KeyName(i))
		}
	}
	// The retired ID is permanently dead.
	if err := c.RemoveGroup(1); err == nil {
		t.Fatal("double retirement accepted")
	}
	if err := c.CrashReplicaIn(1, 0); err == nil {
		t.Fatal("crash in retired group accepted")
	}
	if _, err := c.StartRespecGroup(1, GroupSpec{Protocol: Chain}); err == nil {
		t.Fatal("respec of retired group accepted")
	}
	// Scale-in to a single group, then reject removing the last one.
	if err := c.RemoveGroup(2); err != nil {
		t.Fatalf("RemoveGroup(2): %v", err)
	}
	if err := c.RemoveGroup(0); err == nil {
		t.Fatal("removing the last live group accepted")
	}
}

// TestElasticRemoveGroupSettlesInboundHandoff: a handoff toward the
// group being removed would flip its slots onto it AFTER the evacuation
// list was computed, and the retirement would find slots still routed
// to the victim (at the parent commit: a RetireGroup panic). Removal
// aborts the handoff while it is still draining, and refuses to start
// — with nothing changed — once its copy is in flight.
func TestElasticRemoveGroupSettlesInboundHandoff(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 3, Seed: 19})
	c.Preload(96)
	m, err := c.StartBatchMigration(takeSlots(t, slotsOwnedBy(c, 96, 0), 2), 1)
	if err != nil {
		t.Fatalf("StartBatchMigration: %v", err)
	}
	r, err := c.StartRemoveGroup(1)
	if err != nil {
		t.Fatalf("StartRemoveGroup: %v", err)
	}
	c.RunFor(20 * time.Millisecond)
	if !m.Aborted() {
		t.Fatal("draining handoff toward the removed group was not aborted")
	}
	if !r.Done() || r.Err() != nil || c.rack.Live(1) {
		t.Fatalf("removal: done=%v err=%v live=%v", r.Done(), r.Err(), c.rack.Live(1))
	}
	verify(t, c, Played{})

	// Past the point of no return: the copy is in flight.
	m, err = c.StartBatchMigration(takeSlots(t, slotsOwnedBy(c, 96, 0), 2), 2)
	if err != nil {
		t.Fatalf("StartBatchMigration: %v", err)
	}
	for !m.copying && c.eng.Step() {
	}
	epoch := c.rack.TopoEpoch()
	if _, err := c.StartRemoveGroup(2); err == nil || !strings.Contains(err.Error(), "retry after it settles") {
		t.Fatalf("removal during an in-flight copy: err = %v", err)
	}
	if _, err := c.StartRespecGroup(2, GroupSpec{Protocol: Chain}); err == nil || !strings.Contains(err.Error(), "retry after it settles") {
		t.Fatalf("respec during an in-flight copy: err = %v", err)
	}
	if c.rack.TopoEpoch() != epoch || m.Aborted() {
		t.Fatal("a refused operation changed something")
	}
	c.RunFor(5 * time.Millisecond)
	if !m.Done() {
		t.Fatal("handoff did not complete")
	}
	if err := c.RemoveGroup(2); err != nil {
		t.Fatalf("RemoveGroup after the handoff settled: %v", err)
	}
	verify(t, c, Played{})
}

// TestMigrateTowardRetiredGroupRefused: a retired group has no
// scheduler partition to flip a route to. At the parent commit the
// handoff was admitted and panicked at the flip ("rack: route for slot
// … to non-live group"); it is an error at start, with nothing frozen.
func TestMigrateTowardRetiredGroupRefused(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 3, Seed: 23})
	c.Preload(96)
	if err := c.RemoveGroup(2); err != nil {
		t.Fatalf("RemoveGroup: %v", err)
	}
	slot := c.slotsOf(0)[0]
	if err := c.MigrateSlot(slot, 2); err == nil || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("MigrateSlot toward a retired group: err = %v", err)
	}
	if _, err := c.StartBatchMigration([]int{slot}, 2); err == nil || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("StartBatchMigration toward a retired group: err = %v", err)
	}
	c.RunFor(5 * time.Millisecond)
	if got := c.rack.RouteOf(slot); got != 0 {
		t.Fatalf("slot %d routes to group %d after the refused handoff", slot, got)
	}
	verify(t, c, Played{})
}

// TestMigrateTowardReconfiguringGroupRefused: a group mid-removal or
// mid-respec decided at its start which slots it owns. At the parent
// commit a handoff toward it was admitted, flipped a slot onto it
// behind that decision, and the retirement panicked ("rack:
// RetireGroup(…) but slot … still routes to it"); it is an error at
// start, the operation completes, and the group takes slots again once
// it has settled.
func TestMigrateTowardReconfiguringGroupRefused(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 3, Seed: 23})
	c.Preload(96)
	slot := c.slotsOf(0)[0]

	r, err := c.StartRemoveGroup(2)
	if err != nil {
		t.Fatalf("StartRemoveGroup: %v", err)
	}
	if _, err := c.StartBatchMigration([]int{slot}, 2); err == nil || !strings.Contains(err.Error(), "mid-remove") {
		t.Fatalf("StartBatchMigration toward a group mid-removal: err = %v", err)
	}
	if err := c.MigrateSlot(slot, 2); err == nil || !strings.Contains(err.Error(), "mid-remove") {
		t.Fatalf("MigrateSlot toward a group mid-removal: err = %v", err)
	}
	c.RunFor(20 * time.Millisecond)
	if !r.Done() || r.Err() != nil || c.rack.Live(2) {
		t.Fatalf("removal: done=%v err=%v live=%v", r.Done(), r.Err(), c.rack.Live(2))
	}

	r, err = c.StartRespecGroup(1, GroupSpec{Protocol: VR, Replicas: 3})
	if err != nil {
		t.Fatalf("StartRespecGroup: %v", err)
	}
	if _, err := c.StartBatchMigration([]int{slot}, 1); err == nil || !strings.Contains(err.Error(), "mid-respec") {
		t.Fatalf("StartBatchMigration toward a group mid-respec: err = %v", err)
	}
	c.RunFor(20 * time.Millisecond)
	if !r.Done() || r.Err() != nil {
		t.Fatalf("respec: done=%v err=%v", r.Done(), r.Err())
	}
	if err := c.MigrateSlot(slot, 1); err != nil {
		t.Fatalf("MigrateSlot once the respec settled: %v", err)
	}
	verify(t, c, Played{})
}

// TestElasticReassignSettlesCrossSwitchHandoff: a handoff from a
// surviving switch's group toward a group of the dead switch keeps
// draining on the live side, and its flip would route a slot to a group
// the reassignment has retired (at the parent commit: a SetRoute
// panic). Reassignment aborts it; the slot stays where it was.
func TestElasticReassignSettlesCrossSwitchHandoff(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 4, Switches: 2, Seed: 37})
	c.Preload(96)
	moved := takeSlots(t, slotsOwnedBy(c, 96, 0), 1)
	m, err := c.StartBatchMigration(moved, 2)
	if err != nil {
		t.Fatalf("StartBatchMigration: %v", err)
	}
	if err := c.CrashSwitch(1); err != nil {
		t.Fatalf("CrashSwitch: %v", err)
	}
	r, err := c.StartReassignDeadSwitch(1)
	if err != nil {
		t.Fatalf("StartReassignDeadSwitch: %v", err)
	}
	c.RunFor(20 * time.Millisecond)
	if !m.Aborted() || c.rack.RouteOf(moved[0]) != 0 {
		t.Fatalf("handoff toward the dead switch: aborted=%v route=%d", m.Aborted(), c.rack.RouteOf(moved[0]))
	}
	if !r.Done() || r.Err() != nil || c.rack.Live(2) || c.rack.Live(3) {
		t.Fatalf("reassignment: done=%v err=%v", r.Done(), r.Err())
	}
	verify(t, c, Played{})
}

// TestElasticRespecGroupSwapsMembers changes a live group's protocol
// and replica count in place: same group ID, same slots, fresh member
// set at the next incarnation's addresses, data and sequence space
// carried over.
func TestElasticRespecGroupSwapsMembers(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 2, Seed: 23})
	cl := c.NewSyncClient()
	for i := 0; i < 48; i++ {
		if err := cl.Set(workload.KeyName(i), []byte("v1")); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	oldAddrs := c.groups[1].addrs()
	slots0 := liveSlotCounts(t, c)
	if err := c.RespecGroup(1, GroupSpec{Protocol: VR, Replicas: 5}); err != nil {
		t.Fatalf("RespecGroup: %v", err)
	}
	grp := c.groups[1]
	if grp.inc != 1 || grp.n != 5 || grp.spec.Protocol != VR {
		t.Fatalf("respec state: inc=%d n=%d proto=%v", grp.inc, grp.n, grp.spec.Protocol)
	}
	if grp.sched == nil || !grp.sched.Ready() {
		t.Fatal("respec'd scheduler not ready (sequence space not adopted)")
	}
	for _, a := range oldAddrs {
		if !c.net.IsDown(a) {
			t.Fatalf("old member %d still up after respec", a)
		}
	}
	// Slots did not move.
	slots1 := liveSlotCounts(t, c)
	if slots1[1] != slots0[1] {
		t.Fatalf("respec moved slots: %v -> %v", slots0, slots1)
	}
	verify(t, c, Played{})
	// Data survived into the new member set; reads and writes flow.
	for i := 0; i < 48; i++ {
		v, ok, err := cl.Get(workload.KeyName(i))
		if err != nil || !ok || string(v) != "v1" {
			t.Fatalf("Get(%s) after respec = %q %v %v", workload.KeyName(i), v, ok, err)
		}
		if err := cl.Set(workload.KeyName(i), []byte("v2")); err != nil {
			t.Fatalf("Set after respec: %v", err)
		}
	}
	// A second respec lands in the next incarnation sub-window.
	if err := c.RespecGroup(1, GroupSpec{Protocol: Chain, Replicas: 3}); err != nil {
		t.Fatalf("second respec: %v", err)
	}
	if c.groups[1].inc != 2 {
		t.Fatalf("inc=%d after second respec, want 2", c.groups[1].inc)
	}
	if v, ok, err := cl.Get(workload.KeyName(5)); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("Get after second respec = %q %v %v", v, ok, err)
	}
}

// TestElasticReassignDeadSwitchRestoresCoverage kills one switch of a
// two-switch rack for good and batch-recovers its slot shard from the
// victims' replica stores: afterwards every slot is served by a live
// group on the surviving switch, the victims are retired, and every
// pre-crash value reads back.
func TestElasticReassignDeadSwitchRestoresCoverage(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 4, Switches: 2, Seed: 31})
	cl := c.NewSyncClient()
	for i := 0; i < 96; i++ {
		if err := cl.Set(workload.KeyName(i), []byte("durable")); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	if err := c.ReassignDeadSwitch(1); err == nil {
		t.Fatal("reassign of an alive switch accepted")
	}
	if err := c.CrashSwitch(1); err != nil {
		t.Fatalf("CrashSwitch: %v", err)
	}
	if err := c.ReassignDeadSwitch(1); err != nil {
		t.Fatalf("ReassignDeadSwitch: %v", err)
	}
	for slot := 0; slot < wire.NumSlots; slot++ {
		if c.rack.SwitchOfSlot(slot) == 1 {
			t.Fatalf("slot %d still mapped to the dead switch", slot)
		}
	}
	counts := liveSlotCounts(t, c)
	if c.rack.Live(2) || c.rack.Live(3) {
		t.Fatalf("victim groups still live: %v %v", c.rack.Live(2), c.rack.Live(3))
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("survivors own %v slots", counts)
	}
	verify(t, c, Played{})
	// Every committed write recovered from the victims' stores.
	for i := 0; i < 96; i++ {
		v, ok, err := cl.Get(workload.KeyName(i))
		if err != nil || !ok || string(v) != "durable" {
			t.Fatalf("Get(%s) after reassignment = %q %v %v", workload.KeyName(i), v, ok, err)
		}
		if err := cl.Set(workload.KeyName(i), []byte("fresh")); err != nil {
			t.Fatalf("Set after reassignment: %v", err)
		}
	}
}

var routeSink int

// TestElasticTopologyRouteLookupAllocFree pins the client hot path's
// allocation budget: a route lookup through the epoch-versioned
// topology — slot → group and slot → switch — is a pair of array
// loads, 0 allocs/op, even after elastic membership changes.
func TestElasticTopologyRouteLookupAllocFree(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 4, Seed: 7})
	if _, err := c.AddGroupWait(GroupSpec{Protocol: Chain}); err != nil {
		t.Fatalf("AddGroupWait: %v", err)
	}
	topo := c.rack.Topo()
	id := wire.HashKey("hot-key")
	allocs := testing.AllocsPerRun(1000, func() {
		routeSink += topo.RouteObj(id)
		routeSink += topo.SwitchOfObj(id)
		routeSink += c.routeObj(id)
		routeSink += int(c.switchAddrForObj(id))
	})
	if allocs != 0 {
		t.Fatalf("topology route lookup allocates %v allocs/op, want 0", allocs)
	}
}
