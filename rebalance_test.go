// Tests for the slot routing table and online group rebalancing: the
// switch front-end owns a slot → group table, and MigrateSlot moves a
// slot between replica groups while the cluster serves load.
package harmonia

import (
	"testing"
	"time"
)

func TestSlotTableDefaultsMatchGroupOf(t *testing.T) {
	c, err := New(Config{
		Protocol: ChainReplication, Replicas: 3, UseHarmonia: true, Groups: 4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := c.SlotTable()
	if len(tab) != NumSlots {
		t.Fatalf("slot table has %d entries, want %d", len(tab), NumSlots)
	}
	for _, key := range []string{"alpha", "bravo", "charlie", "obj00000042"} {
		slot := c.SlotOfKey(key)
		if slot < 0 || slot >= NumSlots {
			t.Fatalf("SlotOfKey(%q) = %d out of range", key, slot)
		}
		if got := c.GroupOf(key); got != tab[slot] {
			t.Fatalf("GroupOf(%q) = %d but slot %d routes to %d", key, got, slot, tab[slot])
		}
	}
}

func TestMigrateSlotPublicAPI(t *testing.T) {
	c, err := New(Config{
		Protocol: ChainReplication, Replicas: 3, UseHarmonia: true, Groups: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	const key = "hot-customer"
	if err := cl.Set(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	slot := c.SlotOfKey(key)
	from := c.GroupOf(key)
	to := (from + 1) % c.Groups()

	if err := c.MigrateSlot(slot, to); err != nil {
		t.Fatalf("MigrateSlot: %v", err)
	}
	if got := c.SlotTable()[slot]; got != to {
		t.Fatalf("slot %d routes to %d after migration, want %d", slot, got, to)
	}
	if got := c.GroupOf(key); got != to {
		t.Fatalf("GroupOf(%q) = %d after migration, want %d", key, got, to)
	}
	// Data survived the move, and writes keep working on the new owner.
	if v, ok, err := cl.Get(key); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get after migration = %q %v %v", v, ok, err)
	}
	if err := cl.Set(key, []byte("v2")); err != nil {
		t.Fatalf("Set after migration: %v", err)
	}
	if v, ok, err := cl.Get(key); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("second Get = %q %v %v", v, ok, err)
	}

	// Validation errors surface.
	if err := c.MigrateSlot(-1, 0); err == nil {
		t.Fatal("negative slot accepted")
	}
	if err := c.MigrateSlot(0, c.Groups()); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

func TestMigrateSlotsAndSwapPublicAPI(t *testing.T) {
	c, err := New(Config{
		Protocol: ChainReplication, Replicas: 3, UseHarmonia: true, Groups: 4, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	keys := []string{"batch:a", "batch:b", "batch:c", "batch:d"}
	var slots []int
	seen := map[int]bool{}
	for _, k := range keys {
		if err := cl.Set(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
		if s := c.SlotOfKey(k); !seen[s] {
			seen[s] = true
			slots = append(slots, s)
		}
	}
	// Batch move (mixed current owners) onto group 3.
	if err := c.MigrateSlots(slots, 3); err != nil {
		t.Fatalf("MigrateSlots: %v", err)
	}
	for _, k := range keys {
		if g := c.GroupOf(k); g != 3 {
			t.Fatalf("GroupOf(%q) = %d after batch move, want 3", k, g)
		}
		if v, ok, err := cl.Get(k); err != nil || !ok || string(v) != "v-"+k {
			t.Fatalf("Get(%q) = %q %v %v", k, v, ok, err)
		}
	}
	// Swap the moved set against a group-0 slot set of equal size.
	var g0 []int
	for s := 0; s < NumSlots && len(g0) < len(slots); s++ {
		if c.SlotTable()[s] == 0 {
			g0 = append(g0, s)
		}
	}
	if err := c.SwapSlots(slots, g0); err != nil {
		t.Fatalf("SwapSlots: %v", err)
	}
	for _, k := range keys {
		if g := c.GroupOf(k); g != 0 {
			t.Fatalf("GroupOf(%q) = %d after swap, want 0", k, g)
		}
		if v, ok, err := cl.Get(k); err != nil || !ok || string(v) != "v-"+k {
			t.Fatalf("Get(%q) after swap = %q %v %v", k, v, ok, err)
		}
	}
	for _, s := range g0 {
		if got := c.SlotTable()[s]; got != 3 {
			t.Fatalf("counterpart slot %d routed to %d after swap, want 3", s, got)
		}
	}
}

func TestSlotHeatPublicAPI(t *testing.T) {
	c, err := New(Config{
		Protocol: ChainReplication, Replicas: 3, UseHarmonia: true, Groups: 2, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Client()
	const key = "hot:key"
	for i := 0; i < 5; i++ {
		if err := cl.Set(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	heat := c.SlotHeat()
	if len(heat) != NumSlots {
		t.Fatalf("SlotHeat has %d entries, want %d", len(heat), NumSlots)
	}
	h := heat[c.SlotOfKey(key)]
	if h.Writes < 5 || h.Reads < 5 {
		t.Fatalf("slot heat %+v after 5 writes + 5 reads", h)
	}
	if h.Total() != h.Reads+h.Writes {
		t.Fatalf("Total() = %d, want %d", h.Total(), h.Reads+h.Writes)
	}
	// Without AutoRebalance nothing decays and nothing moves.
	if c.Rebalances() != 0 {
		t.Fatalf("Rebalances = %d without AutoRebalance", c.Rebalances())
	}
}

func TestAutoRebalanceReport(t *testing.T) {
	// A skewed zipf load on a 4-group cluster with the rebalancer on:
	// the report window sees moves, and the loop's work shows up in
	// Rebalances.
	c, err := New(Config{
		Protocol: ChainReplication, Replicas: 3, UseHarmonia: true, Groups: 4,
		AutoRebalance: true, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Skew the placement: everything onto group 0.
	all := make([]int, NumSlots)
	for s := range all {
		all[s] = s
	}
	if err := c.MigrateSlots(all, 0); err != nil {
		t.Fatal(err)
	}
	// Zero warmup: the loop acts within a couple of policy intervals,
	// and the moves must land inside the measured window to show up in
	// Report.Rebalances.
	rep := c.Run(LoadSpec{
		Clients: 64, Duration: 14 * time.Millisecond,
		WriteRatio: 0.05, Keys: 64, Dist: Zipf12,
	})
	if rep.Rebalances == 0 || c.Rebalances() == 0 {
		t.Fatalf("rebalancer idle on a fully-skewed placement (report %d, total %d)",
			rep.Rebalances, c.Rebalances())
	}
	occ := make([]int, c.Groups())
	for _, g := range c.SlotTable() {
		occ[g]++
	}
	if occ[0] == NumSlots {
		t.Fatal("slot table unchanged despite reported rebalances")
	}
}

func TestSwitchStatsCompletePlumbing(t *testing.T) {
	c, err := New(Config{
		Protocol: ChainReplication, Replicas: 3, UseHarmonia: true, Groups: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(LoadSpec{
		Clients: 16, Duration: 10 * time.Millisecond, Warmup: time.Millisecond,
		WriteRatio: 0.2, Keys: 200,
	})
	var sum SwitchStats
	for g := 0; g < c.Groups(); g++ {
		st := c.GroupSwitchStats(g)
		sum.StaleCompletion += st.StaleCompletion
		sum.LazyCleanups += st.LazyCleanups
		sum.ForwardedReads += st.ForwardedReads
		sum.SweptStale += st.SweptStale
	}
	agg := c.SwitchStats()
	if agg.StaleCompletion != sum.StaleCompletion || agg.LazyCleanups != sum.LazyCleanups ||
		agg.ForwardedReads != sum.ForwardedReads || agg.SweptStale != sum.SweptStale {
		t.Fatalf("aggregate %+v does not sum the groups %+v", agg, sum)
	}
	if agg.FrozenDrops != 0 {
		t.Fatalf("FrozenDrops = %d with no migration", agg.FrozenDrops)
	}
}

func TestReportDroppedDistinctFromRetries(t *testing.T) {
	c, err := New(Config{
		Protocol: ChainReplication, Replicas: 3, UseHarmonia: true,
		Stages: 1, SlotsPerStage: 1, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Run(LoadSpec{
		Clients: 8, Duration: 10 * time.Millisecond, Warmup: time.Millisecond,
		WriteRatio: 1, Keys: 64,
	})
	st := c.SwitchStats()
	if st.WritesDropped == 0 {
		t.Fatal("one-slot dirty set dropped nothing")
	}
	if rep.Dropped == 0 {
		t.Fatal("Report.Dropped empty despite switch drops")
	}
	if rep.Writes == 0 {
		t.Fatal("no writes completed under drops")
	}
}
