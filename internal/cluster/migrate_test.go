package cluster

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"harmonia/internal/simnet"
	"harmonia/internal/wire"
	"harmonia/internal/workload"
)

// keysInSlotOwnedBy collects key indices from [0, keys) whose slot the
// front-end currently routes to group g, grouped by slot.
func keysInSlotOwnedBy(c *Cluster, keys, g int) map[int][]int {
	out := make(map[int][]int)
	for i := 0; i < keys; i++ {
		id := wire.HashKey(workload.KeyName(i))
		if c.routeObj(id) == g {
			out[wire.SlotOf(id)] = append(out[wire.SlotOf(id)], i)
		}
	}
	return out
}

func TestMigrateSlotMovesKeysAndData(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 3, Seed: 21,
	})
	cl := c.NewSyncClient()

	// Write through a handful of keys in one slot of group 0.
	slots := keysInSlotOwnedBy(c, 64, 0)
	var slot int
	var idxs []int
	for _, s := range slices.Sorted(maps.Keys(slots)) {
		if len(slots[s]) >= 2 {
			slot, idxs = s, slots[s]
			break
		}
	}
	if len(idxs) < 2 {
		t.Fatal("no slot with two keys found")
	}
	for _, i := range idxs {
		if err := cl.Set(workload.KeyName(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}

	if err := c.MigrateSlot(slot, 2); err != nil {
		t.Fatalf("MigrateSlot: %v", err)
	}
	if got := c.SlotTable()[slot]; got != 2 {
		t.Fatalf("slot %d routed to %d after migration, want 2", slot, got)
	}
	if c.FrontendOf(0).Frozen(slot) {
		t.Fatal("slot still frozen after migration")
	}

	// Every key now reads its value from the new group, observably.
	for _, i := range idxs {
		v, ok, err := cl.Get(workload.KeyName(i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) after migration = %q %v %v", workload.KeyName(i), v, ok, err)
		}
		if g := cl.LastGroup(); g != 2 {
			t.Fatalf("key %s served by group %d, want 2", workload.KeyName(i), g)
		}
	}

	// The source replicas no longer hold the slot's objects.
	for _, r := range c.groups[0].replicas {
		if n := len(r.ExtractSlot(slot)); n != 0 {
			t.Fatalf("source replica still holds %d objects of slot %d", n, slot)
		}
	}

	// Writes to migrated keys keep working (the destination store's
	// write-order guard must not have been wedged by imported seqs).
	for _, i := range idxs {
		if err := cl.Set(workload.KeyName(i), []byte("post")); err != nil {
			t.Fatalf("post-migration Set: %v", err)
		}
		if v, ok, err := cl.Get(workload.KeyName(i)); err != nil || !ok || string(v) != "post" {
			t.Fatalf("post-migration Get = %q %v %v", v, ok, err)
		}
	}
}

func TestMigrateSlotValidation(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 2, Seed: 5})
	if _, err := c.StartBatchMigration([]int{-1}, 0); err == nil {
		t.Fatal("negative slot accepted")
	}
	if _, err := c.StartBatchMigration([]int{wire.NumSlots}, 0); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if _, err := c.StartBatchMigration([]int{0}, 2); err == nil {
		t.Fatal("out-of-range group accepted")
	}
	// Self-migration completes instantly and leaves nothing frozen.
	from := c.SlotTable()[7]
	m, err := c.StartBatchMigration([]int{7}, from)
	if err != nil || !m.Done() {
		t.Fatalf("self-migration: %v, done=%v", err, m.Done())
	}
	if c.FrontendOf(0).Frozen(7) {
		t.Fatal("self-migration froze the slot")
	}
	// Double migration of one slot is rejected while in flight.
	if _, err := c.StartBatchMigration([]int{3}, 1-c.SlotTable()[3]); err != nil {
		t.Fatalf("first migration: %v", err)
	}
	if _, err := c.StartBatchMigration([]int{3}, 0); err == nil {
		t.Fatal("concurrent migration of one slot accepted")
	}
}

// slotsOwnedBy lists (in slot order, for determinism) the routing
// slots currently owned by group g that contain at least one of the
// first `keys` workload keys.
func slotsOwnedBy(c *Cluster, keys, g int) []int {
	bySlot := keysInSlotOwnedBy(c, keys, g)
	var out []int
	for s := 0; s < wire.NumSlots; s++ {
		if len(bySlot[s]) > 0 {
			out = append(out, s)
		}
	}
	return out
}

func takeSlots(t *testing.T, slots []int, n int) []int {
	t.Helper()
	if len(slots) < n {
		t.Fatalf("only %d migratable slots, need %d", len(slots), n)
	}
	return slots[:n]
}

// TestMigrateSlotAllProtocols exercises the handoff under every
// replication protocol, including CRAQ, whose in-flight dirty versions
// sit beside the store the handoff copies.
func TestMigrateSlotAllProtocols(t *testing.T) {
	for _, p := range []Protocol{PB, Chain, CRAQ, VR, NOPaxos} {
		t.Run(p.String(), func(t *testing.T) {
			c := New(Config{
				Protocol: p, Replicas: 3, UseHarmonia: p != CRAQ, Groups: 2, Seed: 9,
			})
			cl := c.NewSyncClient()
			slots := keysInSlotOwnedBy(c, 32, 0)
			slot := slices.Min(slices.Collect(maps.Keys(slots)))
			idxs := slots[slot]
			for _, i := range idxs {
				if err := cl.Set(workload.KeyName(i), []byte("x")); err != nil {
					t.Fatalf("Set: %v", err)
				}
			}
			if err := c.MigrateSlot(slot, 1); err != nil {
				t.Fatalf("MigrateSlot: %v", err)
			}
			for _, i := range idxs {
				v, ok, err := cl.Get(workload.KeyName(i))
				if err != nil || !ok || string(v) != "x" {
					t.Fatalf("Get after migration = %q %v %v", v, ok, err)
				}
				if g := cl.LastGroup(); g != 1 {
					t.Fatalf("served by group %d, want 1", g)
				}
				if err := cl.Set(workload.KeyName(i), []byte("y")); err != nil {
					t.Fatalf("post-migration Set: %v", err)
				}
			}
		})
	}
}

// TestMigrateSlotAbortsWhenSourceCannotDrain wedges the source group
// (a sequenced write to the slot whose destination is down never
// completes, so the dirty entry never clears and the commit point
// never passes it), and requires the blocking MigrateSlot to give up
// and thaw the slot on its original owner — under every replication
// protocol, since the abort path is the safety net the chaos matrix
// leans on. For chain (where recovery of a fully-downed group is
// modeled cleanly) the test additionally recovers the group and
// retries the migration to completion.
func TestMigrateSlotAbortsWhenSourceCannotDrain(t *testing.T) {
	for _, p := range []Protocol{PB, Chain, CRAQ, VR, NOPaxos} {
		t.Run(p.String(), func(t *testing.T) {
			c := New(Config{
				Protocol: p, Replicas: 3, UseHarmonia: p != CRAQ, Groups: 2,
				Stages: 1, SlotsPerStage: 64, Seed: 25 + int64(p),
			})
			cl := c.NewSyncClient()
			key, ok := c.keyInGroup(0, "wedge_", false)
			if !ok {
				t.Fatal("no key in group 0")
			}
			if err := cl.Set(key, []byte("v")); err != nil {
				t.Fatal(err)
			}
			slot := c.SlotOfKey(key)

			// Take the whole source group down, then sequence a write
			// for the slot: the dirty entry sticks and nothing can ever
			// advance the commit point past it.
			for i := 0; i < 3; i++ {
				c.net.SetDown(c.GroupReplicaAddr(0, i), true)
			}
			c.rack.Front(0).Recv(clientBase, &wire.Packet{
				Op: wire.OpWrite, ObjID: wire.HashKey(key),
				ClientID: 0, ReqID: 999, Value: []byte{2},
			})
			if c.GroupScheduler(0).DirtyInSlots([]int{slot}) == 0 {
				t.Fatal("wedge write not tracked")
			}

			if err := c.MigrateSlot(slot, 1); err == nil {
				t.Fatal("migration completed despite an undrainable source")
			}
			if c.rack.Frozen(slot) {
				t.Fatal("aborted migration left the slot frozen")
			}
			if got := c.SlotTable()[slot]; got != 0 {
				t.Fatalf("aborted migration flipped the route to %d", got)
			}
			if p != Chain {
				return
			}

			// Recover the group; the slot serves again and a retried
			// migration succeeds.
			for i := 0; i < 3; i++ {
				c.net.SetDown(c.GroupReplicaAddr(0, i), false)
			}
			c.RunFor(5 * time.Millisecond)
			if v, k2, err := cl.Get(key); err != nil || !k2 || len(v) == 0 {
				t.Fatalf("slot unavailable after aborted migration: %q %v %v", v, k2, err)
			}
			if err := c.MigrateSlot(slot, 1); err != nil {
				t.Fatalf("retried migration after recovery: %v", err)
			}
			if v, k2, err := cl.Get(key); err != nil || !k2 {
				t.Fatalf("Get after retried migration: %q %v %v", v, k2, err)
			}
		})
	}
}

// TestMigrateNonBlockingAbortsAtDeadline wedges the source group and
// starts a NON-blocking handoff — the rebalancer's path, where no
// caller drives the simulation or aborts on its behalf. The drain
// deadline must thaw the slot on its own; without it, the hottest
// slots of the cluster would stay frozen forever.
func TestMigrateNonBlockingAbortsAtDeadline(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 2,
		Stages: 1, SlotsPerStage: 64, Seed: 83,
	})
	cl := c.NewSyncClient()
	key, ok := c.keyInGroup(0, "wedge_", false)
	if !ok {
		t.Fatal("no key in group 0")
	}
	if err := cl.Set(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	slot := c.SlotOfKey(key)
	for i := 0; i < 3; i++ {
		c.net.SetDown(c.GroupReplicaAddr(0, i), true)
	}
	c.rack.Front(0).Recv(clientBase, &wire.Packet{
		Op: wire.OpWrite, ObjID: wire.HashKey(key),
		ClientID: 0, ReqID: 999, Value: []byte{2},
	})
	m, err := c.StartBatchMigration([]int{slot}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(600 * time.Millisecond) // past the drain deadline
	if !m.Aborted() || m.Done() {
		t.Fatalf("undrainable non-blocking handoff: aborted=%v done=%v", m.Aborted(), m.Done())
	}
	if c.rack.Frozen(slot) {
		t.Fatal("deadline abort left the slot frozen")
	}
	if got := c.SlotTable()[slot]; got != 0 {
		t.Fatalf("deadline abort flipped the route to %d", got)
	}
	if len(c.migrations) != 0 {
		t.Fatalf("%d handoffs still registered after the abort", len(c.migrations))
	}
	// Recover and migrate for real.
	for i := 0; i < 3; i++ {
		c.net.SetDown(c.GroupReplicaAddr(0, i), false)
	}
	c.RunFor(5 * time.Millisecond)
	if err := c.MigrateSlot(slot, 1); err != nil {
		t.Fatalf("retried migration after recovery: %v", err)
	}
	if v, k2, err := cl.Get(key); err != nil || !k2 {
		t.Fatalf("Get after retried migration: %q %v %v", v, k2, err)
	}
}

// TestMigrateToCurrentGroupIsNoop pins the regression: migrating slots
// to their current owner — in the single-slot, batch, and blocking
// forms — must succeed instantly without freezing the slot, copying
// any objects, or registering a handoff, rather than freezing and
// copying a slot onto itself.
func TestMigrateToCurrentGroupIsNoop(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 3, Seed: 51})
	cl := c.NewSyncClient()
	key, ok := c.keyInGroup(1, "noop_", false)
	if !ok {
		t.Fatal("no key in group 1")
	}
	if err := cl.Set(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	slot := c.SlotOfKey(key)
	drops := c.rack.Front(0).Stats.FrozenDrops

	m, err := c.StartBatchMigration([]int{slot}, 1)
	if err != nil || !m.Done() || m.Aborted() {
		t.Fatalf("self-migration: err=%v done=%v aborted=%v", err, m.Done(), m.Aborted())
	}
	if m.Objects() != 0 {
		t.Fatalf("self-migration copied %d objects", m.Objects())
	}
	if c.rack.Frozen(slot) {
		t.Fatal("self-migration froze the slot")
	}
	if len(c.migrations) != 0 {
		t.Fatalf("self-migration left %d handoffs registered", len(c.migrations))
	}

	// Batch form: a mix of no-op and real slots only moves the real
	// ones; an all-no-op batch moves nothing.
	m, err = c.StartBatchMigration([]int{slot}, 1)
	if err != nil || !m.Done() || len(m.Slots) != 0 {
		t.Fatalf("all-noop batch: err=%v done=%v slots=%v", err, m.Done(), m.Slots)
	}
	other := -1
	for s := 0; s < wire.NumSlots; s++ {
		if c.SlotTable()[s] == 0 {
			other = s
			break
		}
	}
	if err := c.MigrateSlots([]int{slot, other}, 1); err != nil {
		t.Fatalf("mixed batch: %v", err)
	}
	if got := c.SlotTable()[other]; got != 1 {
		t.Fatalf("real slot of the mixed batch routed to %d, want 1", got)
	}
	if got := c.SlotTable()[slot]; got != 1 {
		t.Fatalf("no-op slot rerouted to %d", got)
	}

	// Blocking form, and the data is untouched throughout.
	if err := c.MigrateSlot(slot, 1); err != nil {
		t.Fatalf("blocking self-migration: %v", err)
	}
	if c.rack.Front(0).Stats.FrozenDrops != drops {
		t.Fatal("a no-op migration dropped client traffic")
	}
	if v, k2, err := cl.Get(key); err != nil || !k2 || string(v) != "v" {
		t.Fatalf("Get after no-op migrations = %q %v %v", v, k2, err)
	}
	if g := cl.LastGroup(); g != 1 {
		t.Fatalf("key served by group %d, want 1", g)
	}
}

// TestMigrateSwapSlotsExchangesOwners swaps a slot set between two groups and
// verifies both directions moved, occupancy is conserved, and the data
// survived on both sides.
func TestMigrateSwapSlotsExchangesOwners(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 3, Seed: 57})
	cl := c.NewSyncClient()
	const keys = 96
	a := takeSlots(t, slotsOwnedBy(c, keys, 0), 2)
	b := takeSlots(t, slotsOwnedBy(c, keys, 2), 2)
	write := func(slots []int, g int) map[int]string {
		vals := map[int]string{}
		for _, i := range keysInGroupSlots(c, keys, g, slots) {
			v := fmt.Sprintf("v%d", i)
			if err := cl.Set(workload.KeyName(i), []byte(v)); err != nil {
				t.Fatalf("Set: %v", err)
			}
			vals[i] = v
		}
		return vals
	}
	va := write(a, 0)
	vb := write(b, 2)

	occBefore := occupancy(c)
	if err := c.SwapSlots(a, b); err != nil {
		t.Fatalf("SwapSlots: %v", err)
	}
	for _, s := range a {
		if got := c.SlotTable()[s]; got != 2 {
			t.Fatalf("slot %d routed to %d after swap, want 2", s, got)
		}
	}
	for _, s := range b {
		if got := c.SlotTable()[s]; got != 0 {
			t.Fatalf("slot %d routed to %d after swap, want 0", s, got)
		}
	}
	if occAfter := occupancy(c); occAfter != occBefore {
		t.Fatalf("swap changed slot occupancy: %v != %v", occAfter, occBefore)
	}
	check := func(vals map[int]string, wantGroup int) {
		for i, v := range vals {
			got, ok, err := cl.Get(workload.KeyName(i))
			if err != nil || !ok || string(got) != v {
				t.Fatalf("Get(%s) after swap = %q %v %v", workload.KeyName(i), got, ok, err)
			}
			if g := cl.LastGroup(); g != wantGroup {
				t.Fatalf("key %s served by group %d, want %d", workload.KeyName(i), g, wantGroup)
			}
		}
	}
	check(va, 2)
	check(vb, 0)

	// Validation: sets spanning owners, empty sets, shared owner.
	if err := c.SwapSlots(nil, b); err == nil {
		t.Fatal("empty swap set accepted")
	}
	if err := c.SwapSlots(a, a); err == nil {
		t.Fatal("same-owner swap accepted")
	}
	mixed := []int{a[0], b[0]}
	if err := c.SwapSlots(mixed, []int{a[1]}); err == nil {
		t.Fatal("owner-spanning swap set accepted")
	}
}

// keysInGroupSlots lists key indices of [0, keys) living in the given
// slots of group g, in index order.
func keysInGroupSlots(c *Cluster, keys, g int, slots []int) []int {
	in := map[int]bool{}
	for _, s := range slots {
		in[s] = true
	}
	var out []int
	for i := 0; i < keys; i++ {
		id := wire.HashKey(workload.KeyName(i))
		if c.routeObj(id) == g && in[wire.SlotOf(id)] {
			out = append(out, i)
		}
	}
	return out
}

// occupancy summarizes the slot table as a per-group slot count.
func occupancy(c *Cluster) [8]int {
	var counts [8]int
	for _, g := range c.SlotTable() {
		counts[g]++
	}
	return counts
}

// TestKeyInGroupBoundedWhenGroupEmptied drains group 1 of every slot
// and checks the deterministic key search reports failure instead of
// spinning forever (the flush-write path skips its nudge then).
func TestKeyInGroupBoundedWhenGroupEmptied(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 2, Seed: 3})
	for s := 0; s < wire.NumSlots; s++ {
		if c.SlotTable()[s] != 1 {
			continue
		}
		if err := c.MigrateSlot(s, 0); err != nil {
			t.Fatalf("migrate slot %d: %v", s, err)
		}
	}
	if _, ok := c.keyInGroup(1, "none_", false); ok {
		t.Fatal("keyInGroup found a key in a group that owns no slots")
	}
	if _, ok := c.keyInGroup(0, "all_", false); !ok {
		t.Fatal("keyInGroup failed on the group owning every slot")
	}
}

// TestFrozenSlotDropsAndRecovers verifies the freeze window behaves
// like a booting switch for the slot: requests are dropped (counted by
// the front-end) and the clients' own retries succeed once the slot
// thaws on the new group.
func TestFrozenSlotDropsAndRecovers(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 2, Seed: 13})
	cl := c.NewSyncClient()
	key, ok := c.keyInGroup(0, "frozen_", false)
	if !ok {
		t.Fatal("no key in group 0")
	}
	if err := cl.Set(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	slot := c.SlotOfKey(key)
	c.rack.FreezeSlot(slot)
	before := c.rack.Front(0).Stats.FrozenDrops
	// The synchronous client retries on its timeout; thaw the slot
	// shortly after so one of the retries lands.
	c.eng.After(5*time.Millisecond, func() { c.rack.UnfreezeSlot(slot) })
	v, ok, err := cl.Get(key)
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get across freeze window = %q %v %v", v, ok, err)
	}
	if c.rack.Front(0).Stats.FrozenDrops == before {
		t.Fatal("freeze window dropped nothing")
	}
}

// TestSweepReclaimsStraysWithoutReads drops a fraction of the
// replica→switch completion traffic under a write-only load, then
// lets the periodic sweep reclaim the stray dirty entries — no read
// ever probes them, so the read-path lazy cleanup cannot help. A sweep
// removes only entries at or below the last completion the switch saw
// (§5.2), and the load's last completions may all be lost; so once the
// links heal, one more write's completion passes every stray, and the
// sweeps after it must empty the set. The no-reclamation ablation turns
// the sweep off with the cleanup.
func TestSweepReclaimsStraysWithoutReads(t *testing.T) {
	dropCompletions := func(msg simnet.Message) bool {
		pkt, ok := msg.(*wire.Packet)
		return ok && (pkt.Op == wire.OpWriteReply || pkt.Op == wire.OpWriteCompletion)
	}
	run := func(ablate bool) *Cluster {
		c := New(Config{
			Protocol: Chain, Replicas: 3, UseHarmonia: true,
			Stages: 1, SlotsPerStage: 512, Seed: 29, DisableLazyCleanup: ablate,
		})
		for r := 0; r < 3; r++ {
			c.Network().SetLink(c.GroupReplicaAddr(0, r), c.SwitchAddrOf(0), simnet.LinkConfig{
				Latency: 5 * time.Microsecond, DropProb: 0.3, DropFilter: dropCompletions,
			})
		}
		rep := c.RunLoad(LoadSpec{
			Mode: Closed, Clients: 32, Duration: 20 * time.Millisecond,
			Warmup: 2 * time.Millisecond, WriteRatio: 1, Keys: 400,
		})
		if rep.Writes == 0 {
			t.Fatal("no writes completed")
		}
		// Settle: in-flight writes finish (or are lost for good) while
		// two sweeps run with the cluster idle.
		c.RunFor(20 * time.Millisecond)
		return c
	}
	c := run(false)
	for r := 0; r < 3; r++ {
		c.Network().SetLink(c.GroupReplicaAddr(0, r), c.SwitchAddrOf(0), simnet.LinkConfig{Latency: 5 * time.Microsecond})
	}
	if err := c.NewSyncClient().Set("fence", nil); err != nil {
		t.Fatalf("write after the load: %v", err)
	}
	c.RunFor(20 * time.Millisecond)
	st := c.GroupScheduler(0).Stats
	if st.SweptStale == 0 {
		t.Fatal("periodic sweep reclaimed nothing despite dropped completions")
	}
	if st.LazyCleanups != 0 {
		t.Fatalf("write-only load still saw %d read-path cleanups", st.LazyCleanups)
	}
	if n := c.GroupScheduler(0).DirtyCount(); n != 0 {
		t.Fatalf("%d stray entries survived the sweep", n)
	}
	c = run(true)
	if n, swept := c.GroupScheduler(0).DirtyCount(), c.GroupScheduler(0).Stats.SweptStale; n == 0 || swept != 0 {
		t.Fatalf("DisableLazyCleanup: %d strays left, %d swept; want strays and no sweep", n, swept)
	}
}

// TestDroppedWriteRepliesDriveImmediateRetry pins the FlagDropped
// regression at cluster level: with a one-slot dirty set, concurrent
// writes collide, the switch answers the losers with synthesized
// FlagDropped replies, and the clients reissue at once — the run
// makes progress and reports the drops distinctly from timeout
// retries.
func TestDroppedWriteRepliesDriveImmediateRetry(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true,
		Stages: 1, SlotsPerStage: 1, Seed: 41,
	})
	rep := c.RunLoad(LoadSpec{
		Mode: Closed, Clients: 8, Duration: 10 * time.Millisecond,
		Warmup: time.Millisecond, WriteRatio: 1, Keys: 64,
	})
	if c.GroupScheduler(0).Stats.WritesDropped == 0 {
		t.Fatal("one-slot dirty set never rejected a write (test lost its trigger)")
	}
	if rep.Dropped == 0 {
		t.Fatal("write drops were not surfaced in Report.Dropped")
	}
	if rep.Writes == 0 {
		t.Fatalf("no write ever completed: %+v", rep)
	}
	// With the synthesized replies the clients never need the timeout
	// for dropped writes; any residual retries come from the timeout
	// path and must be rarer than the drops they replaced.
	if rep.Retries > rep.Dropped {
		t.Fatalf("timeout retries (%d) exceed drop-driven reissues (%d)", rep.Retries, rep.Dropped)
	}
	// A synchronous client still completes operations afterwards.
	cl := c.NewSyncClient()
	if err := cl.Set("after", []byte("v")); err != nil {
		t.Fatalf("Set after drop storm: %v", err)
	}
	if v, ok, err := cl.Get("after"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}

	// A synchronous write takes the same path: issued while eight
	// closed-loop writers keep the one slot busy, it is answered
	// FlagDropped, reissued at once, and completes. No link jitter
	// spreads the nine writers' round trips here: only the reissue's
	// random delay keeps the sync write from always being the last to
	// reach a freed slot.
	c = New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true,
		Stages: 1, SlotsPerStage: 1, Seed: 41, RecordHistory: true,
	})
	gen := &opGen{c: c, ids: keyTab(64), keys: newUniformGen(64, c.eng.Rand()), ratio: 1}
	writers := c.newVClients(8, &measurement{c: c}, gen, true)
	for _, v := range writers {
		v.issueNext()
	}
	c.RunFor(time.Millisecond)
	cl = c.NewSyncClient()
	cl.v.measuring.collect = true // count the sync client's own drops
	dropped, want := c.GroupScheduler(0).Stats.WritesDropped, c.valueCtr+1
	if err := cl.Set("saturated", nil); err != nil {
		t.Fatalf("Set into a saturated table: %v after %d drops", err, cl.v.measuring.droppedCnt)
	}
	if c.GroupScheduler(0).Stats.WritesDropped == dropped || cl.v.measuring.droppedCnt == 0 {
		t.Fatalf("the sync write was never dropped (%d table drops, %d of its own): the test lost its trigger",
			c.GroupScheduler(0).Stats.WritesDropped-dropped, cl.v.measuring.droppedCnt)
	}
	for _, v := range writers {
		v.closedLoop = false
	}
	c.RunFor(20 * time.Millisecond)
	if v, ok, err := cl.Get("saturated"); err != nil || !ok || decodeValue(v) != want {
		t.Fatalf("Get = value %d %v %v, want value %d", decodeValue(v), ok, err, want)
	}
	if res := c.CheckLinearizability(); !res.Decided || !res.Ok {
		t.Fatalf("history with a dropped sync write: %+v", res)
	}
}
