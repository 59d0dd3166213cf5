package cluster

import (
	"fmt"
	"testing"
	"time"

	"harmonia/internal/rebalance"
	"harmonia/internal/wire"
)

// TestHotKeyManualPromoteLifecycle walks the full hot-key arc by hand:
// promote a key, watch clean reads spread across the holder groups,
// watch a write invalidate the copies and the refresh revalidate them,
// then demote and verify no read is spread any more, the holders keep
// their copies for reads already on their way — through a slot-mate's
// key refreshes too — and the next whole-slot install into a holder
// clears what is left.
func TestHotKeyManualPromoteLifecycle(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 3,
		HotKeys: true, Seed: 31,
	})
	cl := c.NewSyncClient()
	const key = "celebrity"
	if err := cl.Set(key, []byte("v1")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if err := c.PromoteKey(key); err != nil {
		t.Fatalf("PromoteKey: %v", err)
	}
	if c.HotKeyCount() != 1 {
		t.Fatalf("HotKeyCount = %d", c.HotKeyCount())
	}
	id := wire.HashKey(key)
	st := c.hotKeys[id]
	if len(st.holders) != 2 {
		t.Fatalf("auto-picked holders = %v", st.holders)
	}
	// Let the seeding refresh land; the switch entry must turn valid.
	c.RunFor(time.Millisecond)
	hk, ok := c.KeyPromoted(key)
	if !ok || hk.InvalidCount() != 0 {
		t.Fatalf("after seed: promoted=%v invalid=%d", ok, hk.InvalidCount())
	}

	// Clean reads round-robin across home + holders: 6 reads over 3
	// groups must touch more than one group and record spreads.
	served := map[int]int{}
	for i := 0; i < 6; i++ {
		v, found, err := cl.Get(key)
		if err != nil || !found || string(v) != "v1" {
			t.Fatalf("Get #%d = %q %v %v", i, v, found, err)
		}
		served[cl.LastGroup()]++
	}
	if len(served) < 2 {
		t.Fatalf("reads never spread: served=%v", served)
	}
	if c.rack.Front(st.sw).Stats.SpreadReads == 0 {
		t.Fatal("no spread reads recorded")
	}

	// A write invalidates the holder copies in its switch traversal,
	// and the completion-cued refresh revalidates them with v2.
	if err := cl.Set(key, []byte("v2")); err != nil {
		t.Fatalf("Set v2: %v", err)
	}
	if c.rack.Front(st.sw).Stats.Invalidations == 0 {
		t.Fatal("write did not invalidate the holders")
	}
	c.RunFor(time.Millisecond)
	hk, _ = c.KeyPromoted(key)
	if hk.InvalidCount() != 0 || hk.WriteGen == 0 {
		t.Fatalf("after write: invalid=%d gen=%d", hk.InvalidCount(), hk.WriteGen)
	}
	for i := 0; i < 6; i++ {
		v, found, err := cl.Get(key)
		if err != nil || !found || string(v) != "v2" {
			t.Fatalf("Get v2 #%d = %q %v %v", i, v, found, err)
		}
	}

	// Demotion collapses the key back home: no read is spread from
	// then on. The holders keep their copies — a spread read routed
	// before the demotion may still be on its way to one.
	holders := append([]int(nil), st.holders...)
	if !c.DemoteKey(key) {
		t.Fatal("DemoteKey reported not promoted")
	}
	if c.HotKeyCount() != 0 {
		t.Fatalf("HotKeyCount after demote = %d", c.HotKeyCount())
	}
	spread := c.rack.Front(st.sw).Stats.SpreadReads
	for i := 0; i < 6; i++ {
		v, found, err := cl.Get(key)
		if err != nil || !found || string(v) != "v2" {
			t.Fatalf("Get after demote #%d = %q %v %v", i, v, found, err)
		}
		if g := cl.LastGroup(); g != c.GroupOf(key) {
			t.Fatalf("read after demote served by group %d, home is %d", g, c.GroupOf(key))
		}
	}
	if c.rack.Front(st.sw).Stats.SpreadReads != spread {
		t.Fatal("a read was spread after the demotion")
	}
	for _, g := range holders {
		for i, rep := range c.groups[g].replicas {
			if o, found := rep.GetObject(id); !found || string(o.Value) != "v2" {
				t.Fatalf("holder %d replica %d dropped its copy at demotion: %q %v", g, i, o.Value, found)
			}
		}
	}
	if p, d := c.HotKeyStats(); p != 1 || d != 1 {
		t.Fatalf("stats = %d promotions, %d demotions", p, d)
	}

	// A slot-mate promoted onto the same holders is refreshed on every
	// write to it, and a key refresh overwrites only its own key: the
	// demoted copy stays beside it.
	mate := ""
	for i := 0; mate == ""; i++ {
		if k := fmt.Sprintf("mate%06d", i); wire.SlotOf(wire.HashKey(k)) == st.slot {
			mate = k
		}
	}
	if err := cl.Set(mate, []byte("m1")); err != nil {
		t.Fatalf("Set mate: %v", err)
	}
	if err := c.PromoteKey(mate, holders...); err != nil {
		t.Fatalf("PromoteKey mate: %v", err)
	}
	if err := cl.Set(mate, []byte("m2")); err != nil {
		t.Fatalf("Set mate m2: %v", err)
	}
	c.RunFor(time.Millisecond)
	mateID := wire.HashKey(mate)
	for _, g := range holders {
		for i, rep := range c.groups[g].replicas {
			if o, found := rep.GetObject(mateID); !found || string(o.Value) != "m2" {
				t.Fatalf("holder %d replica %d: mate copy %q %v after its refresh", g, i, o.Value, found)
			}
			if _, found := rep.GetObject(id); !found {
				t.Fatalf("holder %d replica %d: a key refresh cleared the demoted copy", g, i)
			}
		}
	}
	if !c.DemoteKey(mate) {
		t.Fatal("DemoteKey mate reported not promoted")
	}

	// The next whole-slot install into a holder clears the leftover
	// copies: delete the key at home, then move its slot to the holder
	// — the deleted key must not come back from the old copy.
	if err := cl.Delete(key); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := c.MigrateSlot(st.slot, holders[0]); err != nil {
		t.Fatalf("MigrateSlot: %v", err)
	}
	for i, rep := range c.groups[holders[0]].replicas {
		if _, found := rep.GetObject(id); found {
			t.Fatalf("holder %d replica %d kept the demoted copy through the install", holders[0], i)
		}
		if o, found := rep.GetObject(mateID); !found || string(o.Value) != "m2" {
			t.Fatalf("holder %d replica %d: migrated mate %q %v", holders[0], i, o.Value, found)
		}
	}
	if _, found, err := cl.Get(key); err != nil || found {
		t.Fatalf("Get after delete and migration: found=%v err=%v", found, err)
	}
}

// TestHotKeyAutoPromoteAndDemote drives the full control loop: a
// single dominant key makes its slot an indivisible hot spot, the
// rebalancer's fired-but-empty tick nominates it, the cluster promotes
// it, and once the skew stops the decayed per-key heat cools the entry
// back into a clean demotion.
func TestHotKeyAutoPromoteAndDemote(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 3,
		AutoRebalance: true, HotKeys: true, Seed: 21,
		// A single synchronous client generates modest per-tick heat;
		// scale the op floors down to match (the production defaults
		// assume a fleet of load generators).
		Rebalance: rebalance.Config{MinOps: 32},
		HotKey:    rebalance.HotKeyConfig{MinOps: 16},
	})
	cl := c.NewSyncClient()
	const key = "celebrity"
	if err := cl.Set(key, []byte("hot")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	for i := 0; i < 4000 && c.HotKeyCount() == 0; i++ {
		if i%5 == 4 {
			if err := cl.Set(key, []byte("hot")); err != nil {
				t.Fatalf("Set #%d: %v", i, err)
			}
		} else {
			if _, _, err := cl.Get(key); err != nil {
				t.Fatalf("Get #%d: %v", i, err)
			}
		}
	}
	if c.HotKeyCount() != 1 {
		t.Fatal("sustained single-key skew never promoted the key")
	}
	st := c.hotKeys[wire.HashKey(key)]
	if len(st.holders) == 0 || len(st.holders) > 3 {
		t.Fatalf("holders = %v", st.holders)
	}

	// Promotion must actually relieve the home group: keep reading and
	// watch spread reads accumulate at the switch.
	before := c.rack.Front(st.sw).Stats.SpreadReads
	for i := 0; i < 200; i++ {
		if _, _, err := cl.Get(key); err != nil {
			t.Fatalf("post-promotion Get: %v", err)
		}
	}
	if c.rack.Front(st.sw).Stats.SpreadReads == before {
		t.Fatal("promotion did not spread any reads")
	}

	// Skew stops: per-key heat decays with the rebalancer's tick, the
	// cool-down counts it out, and the key demotes on its own.
	c.RunFor(60 * time.Millisecond)
	if c.HotKeyCount() != 0 {
		t.Fatalf("key still promoted %d after the skew stopped", c.HotKeyCount())
	}
	if _, d := c.HotKeyStats(); d == 0 {
		t.Fatal("no demotion recorded")
	}
	v, found, err := cl.Get(key)
	if err != nil || !found || string(v) != "hot" {
		t.Fatalf("Get after auto-demote = %q %v %v", v, found, err)
	}
}

// TestPromoteKeyValidation pins the manual API's refusals: promotion
// without the feature, a holder that is the key's own home, and a
// second key in an already-promoted slot.
func TestPromoteKeyValidation(t *testing.T) {
	plain := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 3, Seed: 5})
	if err := plain.PromoteKey("x"); err == nil {
		t.Fatal("PromoteKey accepted without Config.HotKeys")
	}

	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 3,
		HotKeys: true, Seed: 5,
	})
	const key = "celebrity"
	home := c.rack.RouteOf(wire.SlotOf(wire.HashKey(key)))
	if err := c.PromoteKey(key, home); err == nil {
		t.Fatal("PromoteKey accepted the home group as a holder")
	}
	if err := c.PromoteKey(key, 99); err == nil {
		t.Fatal("PromoteKey accepted an out-of-range holder")
	}
	if err := c.PromoteKey(key); err != nil {
		t.Fatalf("PromoteKey: %v", err)
	}
	// A slot-mate of the promoted key must be refused: one promoted
	// key per slot.
	slot := wire.SlotOf(wire.HashKey(key))
	mate := ""
	for i := 0; i < 1<<16; i++ {
		k := fmt.Sprintf("mate%06d", i)
		if k != key && wire.SlotOf(wire.HashKey(k)) == slot {
			mate = k
			break
		}
	}
	if mate == "" {
		t.Fatal("no slot-mate found")
	}
	if err := c.PromoteKey(mate); err == nil {
		t.Fatal("PromoteKey accepted a second key in a promoted slot")
	}
	if c.DemoteKey("never-promoted") {
		t.Fatal("DemoteKey invented an entry")
	}
}
