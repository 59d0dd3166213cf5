package cluster

import (
	"fmt"
	"testing"
	"time"

	"harmonia/internal/trace"
	"harmonia/internal/wire"
	"harmonia/internal/workload"
)

// TestRackMultiSwitchBasicOps boots a 2-switch rack and drives
// operations against keys on both switch domains: every reply must
// come back stamped with the switch the rack's slot → switch map names,
// and both domains must serve reads and writes.
func TestRackMultiSwitchBasicOps(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true,
		Groups: 4, Switches: 2, Seed: 11,
	})
	if c.Switches() != 2 {
		t.Fatalf("Switches() = %d, want 2", c.Switches())
	}
	cl := c.NewSyncClient()
	served := make(map[int]int)
	for i := 0; i < 48; i++ {
		key := workload.KeyName(i)
		if err := cl.Set(key, []byte{byte(i)}); err != nil {
			t.Fatalf("Set %s: %v", key, err)
		}
		v, ok, err := cl.Get(key)
		if err != nil || !ok || v[0] != byte(i) {
			t.Fatalf("Get %s = %v %v %v", key, v, ok, err)
		}
		want := c.SwitchOf(wire.SlotOf(wire.HashKey(key)))
		if got := cl.LastSwitch(); got != want {
			t.Fatalf("key %s served via switch %d, rack map says %d", key, got, want)
		}
		served[want]++
	}
	if served[0] == 0 || served[1] == 0 {
		t.Fatalf("load did not touch both switch domains: %v", served)
	}
}

// TestRackCrossSwitchMigrationAllProtocols moves a slot from a group on
// switch 0 to a group on switch 1 under every protocol: the data must
// survive, the slot → switch map must flip with the route, and the
// destination front-end must own (and serve) the slot afterwards.
func TestRackCrossSwitchMigrationAllProtocols(t *testing.T) {
	for _, p := range []Protocol{PB, Chain, CRAQ, VR, NOPaxos} {
		t.Run(p.String(), func(t *testing.T) {
			c := New(Config{
				Protocol: p, Replicas: 3, UseHarmonia: p != CRAQ,
				Groups: 4, Switches: 2, Seed: 13,
			})
			dst := c.Rack().GroupsOf(1)[0]
			cl := c.NewSyncClient()
			bySlot := keysInSlotOwnedBy(c, 64, 0)
			var slot int
			var idxs []int
			for s, ii := range bySlot {
				if c.SwitchOf(s) == 0 && len(ii) > 0 {
					slot, idxs = s, ii
					break
				}
			}
			if len(idxs) == 0 {
				t.Fatal("no migratable slot with keys on switch 0")
			}
			for _, i := range idxs {
				if err := cl.Set(workload.KeyName(i), []byte("x")); err != nil {
					t.Fatalf("Set: %v", err)
				}
			}
			if err := c.MigrateSlots([]int{slot}, dst); err != nil {
				t.Fatalf("cross-switch MigrateSlots: %v", err)
			}
			if got := c.SwitchOf(slot); got != 1 {
				t.Fatalf("slot %d still mapped to switch %d", slot, got)
			}
			if !c.FrontendOf(1).OwnsSlot(slot) || c.FrontendOf(0).OwnsSlot(slot) {
				t.Fatal("front-end ownership did not move with the slot")
			}
			for _, i := range idxs {
				v, ok, err := cl.Get(workload.KeyName(i))
				if err != nil || !ok || string(v) != "x" {
					t.Fatalf("Get after cross-switch migration = %q %v %v", v, ok, err)
				}
				if got := cl.LastGroup(); got != dst {
					t.Fatalf("served by group %d, want %d", got, dst)
				}
				if got := cl.LastSwitch(); got != 1 {
					t.Fatalf("served via switch %d, want 1", got)
				}
				if err := cl.Set(workload.KeyName(i), []byte("y")); err != nil {
					t.Fatalf("post-migration Set: %v", err)
				}
			}
		})
	}
}

// TestRackCrossSwitchMigrationHeatPickup checks that the destination
// front-end's heat registers take over accounting for a migrated slot:
// before the handoff only switch 0 counts it, afterwards new traffic
// lands in switch 1's registers.
func TestRackCrossSwitchMigrationHeatPickup(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true,
		Groups: 4, Switches: 2, Seed: 17,
	})
	dst := c.Rack().GroupsOf(1)[0]
	cl := c.NewSyncClient()
	bySlot := keysInSlotOwnedBy(c, 64, 0)
	var slot int
	var idxs []int
	for s, ii := range bySlot {
		if c.SwitchOf(s) == 0 && len(ii) > 0 {
			slot, idxs = s, ii
			break
		}
	}
	key := workload.KeyName(idxs[0])
	if err := cl.Set(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if c.FrontendOf(0).HeatOf(slot).Total() == 0 {
		t.Fatal("owning front-end did not count the slot's traffic")
	}
	if err := c.MigrateSlots([]int{slot}, dst); err != nil {
		t.Fatalf("MigrateSlots: %v", err)
	}
	before := c.FrontendOf(1).HeatOf(slot).Total()
	for i := 0; i < 5; i++ {
		if _, _, err := cl.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.FrontendOf(1).HeatOf(slot).Total(); got <= before {
		t.Fatalf("destination heat did not pick up the slot: %d -> %d", before, got)
	}
	// The rack-wide sample must read the destination's registers now.
	if got := c.SlotHeat()[slot].Total(); got != c.FrontendOf(1).HeatOf(slot).Total() {
		t.Fatalf("rack heat sample %d != destination registers %d",
			got, c.FrontendOf(1).HeatOf(slot).Total())
	}
}

// TestRackSwitchCrashIsolation crashes one switch of a 4-switch rack:
// keys on the other switches' shards must keep being served (fast
// path included), keys on the crashed shard must time out, and after
// reactivation only the crashed switch's epoch has advanced.
func TestRackSwitchCrashIsolation(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true,
		Groups: 4, Switches: 4, Seed: 19,
	})
	cl := c.NewSyncClient()
	// One key per switch domain.
	keyOn := make(map[int]string)
	for i := 0; i < 512 && len(keyOn) < 4; i++ {
		k := workload.KeyName(i)
		sw := c.SwitchOf(wire.SlotOf(wire.HashKey(k)))
		if _, ok := keyOn[sw]; !ok {
			keyOn[sw] = k
		}
	}
	if len(keyOn) != 4 {
		t.Fatalf("key search found only %d domains", len(keyOn))
	}
	for _, k := range keyOn {
		if err := cl.Set(k, []byte("v")); err != nil {
			t.Fatalf("Set %s: %v", k, err)
		}
	}

	if err := c.CrashSwitch(2); err != nil {
		t.Fatal(err)
	}
	for sw, k := range keyOn {
		_, ok, err := cl.Get(k)
		if sw == 2 {
			if err != ErrTimeout {
				t.Fatalf("crashed domain served %s: ok=%v err=%v", k, ok, err)
			}
			continue
		}
		if err != nil || !ok {
			t.Fatalf("healthy domain %d stalled on %s: ok=%v err=%v", sw, k, ok, err)
		}
		if got := cl.LastSwitch(); got != sw {
			t.Fatalf("key %s served via switch %d, want %d", k, got, sw)
		}
	}

	c.ReactivateSwitch(2)
	c.RunFor(10 * time.Millisecond)
	for _, k := range keyOn {
		if _, ok, err := cl.Get(k); err != nil || !ok {
			t.Fatalf("post-recovery Get %s: ok=%v err=%v", k, ok, err)
		}
	}
	for s := 0; s < 4; s++ {
		want := uint32(1)
		if s == 2 {
			want = 2
		}
		if got := c.Rack().Epoch(s); got != want {
			t.Fatalf("switch %d epoch %d, want %d (domains must be independent)", s, got, want)
		}
	}
	if c.Rack().Stats(2).Replacements != 1 {
		t.Fatalf("switch 2 replacements = %d, want 1", c.Rack().Stats(2).Replacements)
	}
	if lat := c.Rack().Stats(2).LastAgreementLatency; lat <= 0 {
		t.Fatalf("agreement latency not recorded: %v", lat)
	}
}

// TestRackSwitchAgreementMessageCount pins the §5.3 agreement cost of
// a switch replacement to exactly the live replicas of the groups that
// switch hosts: one revoke out and one ack back per live replica —
// never the whole rack, and crashed replicas excluded.
func TestRackSwitchAgreementMessageCount(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true,
		Groups: 4, Switches: 2, Seed: 23,
	})
	// Switch 0 hosts groups 0 and 1. Crash one replica of group 1 so
	// the live count drops below the nominal 2 groups × 3 replicas.
	if err := c.CrashReplicaIn(1, 2); err != nil {
		t.Fatal(err)
	}
	before0, before1 := c.Rack().Stats(0), c.Rack().Stats(1)
	c.CrashSwitch(0)
	c.RunFor(time.Millisecond)
	c.ReactivateSwitch(0)
	c.RunFor(10 * time.Millisecond)
	after0, after1 := c.Rack().Stats(0), c.Rack().Stats(1)

	liveOwned := 0
	for _, g := range c.Rack().GroupsOf(0) {
		for i := 0; i < 3; i++ {
			if !c.Network().IsDown(c.GroupReplicaAddr(g, i)) {
				liveOwned++
			}
		}
	}
	if liveOwned != 5 {
		t.Fatalf("expected 5 live replicas on switch 0's groups, have %d", liveOwned)
	}
	if got := after0.RevokesSent - before0.RevokesSent; got != uint64(liveOwned) {
		t.Fatalf("revokes sent = %d, want %d (live replicas of owned groups only)", got, liveOwned)
	}
	if got := after0.AcksReceived - before0.AcksReceived; got != uint64(liveOwned) {
		t.Fatalf("acks received = %d, want %d (live replicas of owned groups only)", got, liveOwned)
	}
	if after1.AgreementMsgs() != before1.AgreementMsgs() {
		t.Fatal("replacing switch 0 charged agreement messages to switch 1")
	}
}

// TestRebalanceEventsNameHostedGroups: a rebalancer event names the
// overloaded group by its global ID, so the group it names is hosted on
// the switch that logged it — on switch 1 as much as on switch 0.
func TestRebalanceEventsNameHostedGroups(t *testing.T) {
	cfg, spec, steps := controlPlaneRack(256)
	c := New(cfg)
	if err := c.Play(Script{Loads: []LoadSpec{spec}, Steps: steps, Settle: 10 * time.Millisecond}).Err(); err != nil {
		t.Fatal(err)
	}
	onSwitch1 := false
	for _, e := range c.Events() {
		if e.Kind != trace.EvRebalanceTick && e.Kind != trace.EvRebalanceVeto {
			continue
		}
		if sw := c.SwitchOfGroup(int(e.Group)); sw != int(e.Switch) {
			t.Fatalf("%v on switch %d names group %d, hosted on switch %d", e.Kind, e.Switch, e.Group, sw)
		}
		onSwitch1 = onSwitch1 || e.Switch == 1
	}
	if !onSwitch1 {
		t.Fatal("no rebalance event from switch 1: the run did not exercise its domain")
	}
}

// TestRackRebalancerStaysWithinSwitchDomains arms the autonomous
// rebalancer on a 2-switch rack with a hot spot pinned inside switch
// 0's shard: every move the loop makes must keep its slot on the
// owning switch (the rack-aware policy never plans cross-switch
// moves), while the hot domain still spreads its load.
func TestRackRebalancerStaysWithinSwitchDomains(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true,
		Groups: 4, Switches: 2, Seed: 29, AutoRebalance: true,
	})
	before := c.SlotSwitchTable()
	// Pin a handful of hot keys' slots onto group 0 (switch 0's shard),
	// then run a skewed load over them.
	bySlot := keysInSlotOwnedBy(c, 64, 0)
	var hotKeys []int
	for s, ii := range bySlot {
		if c.SwitchOf(s) == 0 {
			hotKeys = append(hotKeys, ii...)
		}
	}
	if len(hotKeys) < 4 {
		t.Fatalf("need hot keys on switch 0, have %d", len(hotKeys))
	}
	rep := c.RunLoad(LoadSpec{
		Mode: Closed, Clients: 64, Duration: 12 * time.Millisecond,
		Warmup: 2 * time.Millisecond, WriteRatio: 0.05, Keys: 16, Dist: Zipf12,
	})
	if rep.Ops == 0 {
		t.Fatal("no load completed")
	}
	c.RunFor(10 * time.Millisecond)
	after := c.SlotSwitchTable()
	for s := range after {
		if after[s] != before[s] {
			t.Fatalf("rebalancer moved slot %d across switches (%d -> %d)", s, before[s], after[s])
		}
	}
}

// TestRackSwitchOverlappingReplacements starts a second replacement of
// the same switch before the first's agreement can complete (plus a
// duplicate-index call): the stale agreement must NOT install its
// scheduler over the newer epoch's — the group would stamp fast reads
// with an epoch the replicas' newer leases reject forever. The final
// state must serve fast reads at the newest epoch.
func TestRackSwitchOverlappingReplacements(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true,
		Groups: 4, Switches: 2, Seed: 31,
	})
	if err := c.CrashSwitch(0); err != nil {
		t.Fatal(err)
	}
	// Two immediate replacements (no time for the first agreement to
	// finish) and a duplicate index in one call.
	if err := c.ReactivateSwitch(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.ReactivateSwitch(0); err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * time.Millisecond)

	wantEpoch := c.rack.Epoch(0)
	for _, g := range c.rack.GroupsOf(0) {
		if got := c.GroupScheduler(g).Epoch(); got != wantEpoch {
			t.Fatalf("group %d runs scheduler epoch %d, switch epoch is %d (stale agreement won)",
				g, got, wantEpoch)
		}
	}
	// Fast reads must flow again on the final epoch.
	cl := c.NewSyncClient()
	bySlot := keysInSlotOwnedBy(c, 64, 0)
	var key string
	for s, ii := range bySlot {
		if c.SwitchOf(s) == 0 && len(ii) > 0 {
			key = workload.KeyName(ii[0])
			break
		}
	}
	if err := cl.Set(key, []byte("v")); err != nil {
		t.Fatalf("Set after overlapping replacements: %v", err)
	}
	before := c.GroupScheduler(c.GroupOf(key)).Stats.FastReads
	for i := 0; i < 8; i++ {
		if _, ok, err := cl.Get(key); err != nil || !ok {
			t.Fatalf("Get: %v %v", ok, err)
		}
	}
	if got := c.GroupScheduler(c.GroupOf(key)).Stats.FastReads; got <= before {
		t.Fatalf("fast path dead after overlapping replacements: %d -> %d", before, got)
	}
}

// TestRackSwitchReplacementSurvivesCrashDuringAgreement crashes a
// replica inside the revoke → ack window of a switch replacement (the
// revokes are in flight, one link latency wide): the agreement must
// re-evaluate its quorum and complete on the survivors instead of
// wedging the group's scheduler install forever — and the replacement
// scheduler must target the SURVIVING chain, not the boot-time one
// (crashing the head or tail here used to install a scheduler whose
// write/read destination was the dead node, wedging the group for
// good). Every chain position is exercised.
func TestRackSwitchReplacementSurvivesCrashDuringAgreement(t *testing.T) {
	for _, victim := range []int{0, 1, 2} { // head, middle, tail
		victim := victim
		t.Run(fmt.Sprintf("victim-%d", victim), func(t *testing.T) {
			c := New(Config{
				Protocol: Chain, Replicas: 3, UseHarmonia: true,
				Groups: 4, Switches: 2, Seed: 37,
			})
			if err := c.CrashSwitch(0); err != nil {
				t.Fatal(err)
			}
			if err := c.ReactivateSwitch(0); err != nil {
				t.Fatal(err)
			}
			// The revokes are in flight now (no simulated time has
			// passed): crash a replica of an owned group before it can
			// ack.
			if err := c.CrashReplicaIn(0, victim); err != nil {
				t.Fatal(err)
			}
			c.RunFor(10 * time.Millisecond)

			st := c.Rack().Stats(0)
			if st.Replacements != 1 {
				t.Fatalf("replacement wedged: Replacements = %d, want 1", st.Replacements)
			}
			for _, g := range c.Rack().GroupsOf(0) {
				if got := c.GroupScheduler(g).Epoch(); got != c.Rack().Epoch(0) {
					t.Fatalf("group %d scheduler epoch %d, switch epoch %d (agreement never completed)",
						g, got, c.Rack().Epoch(0))
				}
			}
			// The group with the crashed member still serves reads AND
			// writes through its survivors.
			cl := c.NewSyncClient()
			bySlot := keysInSlotOwnedBy(c, 64, 0)
			for s, ii := range bySlot {
				if c.SwitchOf(s) == 0 && len(ii) > 0 {
					key := workload.KeyName(ii[0])
					if err := cl.Set(key, []byte("v")); err != nil {
						t.Fatalf("Set after mid-agreement crash of replica %d: %v", victim, err)
					}
					if v, ok, err := cl.Get(key); err != nil || !ok || string(v) != "v" {
						t.Fatalf("Get after mid-agreement crash of replica %d: %q %v %v", victim, v, ok, err)
					}
					break
				}
			}
		})
	}
}

// TestRackSwitchCrashReplicaIdempotent re-crashes an already-dead
// replica inside the revoke → ack window: the duplicate must not
// decrement the agreement quorum a second time, or the replacement
// would complete before a LIVE replica revoked its old-epoch lease.
func TestRackSwitchCrashReplicaIdempotent(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true,
		Groups: 4, Switches: 2, Seed: 41,
	})
	if err := c.CrashSwitch(0); err != nil {
		t.Fatal(err)
	}
	if err := c.ReactivateSwitch(0); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashReplicaIn(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashReplicaIn(0, 1); err != nil { // duplicate: no-op
		t.Fatal(err)
	}
	c.RunFor(10 * time.Millisecond)
	st := c.Rack().Stats(0)
	if st.Replacements != 1 {
		t.Fatalf("Replacements = %d, want 1", st.Replacements)
	}
	// 2 live of group 0 + 3 of group 1 acked; the double-crash must
	// not have let the agreement complete short of that.
	if st.AcksReceived != 5 {
		t.Fatalf("acks = %d, want 5 (every live replica revoked)", st.AcksReceived)
	}
}
