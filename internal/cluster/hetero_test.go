package cluster

import (
	"testing"
	"time"

	"harmonia/internal/wire"
)

// TestHeteroClusterServesMixedGroups: one cluster, three groups with
// two protocols and two replica counts — every group serves reads and
// writes through its own protocol instance, routed by the weighted
// slot table.
func TestHeteroClusterServesMixedGroups(t *testing.T) {
	c := New(Config{
		UseHarmonia: true,
		GroupSpecs: []GroupSpec{
			{Protocol: Chain, Replicas: 7},
			{Protocol: NOPaxos, Replicas: 3},
			{Protocol: CRAQ, Replicas: 3},
		},
		Seed: 91, RecordHistory: true,
	})
	if c.Groups() != 3 {
		t.Fatalf("Groups() = %d", c.Groups())
	}
	for g, want := range []int{7, 3, 3} {
		if got := c.SpecOf(g).Replicas; got != want {
			t.Fatalf("group %d sized %d, want %d", g, got, want)
		}
		if got := len(c.groups[g].replicas); got != want {
			t.Fatalf("group %d built %d replicas, want %d", g, got, want)
		}
	}
	// The CRAQ group never takes switch assistance, even in a
	// UseHarmonia cluster.
	if c.SpecOf(0).Harmonia != true || c.SpecOf(2).Harmonia != false {
		t.Fatalf("harmonia resolution: %+v", c.cfg.GroupSpecs)
	}
	// Derived capacity weights follow replica counts: the 7-replica
	// fast-read group outweighs both 3-replica groups.
	w := c.GroupWeights()
	if !(w[0] > w[1]) || !(w[0] > w[2]) {
		t.Fatalf("weights %v do not favor the 7-replica group", w)
	}
	// The weighted boot layout grants it more routing slots.
	counts := make([]int, 3)
	for _, g := range c.SlotTable() {
		counts[g]++
	}
	if !(counts[0] > counts[1]) || !(counts[0] > counts[2]) {
		t.Fatalf("slot shares %v do not favor the 7-replica group", counts)
	}

	// End-to-end traffic lands on every group and stays linearizable.
	cl := c.NewSyncClient()
	hit := make([]bool, 3)
	for i := 0; i < 64; i++ {
		key := keyName(i)
		if err := cl.Set(key, []byte{byte(i)}); err != nil {
			t.Fatalf("Set(%s): %v", key, err)
		}
		if v, ok, err := cl.Get(key); err != nil || !ok || v[0] != byte(i) {
			t.Fatalf("Get(%s) = %v %v %v", key, v, ok, err)
		}
		hit[c.GroupOf(key)] = true
	}
	for g, ok := range hit {
		if !ok {
			t.Fatalf("no key routed to group %d", g)
		}
	}
	for g := 0; g < c.Groups(); g++ {
		if res := c.CheckLinearizabilityGroup(g); !res.Decided || !res.Ok {
			t.Fatalf("group %d: %+v", g, res)
		}
	}
	// Per-group scheduler wiring: the Harmonia chain group serves fast
	// reads, the CRAQ baseline partition never does.
	if st := c.GroupScheduler(0).Stats; st.FastReads == 0 {
		t.Fatal("7-replica Harmonia group served no fast reads")
	}
	if st := c.GroupScheduler(2).Stats; st.FastReads != 0 {
		t.Fatalf("CRAQ baseline partition served %d fast reads", st.FastReads)
	}
}

// TestHeteroCrashReplicaPerGroupBounds: failure injection bounds and
// protocol checks are per GROUP, not cluster-wide.
func TestHeteroCrashReplicaPerGroupBounds(t *testing.T) {
	c := New(Config{
		UseHarmonia: true,
		GroupSpecs: []GroupSpec{
			{Protocol: Chain, Replicas: 5},
			{Protocol: Chain, Replicas: 3},
			{Protocol: CRAQ, Replicas: 3},
		},
		Seed: 97,
	})
	// Index 4 exists in the 5-replica group but not in the 3-replica
	// one.
	if err := c.CrashReplicaIn(1, 4); err == nil {
		t.Fatal("replica 4 of the 3-replica group accepted")
	}
	if err := c.CrashReplicaIn(0, 4); err != nil {
		t.Fatalf("crash tail of the 5-replica group: %v", err)
	}
	// The CRAQ group reconfigures like its chain neighbors.
	if err := c.CrashReplicaIn(2, 1); err != nil {
		t.Fatalf("crash middle of the CRAQ group: %v", err)
	}
	if err := c.CrashReplicaIn(1, 1); err != nil {
		t.Fatalf("crash middle of the 3-replica chain: %v", err)
	}
	// Every reconfigured group keeps serving writes.
	cl := c.NewSyncClient()
	served := [3]int{}
	for i := 0; i < 48; i++ {
		key := keyName(i)
		g := c.GroupOf(key)
		served[g]++
		if err := cl.Set(key, []byte("x")); err != nil {
			t.Fatalf("Set(%s) on reconfigured group %d: %v", key, g, err)
		}
	}
	if served[0] == 0 || served[1] == 0 || served[2] == 0 {
		t.Fatalf("writes per group %v: every group should take some", served)
	}
}

// TestHeteroSwitchAgreementSizedPerGroup: the §5.3 replacement
// agreement bills one ack per LIVE REPLICA of each hosted group — with
// heterogeneous groups the cost follows the actual replica counts, not
// a uniform groups×replicas product.
func TestHeteroSwitchAgreementSizedPerGroup(t *testing.T) {
	c := New(Config{
		UseHarmonia: true,
		GroupSpecs: []GroupSpec{
			{Protocol: Chain, Replicas: 5},
			{Protocol: Chain, Replicas: 3},
			{Protocol: Chain, Replicas: 3},
			{Protocol: Chain, Replicas: 3},
		},
		Switches: 2, Seed: 101,
	})
	// Contiguous blocks: groups {0,1} behind switch 0 (5+3 replicas),
	// {2,3} behind switch 1 (3+3).
	if c.SwitchOfGroup(1) != 0 || c.SwitchOfGroup(2) != 1 {
		t.Fatalf("unexpected group placement: %v %v", c.SwitchOfGroup(1), c.SwitchOfGroup(2))
	}
	if err := c.CrashSwitch(0); err != nil {
		t.Fatalf("CrashSwitch: %v", err)
	}
	c.RunFor(2 * time.Millisecond)
	if err := c.ReactivateSwitch(0); err != nil {
		t.Fatalf("ReactivateSwitch: %v", err)
	}
	c.RunFor(10 * time.Millisecond)
	st := c.Rack().Stats(0)
	if st.Replacements != 1 {
		t.Fatalf("replacements = %d", st.Replacements)
	}
	if want := uint64(5 + 3); st.AcksReceived != want {
		t.Fatalf("agreement acks = %d, want %d (the hosted groups' replicas)", st.AcksReceived, want)
	}
	if st1 := c.Rack().Stats(1); st1.AcksReceived != 0 {
		t.Fatalf("untouched switch billed %d acks", st1.AcksReceived)
	}
}

// TestHeteroPinnedLoadFollowsWeights: the pinned closed-loop pool (the
// client-side router) offers each group load in proportion to its
// calibrated capacity, and the big group completes more work.
func TestHeteroPinnedLoadFollowsWeights(t *testing.T) {
	c := New(Config{
		UseHarmonia: true,
		GroupSpecs: []GroupSpec{
			{Protocol: Chain, Replicas: 7},
			{Protocol: Chain, Replicas: 3},
		},
		Seed: 103,
	})
	rep := c.RunLoad(LoadSpec{
		Mode: Closed, Clients: 96, Duration: 8 * time.Millisecond,
		Warmup: 2 * time.Millisecond, WriteRatio: 0.05, Keys: 4096,
		Dist: Uniform, PinGroups: true,
	})
	if rep.Ops == 0 {
		t.Fatal("no load completed")
	}
	if !(rep.GroupOps[0] > rep.GroupOps[1]) {
		t.Fatalf("GroupOps %v: the 7-replica group should complete more", rep.GroupOps)
	}
	// The split should lean meaningfully toward the big group — more
	// than the 3:2 a noisy even split could produce.
	if rep.GroupOps[0] < rep.GroupOps[1]*3/2 {
		t.Fatalf("GroupOps %v: weighted router barely favored the big group", rep.GroupOps)
	}
}

// TestGroupSpecNilBitCompatible: a nil-GroupSpecs cluster and its
// explicit uniform-spec equivalent are the SAME cluster — identical
// routing tables and an identical deterministic load run.
func TestGroupSpecNilBitCompatible(t *testing.T) {
	build := func(specs []GroupSpec) *Cluster {
		return New(Config{
			Protocol: Chain, Replicas: 3, UseHarmonia: true,
			Groups: 4, GroupSpecs: specs, Switches: 2, Seed: 77,
		})
	}
	a := build(nil)
	b := build([]GroupSpec{{Protocol: Chain}, {Protocol: Chain}, {Protocol: Chain}, {Protocol: Chain}})
	at, bt := a.SlotTable(), b.SlotTable()
	ast, bst := a.SlotSwitchTable(), b.SlotSwitchTable()
	for s := range at {
		if at[s] != bt[s] || ast[s] != bst[s] {
			t.Fatalf("slot %d: nil specs (%d,%d) vs uniform specs (%d,%d)", s, at[s], ast[s], bt[s], bst[s])
		}
	}
	// The historical layout formulas still describe the boot tables.
	for s := range at {
		if at[s] != c4legacyGroup(s) || ast[s] != s*2/wire.NumSlots {
			t.Fatalf("slot %d diverged from the historical layout: group %d switch %d", s, at[s], ast[s])
		}
	}
	spec := LoadSpec{
		Mode: Closed, Clients: 32, Duration: 6 * time.Millisecond,
		Warmup: time.Millisecond, WriteRatio: 0.1, Keys: 2048, Dist: Uniform, PinGroups: true,
	}
	ra, rb := a.RunLoad(spec), b.RunLoad(spec)
	if ra.Ops != rb.Ops || ra.Reads != rb.Reads || ra.Writes != rb.Writes {
		t.Fatalf("deterministic runs diverged: %+v vs %+v", ra.Ops, rb.Ops)
	}
	for g := range ra.GroupOps {
		if ra.GroupOps[g] != rb.GroupOps[g] {
			t.Fatalf("GroupOps diverged: %v vs %v", ra.GroupOps, rb.GroupOps)
		}
	}
}

// c4legacyGroup is the pre-spec boot route for a 2-switch, 4-group
// rack (contiguous shards, block striping).
func c4legacyGroup(slot int) int {
	sw := slot * 2 / wire.NumSlots
	lo := sw * 2
	return lo + slot%2
}

// TestOpenLoopPinGroupsOfferedSplit: the sharded open-loop driver's
// weight-aware draw offers a 2:1 weighted rack a 2:1 split — the
// regression this guards is a weight-blind uniform key draw
// under-offering the big shard.
func TestOpenLoopPinGroupsOfferedSplit(t *testing.T) {
	c := New(Config{
		UseHarmonia: true,
		GroupSpecs: []GroupSpec{
			{Protocol: Chain, Replicas: 3, Weight: 2},
			{Protocol: Chain, Replicas: 3, Weight: 1},
		},
		Seed: 211,
	})
	rep := c.RunLoad(LoadSpec{
		Mode: Open, Rate: 400000, Duration: 40 * time.Millisecond,
		Warmup: 5 * time.Millisecond, WriteRatio: 0.05, Keys: 8192,
		Dist: Uniform, PinGroups: true,
	})
	if rep.GroupOffered == nil {
		t.Fatal("sharded open-loop run reported no GroupOffered")
	}
	total := rep.GroupOffered[0] + rep.GroupOffered[1]
	if total == 0 {
		t.Fatal("no load offered")
	}
	ratio := float64(rep.GroupOffered[0]) / float64(rep.GroupOffered[1])
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("offered split %v (ratio %.3f), want ~2:1", rep.GroupOffered, ratio)
	}
	// Completions follow the offer: the big group also does more work.
	if !(rep.GroupOps[0] > rep.GroupOps[1]) {
		t.Fatalf("GroupOps %v: weighted offer did not reach the big group", rep.GroupOps)
	}
	// Closed-loop and unsharded runs leave GroupOffered nil.
	if r := c.RunLoad(LoadSpec{
		Mode: Closed, Clients: 16, Duration: 4 * time.Millisecond,
		Keys: 2048, PinGroups: true,
	}); r.GroupOffered != nil {
		t.Fatalf("closed-loop run filled GroupOffered: %v", r.GroupOffered)
	}
	if r := c.RunLoad(LoadSpec{
		Mode: Open, Rate: 100000, Duration: 4 * time.Millisecond,
		Keys: 2048,
	}); r.GroupOffered != nil {
		t.Fatalf("unsharded open-loop run filled GroupOffered: %v", r.GroupOffered)
	}
}
