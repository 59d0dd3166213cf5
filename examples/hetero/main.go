// Hetero: a heterogeneous topology. One hot 7-replica Harmonia(CR)
// shard runs next to two cold 3-replica NOPaxos shards in a 2-switch
// rack. Capacity weights — derived from each group's calibrated
// service rate — size the slot shards and steer the pinned client
// pool, so the big shard earns roughly half the rack instead of a
// uniform third. The demo shows (1) the weighted layout and derived
// weights, (2) the weighted rack beating the same hardware
// misconfigured as uniform, and (3) a slot migrating from the CR shard
// into a NOPaxos shard — the cross-protocol handoff as routine
// topology maintenance — with the history staying linearizable.
package main

import (
	"fmt"
	"log"
	"time"

	"harmonia"
)

func main() {
	specs := []harmonia.GroupSpec{
		{Protocol: harmonia.ChainReplication, Replicas: 7},
		{Protocol: harmonia.NOPaxos, Replicas: 3},
		{Protocol: harmonia.NOPaxos, Replicas: 3},
	}
	build := func(uniform bool, record bool) *harmonia.Cluster {
		gs := append([]harmonia.GroupSpec(nil), specs...)
		if uniform {
			for i := range gs {
				gs[i].Weight = 1 // misconfiguration: every group "equal"
			}
		}
		c, err := harmonia.New(harmonia.Config{
			UseHarmonia: true, GroupSpecs: gs, Switches: 2,
			Seed: 42, RecordHistory: record,
		})
		if err != nil {
			log.Fatal(err)
		}
		return c
	}

	// Phase 1: the weighted topology.
	c := build(false, false)
	fmt.Println("heterogeneous rack:")
	share := make([]int, c.Groups())
	for _, g := range c.SlotTable() {
		share[g]++
	}
	for g, sp := range c.GroupSpecs() {
		fmt.Printf("  group %d: %-8v ×%d  weight=%.2fM ops/s  slots=%d\n",
			g, sp.Protocol, sp.Replicas, sp.Weight/1e6, share[g])
	}

	// Phase 2: weighted vs uniform misconfiguration, same hardware.
	spec := harmonia.LoadSpec{
		Clients: 288, Duration: 15 * time.Millisecond,
		WriteRatio: 0.05, Keys: 100000, PinGroups: true,
	}
	uni := build(true, false).Run(spec)
	het := c.Run(spec)
	fmt.Printf("\nuniform misconfigured: %6.2f MOPS (GroupOps %v)\n", uni.Throughput/1e6, uni.GroupOps)
	fmt.Printf("hetero weighted:       %6.2f MOPS (GroupOps %v)\n", het.Throughput/1e6, het.GroupOps)
	fmt.Printf("speedup: %.2f×\n", het.Throughput/uni.Throughput)

	// Phase 3: cross-protocol migration as steady state, verified.
	v := build(false, true)
	cl := v.Client()
	key := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("user:%04d", i)
		if v.GroupOf(k) == 0 {
			key = k
			break
		}
	}
	if err := cl.Set(key, nil); err != nil {
		log.Fatal(err)
	}
	slot := v.SlotOfKey(key)
	if err := v.MigrateSlot(slot, 1); err != nil {
		log.Fatal(err)
	}
	if _, ok, err := cl.Get(key); err != nil || !ok {
		log.Fatalf("migrated key unreadable: %v %v", ok, err)
	}
	fmt.Printf("\nslot %d migrated CR×7 → NOPaxos×3; key %q now served by group %d\n",
		slot, key, v.GroupOf(key))
	for g := 0; g < v.Groups(); g++ {
		res := v.CheckLinearizabilityGroup(g)
		if !res.Decided {
			log.Fatalf("group %d: history too dense to check: %s", g, res.Reason)
		}
		if !res.Ok {
			log.Fatalf("group %d: LINEARIZABILITY VIOLATED: %s", g, res.Reason)
		}
		fmt.Printf("  group %d linearizable: true\n", g)
	}
}
