package harmonia_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"harmonia"
)

// must stops an example that went wrong: it panics, which fails the
// test, unless ok holds. Most calls pass err == nil.
func must(ok bool, format string, args ...any) {
	if !ok {
		panic(fmt.Sprintf(format, args...))
	}
}

// Build a 3-replica Harmonia(chain-replication) cluster, write and
// read a few keys, and show how the switch routed the reads (fast path
// to a random replica vs the normal protocol path).
func Example() {
	c, err := harmonia.New(harmonia.Config{
		Protocol: harmonia.ChainReplication, Replicas: 3, UseHarmonia: true,
	})
	must(err == nil, "%v", err)
	cl := c.Client()

	// Basic key-value usage.
	err = cl.Set("user:42", []byte("ada lovelace"))
	must(err == nil, "%v", err)
	err = cl.Set("user:43", []byte("alan turing"))
	must(err == nil, "%v", err)
	v, ok, err := cl.Get("user:42")
	must(err == nil && ok, "get: %v %v", ok, err)
	fmt.Printf("user:42 = %q\n", v)

	// Read the same uncontended key a few times: with no pending
	// writes, the switch fast-paths each read to a random replica.
	for i := 0; i < 10; i++ {
		_, _, err := cl.Get("user:43")
		must(err == nil, "%v", err)
	}

	err = cl.Delete("user:43")
	must(err == nil, "%v", err)
	_, ok, _ = cl.Get("user:43")
	must(!ok, "delete did not take")

	st := c.SwitchStats()
	fmt.Printf("switch: %d writes sequenced, %d fast-path reads, %d normal-path reads (%d dirty hits)\n",
		st.Writes, st.FastReads, st.NormalReads, st.DirtyHits)
	fmt.Printf("dirty set now holds %d objects (all writes completed)\n", st.DirtySetSize)
	// Output:
	// user:42 = "ada lovelace"
	// switch: 4 writes sequenced, 12 fast-path reads, 0 normal-path reads (0 dirty hits)
	// dirty set now holds 0 objects (all writes completed)
}

// The paper's headline result (Fig. 7) in miniature: read throughput
// as the replica count grows from 2 to 6, chain replication with and
// without Harmonia. CR stays flat at one server's capacity because
// only the tail serves reads; Harmonia grows with every replica added.
func ExampleCluster_Run() {
	measure := func(replicas int, useHarmonia bool) float64 {
		c, err := harmonia.New(harmonia.Config{
			Protocol: harmonia.ChainReplication, Replicas: replicas,
			UseHarmonia: useHarmonia, Seed: int64(replicas),
		})
		must(err == nil, "%v", err)
		rep := c.Run(harmonia.LoadSpec{
			Clients:    96 * replicas,
			Duration:   25 * time.Millisecond,
			Warmup:     5 * time.Millisecond,
			WriteRatio: 0, // read-only, as in Fig. 7(a)
			Keys:       10000,
		})
		return rep.Throughput
	}

	fmt.Println("read-only throughput (MRPS), chain replication ± Harmonia")
	fmt.Printf("%-10s %10s %14s %8s\n", "replicas", "CR", "Harmonia(CR)", "speedup")
	for n := 2; n <= 6; n++ {
		cr := measure(n, false)
		h := measure(n, true)
		fmt.Printf("%-10d %10.2f %14.2f %7.1fx\n", n, cr/1e6, h/1e6, h/cr)
	}
	fmt.Println("\nCR is bounded by the tail server; Harmonia grows ~linearly,")
	fmt.Println("matching Fig. 7(a) of the paper (10x at 10 replicas on the testbed).")
	// Output:
	// read-only throughput (MRPS), chain replication ± Harmonia
	// replicas           CR   Harmonia(CR)  speedup
	// 2                0.92           1.84     2.0x
	// 3                0.92           2.74     3.0x
	// 4                0.92           3.66     4.0x
	// 5                0.92           4.58     5.0x
	// 6                0.92           5.49     6.0x
	//
	// CR is bounded by the tail server; Harmonia grows ~linearly,
	// matching Fig. 7(a) of the paper (10x at 10 replicas on the testbed).
}

// The §9.5 generality result in miniature: all five replication
// protocols run the same read-intensive mixed workload, each with and
// without Harmonia (except CRAQ, the protocol-level baseline that has
// no switch assistance by construction). In-network conflict detection
// lifts read throughput for every protocol class without touching the
// write path.
func ExampleProtocol() {
	run := func(p harmonia.Protocol, useHarmonia bool) harmonia.Report {
		c, err := harmonia.New(harmonia.Config{
			Protocol: p, Replicas: 3, UseHarmonia: useHarmonia, Seed: 42,
		})
		must(err == nil, "%v", err)
		return c.Run(harmonia.LoadSpec{
			Clients:    192,
			Duration:   25 * time.Millisecond,
			Warmup:     5 * time.Millisecond,
			WriteRatio: 0.05, // the paper's default mix
			Keys:       100000,
		})
	}

	fmt.Println("3 replicas, 95% reads / 5% writes, uniform keys")
	fmt.Printf("%-26s %12s %12s %12s\n", "system", "total MRPS", "reads MRPS", "writes MRPS")
	protos := []harmonia.Protocol{
		harmonia.PrimaryBackup,
		harmonia.ChainReplication,
		harmonia.CRAQ,
		harmonia.ViewstampedReplication,
		harmonia.NOPaxos,
	}
	for _, p := range protos {
		base := run(p, false)
		fmt.Printf("%-26s %12.2f %12.2f %12.2f\n",
			p.String(), base.Throughput/1e6, base.ReadThroughput/1e6, base.WriteThroughput/1e6)
		if p == harmonia.CRAQ {
			continue // CRAQ is its own (protocol-level) read-scaling baseline
		}
		h := run(p, true)
		fmt.Printf("%-26s %12.2f %12.2f %12.2f\n",
			"Harmonia("+p.String()+")", h.Throughput/1e6, h.ReadThroughput/1e6, h.WriteThroughput/1e6)
	}
	fmt.Println("\nEvery protocol gains ~3x read throughput from the 3 replicas,")
	fmt.Println("reproducing the shape of Fig. 9 (both protocol families).")
	// Output:
	// 3 replicas, 95% reads / 5% writes, uniform keys
	// system                       total MRPS   reads MRPS  writes MRPS
	// PB                                 0.89         0.85         0.05
	// Harmonia(PB)                       2.32         2.20         0.12
	// CR                                 0.91         0.87         0.05
	// Harmonia(CR)                       2.37         2.25         0.12
	// CRAQ                               2.12         2.01         0.11
	// VR                                 0.87         0.83         0.04
	// Harmonia(VR)                       2.19         2.08         0.11
	// NOPaxos                            0.91         0.87         0.05
	// Harmonia(NOPaxos)                  2.43         2.31         0.12
	//
	// Every protocol gains ~3x read throughput from the 3 replicas,
	// reproducing the shape of Fig. 9 (both protocol families).
}

// The latency-vs-throughput methodology on a sharded rack. A 2:1
// capacity-weighted two-group cluster is driven by an open-loop
// Poisson stream (Rate > 0 selects open loop) swept from light load to
// past saturation. PinGroups makes each arrival draw a replica group
// in proportion to its weight and then a shard-local key, so the big
// shard is offered twice the work — Report.GroupOffered shows the
// realized split. Mean latency stays flat until the offered rate
// approaches the rack's capacity, then the tail blows up: the same
// knee as the paper's latency-vs-throughput figures, and the shape the
// tracked Figure P snapshot (bench/BENCH_figP.json) records for the
// 4-switch rack.
func ExampleLoadSpec() {
	c, err := harmonia.New(harmonia.Config{
		UseHarmonia: true, Seed: 7,
		GroupSpecs: []harmonia.GroupSpec{
			{Protocol: harmonia.ChainReplication, Replicas: 3, Weight: 2},
			{Protocol: harmonia.NOPaxos, Replicas: 3, Weight: 1},
		},
	})
	must(err == nil, "%v", err)

	fmt.Println("open-loop sweep, 2-group rack (weights 2:1):")
	fmt.Printf("%12s %12s %12s %12s %16s\n",
		"offered/s", "done/s", "mean", "p99", "offered split")
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 0.95} {
		// Sweep ceiling, chosen past the rack's ~3.5M op/s saturation
		// point so the last two rows sit on the knee.
		const capacity = 5.0e6
		rep := c.Run(harmonia.LoadSpec{
			Rate:     frac * capacity,
			Duration: 10 * time.Millisecond, Warmup: 2 * time.Millisecond,
			WriteRatio: 0.05, Keys: 20000, Dist: harmonia.Zipf09,
			PinGroups: true,
		})
		split := "-"
		if rep.GroupOffered != nil {
			total := rep.GroupOffered[0] + rep.GroupOffered[1]
			split = fmt.Sprintf("%.2f : %.2f",
				float64(rep.GroupOffered[0])/float64(total)*3,
				float64(rep.GroupOffered[1])/float64(total)*3)
		}
		fmt.Printf("%12.0f %12.0f %12s %12s %16s\n",
			frac*capacity, rep.Throughput,
			rep.MeanLatency.Round(time.Microsecond),
			rep.P99Latency.Round(time.Microsecond), split)
	}
	fmt.Println("\nthe knee: latency is flat until the offered rate nears",
		"capacity, then queues (and the p99) take off — the open-loop",
		"methodology behind the paper's Figs. 5-6.")
	// Output:
	// open-loop sweep, 2-group rack (weights 2:1):
	//    offered/s       done/s         mean          p99    offered split
	//      1000000       987100         30µs         65µs      1.98 : 1.02
	//      2000000      1993400         30µs         69µs      2.00 : 1.00
	//      3000000      2990300         31µs         69µs      1.98 : 1.02
	//      4000000      3372100        656µs      4.372ms      1.99 : 1.01
	//      4750000      2963400      1.179ms     10.182ms      2.00 : 1.00
	//
	// the knee: latency is flat until the offered rate nears capacity, then queues (and the p99) take off — the open-loop methodology behind the paper's Figs. 5-6.
}

// The §6.1 multi-group deployment: one switch front-end, four replica
// groups, each owning a hash slice of the key space with its own
// scheduler partition (sequence number, dirty set, last-committed
// point). Aggregate throughput grows with the group count because the
// groups share nothing but the switch ASIC, and a replica crash
// degrades only its own shard.
func ExampleCluster_GroupSwitchStats() {
	saturate := func(c *harmonia.Cluster, groups int) harmonia.Report {
		return c.Run(harmonia.LoadSpec{
			Clients:    128 * groups,
			Duration:   20 * time.Millisecond,
			Warmup:     4 * time.Millisecond,
			WriteRatio: 0.05, // the paper's default mix
			Keys:       100000,
			Dist:       harmonia.Zipf09,
			PinGroups:  true, // shard the client pool with the data
		})
	}
	build := func(groups int) *harmonia.Cluster {
		c, err := harmonia.New(harmonia.Config{
			Protocol: harmonia.ChainReplication, Replicas: 3, UseHarmonia: true,
			Groups: groups, Seed: int64(groups),
		})
		must(err == nil, "%v", err)
		return c
	}

	// 1. Near-linear aggregate scaling along the system-size axis.
	fmt.Println("aggregate throughput (MRPS), Harmonia(CR), 3 replicas per group, 5% writes, zipf-0.9")
	fmt.Printf("%-8s %12s %10s\n", "groups", "aggregate", "scaling")
	base := 0.0
	for _, g := range []int{1, 2, 4} {
		rep := saturate(build(g), g)
		if g == 1 {
			base = rep.Throughput
		}
		fmt.Printf("%-8d %11.2fM %9.1fx\n", g, rep.Throughput/1e6, rep.Throughput/base)
	}

	// 2. Keys route by hash; per-group counters show the shard split.
	c := build(4)
	rep := saturate(c, 4)
	fmt.Println("\nper-shard view of the same 4-group run:")
	for g, n := range rep.GroupOps {
		st := c.GroupSwitchStats(g)
		fmt.Printf("  group %d: %6d ops, %7d fast reads, %5d dirty hits\n",
			g, n, st.FastReads, st.DirtyHits)
	}
	fmt.Printf("key \"user:42\" lives in group %d\n", c.GroupOf("user:42"))

	// 3. Failure injection is group-scoped: crashing a replica in group
	// 2 leaves the other three shards untouched.
	err := c.CrashReplicaInGroup(2, 1)
	must(err == nil, "%v", err)
	after := saturate(c, 4)
	fmt.Println("\nafter crashing replica 1 of group 2:")
	for g, n := range after.GroupOps {
		fmt.Printf("  group %d: %6d ops\n", g, n)
	}
	fmt.Println("only group 2 lost a fast-read server; the rest kept their capacity.")
	// Output:
	// aggregate throughput (MRPS), Harmonia(CR), 3 replicas per group, 5% writes, zipf-0.9
	// groups      aggregate    scaling
	// 1               2.30M       1.0x
	// 2               4.56M       2.0x
	// 4               8.92M       3.9x
	//
	// per-shard view of the same 4-group run:
	//   group 0:  44696 ops,   47786 fast reads,  3252 dirty hits
	//   group 1:  44637 ops,   47953 fast reads,  3250 dirty hits
	//   group 2:  44348 ops,   47518 fast reads,  3353 dirty hits
	//   group 3:  44670 ops,   48019 fast reads,  3122 dirty hits
	// key "user:42" lives in group 2
	//
	// after crashing replica 1 of group 2:
	//   group 0:  44711 ops
	//   group 1:  44424 ops
	//   group 2:  33201 ops
	//   group 3:  43952 ops
	// only group 2 lost a fast-read server; the rest kept their capacity.
}

// Online slot migration between replica groups. The switch front-end
// routes every key through a slot → group table (harmonia.NumSlots
// slots); MigrateSlot moves one slot to another group with the
// §5.3-style handoff — freeze the slot, drain the source group's dirty
// set, copy the slot's objects, flip the route — while the rest of the
// cluster keeps serving. Here a "tenant" whose keys landed on three
// different groups is consolidated onto one, and then spread back,
// without ever losing a value.
//
// The throughput side of the story (a pinned zipf hot spot collapsing
// the aggregate, then recovering ≥1.5× once its slots migrate away) is
// Figure R: `go run ./cmd/harmonia-bench -fig R`.
func ExampleCluster_MigrateSlot() {
	c, err := harmonia.New(harmonia.Config{
		Protocol: harmonia.ChainReplication, Replicas: 3, UseHarmonia: true, Groups: 3,
	})
	must(err == nil, "%v", err)
	cl := c.Client()

	// A tenant's keys, scattered over the groups by the default slot
	// striping.
	keys := []string{
		"tenant42:profile", "tenant42:cart", "tenant42:orders",
		"tenant42:billing", "tenant42:sessions",
	}
	for _, k := range keys {
		err := cl.Set(k, []byte("v-"+k))
		must(err == nil, "%v", err)
	}
	fmt.Println("before rebalancing:")
	for _, k := range keys {
		fmt.Printf("  %-18s slot %3d → group %d\n", k, c.SlotOfKey(k), c.GroupOf(k))
	}

	// Consolidate: move every slot the tenant touches onto group 0.
	var slots []int
	for _, k := range keys {
		slot := c.SlotOfKey(k)
		if slices.Contains(slots, slot) {
			continue
		}
		slots = append(slots, slot)
		err := c.MigrateSlot(slot, 0)
		must(err == nil, "migrate slot %d: %v", slot, err)
	}
	fmt.Printf("\nafter consolidating %d slots onto group 0:\n", len(slots))
	for _, k := range keys {
		v, ok, err := cl.Get(k)
		must(err == nil && ok, "lost %q across the migration: %v", k, err)
		fmt.Printf("  %-18s group %d  value %q\n", k, c.GroupOf(k), v)
	}

	// The slot table is the observable routing authority.
	counts := make([]int, c.Groups())
	for _, g := range c.SlotTable() {
		counts[g]++
	}
	fmt.Printf("\nslot table occupancy: %v (of %d slots)\n", counts, harmonia.NumSlots)

	// Spread the tenant back out, round-robin, and write through again.
	for i, slot := range slots {
		err := c.MigrateSlot(slot, i%c.Groups())
		must(err == nil, "migrate slot %d back: %v", slot, err)
	}
	for _, k := range keys {
		err := cl.Set(k, []byte("v2-"+k))
		must(err == nil, "%v", err)
		v, ok, _ := cl.Get(k)
		must(ok && string(v) == "v2-"+k, "stale read of %q after second migration", k)
	}
	fmt.Println("\nspread back, all keys re-written and re-read — no value lost.")
	st := c.SwitchStats()
	fmt.Printf("switch: %d writes, %d fast reads, %d frozen-slot drops during handoffs\n",
		st.Writes, st.FastReads, st.FrozenDrops)
	// Output:
	// before rebalancing:
	//   tenant42:profile   slot 186 → group 0
	//   tenant42:cart      slot 252 → group 0
	//   tenant42:orders    slot  27 → group 0
	//   tenant42:billing   slot 217 → group 1
	//   tenant42:sessions  slot  23 → group 2
	//
	// after consolidating 5 slots onto group 0:
	//   tenant42:profile   group 0  value "v-tenant42:profile"
	//   tenant42:cart      group 0  value "v-tenant42:cart"
	//   tenant42:orders    group 0  value "v-tenant42:orders"
	//   tenant42:billing   group 0  value "v-tenant42:billing"
	//   tenant42:sessions  group 0  value "v-tenant42:sessions"
	//
	// slot table occupancy: [88 84 84] (of 256 slots)
	//
	// spread back, all keys re-written and re-read — no value lost.
	// switch: 13 writes, 10 fast reads, 0 frozen-slot drops during handoffs
}

// The cluster heals a hot shard on its own. Three empty replica groups
// have just been added to a rack whose 256 routing slots all still
// live on group 0 (the classic scale-out moment), and a heavy-tailed
// zipf-1.2 workload is hammering it. With Config.AutoRebalance on, the
// switch front-end's per-slot heat counters — the same register-array
// trick the paper uses for conflict state, applied to load — feed a
// control loop that detects the imbalance and migrates batches of hot
// slots to the cooler groups, with hysteresis and a move-cost veto so
// it never thrashes. No offline zipf knowledge, no operator: the only
// inputs are switch registers.
//
// The measured version of this story is Figure A:
// `go run ./cmd/harmonia-bench -fig A`.
func ExampleCluster_SlotHeat() {
	c, err := harmonia.New(harmonia.Config{
		Protocol: harmonia.ChainReplication, Replicas: 3, UseHarmonia: true, Groups: 4,
		AutoRebalance: true, Seed: 61,
	})
	must(err == nil, "%v", err)

	// The scale-out moment: every slot still routed to group 0, the
	// other groups idle. One batch call consolidates the whole table
	// (one freeze window and one bulk copy per source group — this is
	// MigrateSlots amortizing what 256 MigrateSlot calls would pay
	// individually).
	all := make([]int, harmonia.NumSlots)
	for s := range all {
		all[s] = s
	}
	err = c.MigrateSlots(all, 0)
	must(err == nil, "%v", err)
	occ := func() []int {
		counts := make([]int, c.Groups())
		for _, g := range c.SlotTable() {
			counts[g]++
		}
		return counts
	}
	fmt.Printf("scale-out start: slot occupancy %v — everything on group 0\n\n", occ())

	// Drive a closed loop and let the control loop work.
	spec := harmonia.LoadSpec{
		Clients: 128, Duration: 15 * time.Millisecond, Warmup: 2 * time.Millisecond,
		WriteRatio: 0.05, Keys: 64, Dist: harmonia.Zipf12,
	}
	c.Run(spec) // convergence window: the loop finds and moves the hot slots
	after := c.Run(spec)

	// The counterfactual: an identical cluster that keeps the skewed
	// placement (no rebalancer).
	static, err := harmonia.New(harmonia.Config{
		Protocol: harmonia.ChainReplication, Replicas: 3, UseHarmonia: true,
		Groups: 4, Seed: 61,
	})
	must(err == nil, "%v", err)
	err = static.MigrateSlots(all, 0)
	must(err == nil, "%v", err)
	base := static.Run(spec)

	fmt.Printf("aggregate throughput: %.2f MQPS static placement, %.2f MQPS auto-rebalanced (%.1fx)\n",
		base.Throughput/1e6, after.Throughput/1e6, after.Throughput/base.Throughput)
	fmt.Printf("rebalancer moved %d slots on its own; slot occupancy now %v\n\n", c.Rebalances(), occ())

	// The switch's own view: hottest slots by the heat registers, and
	// where they live now.
	heat := c.SlotHeat()
	table := c.SlotTable()
	var ranked []int
	for s, h := range heat {
		if h.Total() > 0 {
			ranked = append(ranked, s)
		}
	}
	sort.Slice(ranked, func(i, j int) bool { return heat[ranked[i]].Total() > heat[ranked[j]].Total() })
	fmt.Println("hottest slots by switch heat registers (EWMA-decayed):")
	for _, s := range ranked[:min(6, len(ranked))] {
		fmt.Printf("  slot %3d  heat %6d  reads %6d  writes %4d  → group %d\n",
			s, heat[s].Total(), heat[s].Reads, heat[s].Writes, table[s])
	}

	// Per-group share of the measured window: the head-of-line shard
	// is gone.
	fmt.Println("\nper-group completions in the converged window:")
	for g, ops := range after.GroupOps {
		fmt.Printf("  group %d: %d\n", g, ops)
	}
	// Output:
	// scale-out start: slot occupancy [256 0 0 0] — everything on group 0
	//
	// aggregate throughput: 1.31 MQPS static placement, 3.16 MQPS auto-rebalanced (2.4x)
	// rebalancer moved 6 slots on its own; slot occupancy now [250 1 2 3]
	//
	// hottest slots by switch heat registers (EWMA-decayed):
	//   slot  69  heat   1016  reads    967  writes   49  → group 1
	//   slot  72  heat    469  reads    444  writes   25  → group 2
	//   slot 169  heat    300  reads    286  writes   14  → group 3
	//   slot  98  heat    241  reads    228  writes   13  → group 3
	//   slot 104  heat    176  reads    160  writes   16  → group 2
	//   slot   1  heat    175  reads    165  writes   10  → group 3
	//
	// per-group completions in the converged window:
	//   group 0: 14683
	//   group 1: 13851
	//   group 2: 8883
	//   group 3: 9981
}

// Per-key replication for an indivisible hot spot. A celebrity key is
// the one skew slot migration cannot fix — the whole hot spot is a
// single object, and a routing slot is the smallest unit a rebalancer
// can move. Promotion breaks the key→one-group invariant instead: the
// object is copied onto holder groups behind the same switch, the
// front-end round-robins its clean reads across home + holders, and
// every write invalidates the holder copies in its switch traversal
// (Hermes-style) so reads serialize at home until a refresh carries
// the new value back out. Linearizability is preserved throughout;
// only read capacity changes.
//
// The measured version of this story is Figure K:
// `go run ./cmd/harmonia-bench -fig K`.
func ExampleCluster_PromoteKey() {
	c, err := harmonia.New(harmonia.Config{
		Protocol: harmonia.ChainReplication, Replicas: 3, UseHarmonia: true, Groups: 4,
		HotKeys: true, Seed: 17,
	})
	must(err == nil, "%v", err)

	// The celebrity: the single key a Keys:1 load generator hammers.
	const celebrity = "obj00000000"
	cl := c.Client()
	err = cl.Set(celebrity, []byte("v1"))
	must(err == nil, "%v", err)
	home := c.GroupOf(celebrity)

	// Every request for the celebrity lands on one group, however many
	// clients pile on.
	spec := harmonia.LoadSpec{
		Clients: 256, Duration: 10 * time.Millisecond, Warmup: 2 * time.Millisecond,
		WriteRatio: 0.0005, Keys: 1,
	}
	before := c.Run(spec)
	fmt.Printf("celebrity key lives on group %d\n", home)
	fmt.Printf("before promotion: %.2f MQPS, per-group ops %v\n\n",
		before.Throughput/1e6, before.GroupOps)

	// Promote: the controller copies the object to the heaviest other
	// groups on the key's switch and arms read spreading. Holders start
	// stale until the seeding refresh lands.
	err = c.PromoteKey(celebrity)
	must(err == nil && c.HotKeyCount() == 1, "promote: %v", err)
	c.AdvanceTime(time.Millisecond)
	info, _ := c.KeyPromoted(celebrity)
	fmt.Printf("promoted onto holder groups %v (stale copies: %d)\n", info.Holders, info.Stale)

	after := c.Run(spec)
	fmt.Printf("after promotion:  %.2f MQPS (%.1fx), per-group ops %v\n\n",
		after.Throughput/1e6, after.Throughput/before.Throughput, after.GroupOps)

	// A write invalidates every holder copy in its switch traversal;
	// the refresh re-validates them moments later with the new value.
	err = cl.Set(celebrity, []byte("v2"))
	must(err == nil, "%v", err)
	info, _ = c.KeyPromoted(celebrity)
	fmt.Printf("right after a write: %d stale holder copies (reads serialize at home)\n", info.Stale)
	c.AdvanceTime(time.Millisecond)
	info, _ = c.KeyPromoted(celebrity)
	fmt.Printf("after the refresh:   %d stale, write generation %d\n", info.Stale, info.WriteGen)
	if v, ok, _ := cl.Get(celebrity); ok {
		fmt.Printf("spread read returns %q\n\n", v)
	}

	// Demotion collapses the key back to its home group (no read is
	// spread any more); with sustained skew the controller instead
	// promotes and demotes on its own — see Figure K.
	must(c.DemoteKey(celebrity) && c.HotKeyCount() == 0, "demote")
	promotions, demotions := c.HotKeyStats()
	fmt.Printf("demoted: %d promotions, %d demotions over the run\n", promotions, demotions)
	// Output:
	// celebrity key lives on group 2
	// before promotion: 2.06 MQPS, per-group ops [0 0 20628 0]
	//
	// promoted onto holder groups [0 1 3] (stale copies: 0)
	// after promotion:  2.62 MQPS (1.3x), per-group ops [4580 4580 12413 4580]
	//
	// right after a write: 3 stale holder copies (reads serialize at home)
	// after the refresh:   0 stale, write generation 26
	// spread read returns "v2"
	//
	// demoted: 1 promotions, 1 demotions over the run
}

// A heterogeneous topology. One hot 7-replica Harmonia(CR) shard runs
// next to two cold 3-replica NOPaxos shards in a 2-switch rack.
// Capacity weights — derived from each group's calibrated service rate
// — size the slot shards and steer the pinned client pool, so the big
// shard earns roughly half the rack instead of a uniform third. The
// example shows (1) the weighted layout and derived weights, (2) the
// weighted rack beating the same hardware misconfigured as uniform,
// and (3) a slot migrating from the CR shard into a NOPaxos shard —
// the cross-protocol handoff as routine topology maintenance — with
// the history staying linearizable.
func ExampleGroupSpec() {
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
		must(err == nil, "%v", err)
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

	// Phase 3: cross-protocol migration as steady state, verified per
	// group and for the migrated key on its own.
	v := build(false, true)
	cl := v.Client()
	var key string
	for i := 0; ; i++ {
		if key = fmt.Sprintf("user:%04d", i); v.GroupOf(key) == 0 {
			break
		}
	}
	err := cl.Set(key, nil)
	must(err == nil, "%v", err)
	slot := v.SlotOfKey(key)
	err = v.MigrateSlot(slot, 1)
	must(err == nil, "%v", err)
	_, ok, err := cl.Get(key)
	must(err == nil && ok, "migrated key unreadable: %v %v", ok, err)
	fmt.Printf("\nslot %d migrated CR×7 → NOPaxos×3; key %q now served by group %d\n",
		slot, key, v.GroupOf(key))
	res := v.CheckLinearizabilityKey(key)
	must(res.Decided && res.Ok, "key %q: %s", key, res.Reason)
	for g := 0; g < v.Groups(); g++ {
		res := v.CheckLinearizabilityGroup(g)
		must(res.Decided && res.Ok, "group %d: %s", g, res.Reason)
		fmt.Printf("  group %d linearizable: true\n", g)
	}
	// Output:
	// heterogeneous rack:
	//   group 0: CR       ×7  weight=4.76M ops/s  slots=126
	//   group 1: NOPaxos  ×3  weight=2.46M ops/s  slots=65
	//   group 2: NOPaxos  ×3  weight=2.46M ops/s  slots=65
	//
	// uniform misconfigured:   7.61 MOPS (GroupOps [42722 35661 35735])
	// hetero weighted:         8.49 MOPS (GroupOps [59173 34115 34032])
	// speedup: 1.12×
	//
	// slot 62 migrated CR×7 → NOPaxos×3; key "user:0001" now served by group 1
	//   group 0 linearizable: true
	//   group 1 linearizable: true
	//   group 2 linearizable: true
}

// The multi-switch deployment. Four switch front-ends — each an
// independent epoch/lease domain owning a contiguous quarter of the
// routing slots — front eight replica groups. The example shows (1)
// the rack serving a sharded workload through all four switches, (2) a
// slot migrating ACROSS a switch boundary with its data, route, and
// heat accounting, and (3) one switch crashing and being replaced:
// only its shard stalls, only its epoch bumps, and the §5.3 agreement
// bill names only its own groups' replicas. The control-plane flight
// recorder (Events, WriteChromeTrace) keeps the crash and the
// replacement.
func ExampleCluster_RackStats() {
	c, err := harmonia.New(harmonia.Config{
		Protocol: harmonia.ChainReplication, Replicas: 3, UseHarmonia: true, Groups: 8,
		Switches: 4, Seed: 42,
	})
	must(err == nil, "%v", err)

	fmt.Printf("rack: %d switches over %d groups\n", c.Switches(), c.Groups())
	for _, st := range c.RackStats().Switches {
		fmt.Printf("  switch epoch=%d groups=%v slots=%d\n", st.Epoch, st.Groups, st.OwnedSlots)
	}

	// Phase 1: sharded load through every switch domain.
	spec := harmonia.LoadSpec{
		Clients: 256, Duration: 10 * time.Millisecond,
		WriteRatio: 0.05, Keys: 10000, PinGroups: true,
	}
	rep := c.Run(spec)
	fmt.Printf("\nphase 1: healthy rack: %.2f Mops/s aggregate\n", rep.Throughput/1e6)
	for g, ops := range rep.GroupOps {
		fmt.Printf("  group %d (switch %d): %d ops\n", g, c.SwitchOfGroup(g), ops)
	}

	// Phase 2: migrate a slot across a switch boundary. Pick a slot on
	// switch 0 and send it to a group hosted on switch 3.
	cl := c.Client()
	key := "cross-switch-demo"
	for i := 0; c.SwitchOf(c.SlotOfKey(key)) != 0; i++ {
		key = fmt.Sprintf("cross-switch-demo-%d", i)
	}
	slot := c.SlotOfKey(key)
	err = cl.Set(key, []byte("travels"))
	must(err == nil, "%v", err)
	dst := c.RackStats().Switches[3].Groups[0]
	fmt.Printf("\nphase 2: migrating slot %d: switch %d group %d -> switch %d group %d\n",
		slot, c.SwitchOf(slot), c.SlotTable()[slot], 3, dst)
	err = c.MigrateSlots([]int{slot}, dst)
	must(err == nil, "%v", err)
	v, ok, err := cl.Get(key)
	must(err == nil && ok, "key lost in cross-switch migration: %v %v", ok, err)
	fmt.Printf("  slot now on switch %d, group %d; value %q intact\n",
		c.SwitchOf(slot), c.SlotTable()[slot], v)

	// Phase 3: crash switch 1 and keep the load running — only its
	// quarter of the slot space stalls. Then replace it and read the
	// agreement bill.
	err = c.CrashSwitch(1)
	must(err == nil, "%v", err)
	rep = c.Run(spec)
	fmt.Printf("\nphase 3: switch 1 crashed: %.2f Mops/s aggregate (its groups stall, rest serve)\n",
		rep.Throughput/1e6)
	for g, ops := range rep.GroupOps {
		fmt.Printf("  group %d (switch %d): %d ops\n", g, c.SwitchOfGroup(g), ops)
	}

	err = c.ReactivateSwitch(1)
	must(err == nil, "%v", err)
	c.AdvanceTime(15 * time.Millisecond)
	fmt.Println("\nafter replacement:")
	for s, st := range c.RackStats().Switches {
		fmt.Printf("  switch %d: epoch=%d replacements=%d agreement msgs=%d (acks=%d) latency=%v stalled ops=%d\n",
			s, st.Epoch, st.Replacements, st.AgreementMsgs, st.AgreementAcks,
			st.LastAgreementLatency, st.StalledOps)
	}
	fmt.Println("\nonly switch 1's epoch advanced; its agreement bill is one revoke+ack")
	fmt.Println("per live replica of ITS two groups — the rack's size never enters it.")

	var kinds []string
	for _, e := range c.Events() {
		kinds = append(kinds, e.Kind.String())
	}
	must(slices.Contains(kinds, "switch-crash") && slices.Contains(kinds, "switch-reactivate") &&
		c.DroppedEvents() == 0, "flight recorder: %v", kinds)
	var chrome bytes.Buffer
	err = c.WriteChromeTrace(&chrome)
	must(err == nil && json.Valid(chrome.Bytes()), "chrome trace: %v", err)
	// Output:
	// rack: 4 switches over 8 groups
	//   switch epoch=1 groups=[0 1] slots=64
	//   switch epoch=1 groups=[2 3] slots=64
	//   switch epoch=1 groups=[4 5] slots=64
	//   switch epoch=1 groups=[6 7] slots=64
	//
	// phase 1: healthy rack: 8.44 Mops/s aggregate
	//   group 0 (switch 0): 10553 ops
	//   group 1 (switch 0): 10574 ops
	//   group 2 (switch 1): 10534 ops
	//   group 3 (switch 1): 10559 ops
	//   group 4 (switch 2): 10594 ops
	//   group 5 (switch 2): 10512 ops
	//   group 6 (switch 3): 10559 ops
	//   group 7 (switch 3): 10539 ops
	//
	// phase 2: migrating slot 28: switch 0 group 0 -> switch 3 group 6
	//   slot now on switch 3, group 6; value "travels" intact
	//
	// phase 3: switch 1 crashed: 6.33 Mops/s aggregate (its groups stall, rest serve)
	//   group 0 (switch 0): 10545 ops
	//   group 1 (switch 0): 10558 ops
	//   group 2 (switch 1): 0 ops
	//   group 3 (switch 1): 0 ops
	//   group 4 (switch 2): 10547 ops
	//   group 5 (switch 2): 10568 ops
	//   group 6 (switch 3): 10536 ops
	//   group 7 (switch 3): 10545 ops
	//
	// after replacement:
	//   switch 0: epoch=1 replacements=0 agreement msgs=0 (acks=0) latency=0s stalled ops=0
	//   switch 1: epoch=2 replacements=1 agreement msgs=12 (acks=6) latency=12µs stalled ops=64
	//   switch 2: epoch=1 replacements=0 agreement msgs=0 (acks=0) latency=0s stalled ops=0
	//   switch 3: epoch=1 replacements=0 agreement msgs=0 (acks=0) latency=0s stalled ops=0
	//
	// only switch 1's epoch advanced; its agreement bill is one revoke+ack
	// per live replica of ITS two groups — the rack's size never enters it.
}

// The §9.6 / Fig. 10 scenario. A mixed workload runs while the
// Harmonia switch is stopped and then reactivated with a new epoch and
// empty register state. Throughput drops to zero, recovers to the
// no-Harmonia level once the replacement switch forwards traffic, and
// returns to the full level after the first WRITE-COMPLETION of the
// new epoch re-enables single-replica reads. The recorded history is
// then checked for linearizability across the whole incident.
//
// The second half replays the incident on a multi-switch rack: there,
// rebooting one switch stalls only its own slot shard — the other
// switches' slots keep serving fast single-replica reads throughout,
// because each switch is its own epoch/lease domain and the §5.3
// agreement only touches the replaced switch's groups.
func ExampleCluster_ReactivateSwitch() {
	printSeries := func(r harmonia.Report) {
		for _, p := range r.Series {
			bar := min(int(p.Rate/20000), 60)
			fmt.Printf("  t+%5v %8.0f ops/s %s\n", p.Start, p.Rate, strings.Repeat("*", bar))
		}
		fmt.Printf("  total: %d ops, %d retries\n", r.Ops, r.Retries)
	}

	fmt.Println("=== single-switch rack: the §9.6 incident ===")
	c, err := harmonia.New(harmonia.Config{
		Protocol: harmonia.ChainReplication, Replicas: 3, UseHarmonia: true,
		RecordHistory: true, Seed: 7,
	})
	must(err == nil, "%v", err)

	// The incident timeline is a compressed version of the paper's
	// 20s-stop / 25s-reactivate experiment. The public API injects
	// failures between runs, so the run splits into phases around it.
	spec := func(d time.Duration) harmonia.LoadSpec {
		return harmonia.LoadSpec{
			Clients: 6, Duration: d, WriteRatio: 0.2, Keys: 64, Bucket: 2 * time.Millisecond,
		}
	}

	fmt.Println("phase 1: healthy (20ms)")
	printSeries(c.Run(spec(20 * time.Millisecond)))

	fmt.Println("phase 2: switch stopped (10ms) — all traffic blackholed")
	c.StopSwitch()
	printSeries(c.Run(spec(10 * time.Millisecond)))

	fmt.Println("phase 3: replacement switch, new epoch (20ms) — recovers")
	err = c.ReactivateSwitch()
	must(err == nil, "%v", err)
	printSeries(c.Run(spec(20 * time.Millisecond)))
	c.AdvanceTime(10 * time.Millisecond)

	st := c.SwitchStats()
	fmt.Printf("\nswitch epoch now %d; fast reads after recovery: %d\n", st.Epoch, st.FastReads)
	res := c.CheckLinearizability()
	must(res.Decided && res.Ok, "history not linearizable: %s", res.Reason)
	fmt.Printf("history of %d operations is linearizable across the failover\n\n", len(c.History()))

	// Reboot ONE switch of a 4-switch rack under the same mixed
	// workload: the other three shards never stop serving — their
	// fast-read counters keep climbing right through the incident — and
	// every group's history stays linearizable.
	fmt.Println("=== multi-switch rack: reboot one of four switches ===")
	c, err = harmonia.New(harmonia.Config{
		Protocol: harmonia.ChainReplication, Replicas: 3, UseHarmonia: true, Groups: 8,
		Switches: 4, RecordHistory: true, Seed: 7,
	})
	must(err == nil, "%v", err)
	rackSpec := harmonia.LoadSpec{
		Clients: 16, Duration: 15 * time.Millisecond,
		WriteRatio: 0.2, Keys: 256, PinGroups: true,
	}
	fastReadsOnHealthySwitches := func() uint64 {
		var n uint64
		for g := 0; g < c.Groups(); g++ {
			if c.SwitchOfGroup(g) != 1 {
				n += c.GroupSwitchStats(g).FastReads
			}
		}
		return n
	}

	r1 := c.Run(rackSpec)
	before := fastReadsOnHealthySwitches()
	fmt.Printf("phase 1: healthy: %d ops\n", r1.Ops)

	err = c.CrashSwitch(1)
	must(err == nil, "%v", err)
	r2 := c.Run(rackSpec)
	during := fastReadsOnHealthySwitches()
	fmt.Printf("phase 2: switch 1 down: %d ops — only its quarter of the slots stalls\n", r2.Ops)
	fmt.Printf("         fast reads on the OTHER switches kept flowing: %d -> %d\n", before, during)
	must(during > before, "healthy switches stopped serving fast reads during the reboot")

	err = c.ReactivateSwitch(1)
	must(err == nil, "%v", err)
	r3 := c.Run(rackSpec)
	fmt.Printf("phase 3: switch 1 replaced (epoch %d): %d ops\n",
		c.RackStats().Switches[1].Epoch, r3.Ops)
	sw := c.RackStats().Switches[1]
	fmt.Printf("         agreement: %d msgs (%d acks = live replicas of ITS groups), latency %v\n",
		sw.AgreementMsgs, sw.AgreementAcks, sw.LastAgreementLatency)

	c.AdvanceTime(10 * time.Millisecond)
	for g := 0; g < c.Groups(); g++ {
		res := c.CheckLinearizabilityGroup(g)
		must(res.Decided && res.Ok, "group %d history not linearizable: %s", g, res.Reason)
	}
	fmt.Printf("all %d groups' histories are linearizable across the one-switch reboot\n", c.Groups())
	// Output:
	// === single-switch rack: the §9.6 incident ===
	// phase 1: healthy (20ms)
	//   t+   0s   170000 ops/s ********
	//   t+  2ms   173500 ops/s ********
	//   t+  4ms   168000 ops/s ********
	//   t+  6ms   172500 ops/s ********
	//   t+  8ms   174500 ops/s ********
	//   t+ 10ms   170000 ops/s ********
	//   t+ 12ms   175500 ops/s ********
	//   t+ 14ms   169500 ops/s ********
	//   t+ 16ms   173000 ops/s ********
	//   t+ 18ms   172000 ops/s ********
	//   total: 3437 ops, 0 retries
	// phase 2: switch stopped (10ms) — all traffic blackholed
	//   total: 0 ops, 30 retries
	// phase 3: replacement switch, new epoch (20ms) — recovers
	//   t+  2ms   170500 ops/s ********
	//   t+  4ms   175500 ops/s ********
	//   t+  6ms   172500 ops/s ********
	//   t+  8ms   165500 ops/s ********
	//   t+ 10ms   173000 ops/s ********
	//   t+ 12ms   168000 ops/s ********
	//   t+ 14ms   175000 ops/s ********
	//   t+ 16ms   168000 ops/s ********
	//   t+ 18ms   168000 ops/s ********
	//   total: 3072 ops, 6 retries
	//
	// switch epoch now 2; fast reads after recovery: 2388
	// history of 6527 operations is linearizable across the failover
	//
	// === multi-switch rack: reboot one of four switches ===
	// phase 1: healthy: 6856 ops
	// phase 2: switch 1 down: 5151 ops — only its quarter of the slots stalls
	//          fast reads on the OTHER switches kept flowing: 4054 -> 8153
	// phase 3: switch 1 replaced (epoch 2): 6670 ops
	//          agreement: 12 msgs (6 acks = live replicas of ITS groups), latency 12µs
	// all 8 groups' histories are linearizable across the one-switch reboot
}

// Elastic membership: the rack's topology as a live object. A
// two-switch rack of four chain groups grows to six under way
// (AddGroup seeds each newcomer a weight-fair, heat-aware slot share),
// re-specs a live group from 3-replica chain to 5-replica VR without
// moving a slot, retires a group (its slots, objects, and at-most-once
// client tables evacuate to the survivors), and finally recovers a
// permanently dead switch's entire shard from the victims' replica
// stores. Every value written at the start reads back at the end.
func ExampleCluster_AddGroup() {
	c, err := harmonia.New(harmonia.Config{
		Protocol: harmonia.ChainReplication, Replicas: 3, UseHarmonia: true, Groups: 4,
		Switches: 2, Seed: 7,
	})
	must(err == nil, "%v", err)
	cl := c.Client()
	key := func(i int) string { return fmt.Sprintf("user%04d", i) }
	// load measures a short closed-loop window.
	load := func() float64 {
		rep := c.Run(harmonia.LoadSpec{
			Clients: 64 * len(c.LiveGroups()), Duration: 10 * time.Millisecond,
			Warmup: 2 * time.Millisecond, WriteRatio: 0.05, Keys: 10000,
		})
		return rep.Throughput / 1e6
	}
	// slotShare counts routing slots per live group.
	slotShare := func() map[int]int {
		share := map[int]int{}
		for _, g := range c.SlotTable() {
			share[g]++
		}
		return share
	}

	const n = 200
	for i := 0; i < n; i++ {
		err := cl.Set(key(i), []byte(fmt.Sprintf("v%d", i)))
		must(err == nil, "%v", err)
	}
	fmt.Printf("boot: groups=%v epoch=%d\n", c.LiveGroups(), c.TopologyEpoch())
	fmt.Printf("baseline: %.2f MRPS\n\n", load())

	// Scale out: two new groups, seeded online from the hottest donors.
	for i := 0; i < 2; i++ {
		g, err := c.AddGroup(harmonia.GroupSpec{Protocol: harmonia.ChainReplication})
		must(err == nil, "%v", err)
		fmt.Printf("AddGroup -> group %d (switch %d), epoch=%d, slots=%v\n",
			g, c.SwitchOfGroup(g), c.TopologyEpoch(), slotShare())
	}
	fmt.Printf("after scale-out: %.2f MRPS\n\n", load())

	// Respec: group 1 becomes a 5-replica VR group in place — same ID,
	// same slots, fresh member set, sequence space continued.
	err = c.RespecGroup(1, harmonia.GroupSpec{
		Protocol: harmonia.ViewstampedReplication, Replicas: 5,
	})
	must(err == nil, "%v", err)
	fmt.Printf("RespecGroup(1): now %v\n", c.GroupSpecs()[1])

	// Scale in: group 2 retires; its slots and client tables land on
	// the survivors by capacity weight. The ID is never reused.
	err = c.RemoveGroup(2)
	must(err == nil && !c.GroupLive(2), "RemoveGroup(2): %v", err)
	fmt.Printf("RemoveGroup(2): groups=%v epoch=%d slots=%v\n\n",
		c.LiveGroups(), c.TopologyEpoch(), slotShare())

	// A switch dies for good. Recover its whole shard from the victim
	// groups' replica stores onto the survivors.
	err = c.CrashSwitch(1)
	must(err == nil, "%v", err)
	err = c.ReassignDeadSwitch(1)
	must(err == nil, "%v", err)
	fmt.Printf("ReassignDeadSwitch(1): groups=%v epoch=%d\n", c.LiveGroups(), c.TopologyEpoch())

	for i := 0; i < n; i++ {
		v, ok, err := cl.Get(key(i))
		must(err == nil && ok && string(v) == fmt.Sprintf("v%d", i),
			"lost %s after the full elastic lifecycle: %q %v %v", key(i), v, ok, err)
	}
	fmt.Printf("all %d values survived scale-out, respec, retirement, and switch death\n", n)
	// Output:
	// boot: groups=[0 1 2 3] epoch=1
	// baseline: 7.99 MRPS
	//
	// AddGroup -> group 4 (switch 1), epoch=2, slots=map[0:52 1:51 2:51 3:51 4:51]
	// AddGroup -> group 5 (switch 0), epoch=3, slots=map[0:43 1:43 2:43 3:43 4:42 5:42]
	// after scale-out: 11.88 MRPS
	//
	// RespecGroup(1): now {VR 5 3.717385748472387e+06}
	// RemoveGroup(2): groups=[0 1 3 4 5] epoch=5 slots=map[0:51 1:54 3:51 4:50 5:50]
	//
	// ReassignDeadSwitch(1): groups=[0 1 5] epoch=7
	// all 200 values survived scale-out, respec, retirement, and switch death
}
