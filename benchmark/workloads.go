package main

import (
	"fmt"
	"time"

	"harmonia/internal/cluster"
	"harmonia/internal/rebalance"
	wl "harmonia/internal/workload"
)

// stage is one fresh cluster driven through one RunLoads call — the
// unit the benchmark times. Most workloads are one stage; the
// open-loop ladder is one stage per offered rate.
type stage struct {
	cfg   cluster.Config
	keys  int // objects preloaded
	specs []cluster.LoadSpec
	// script arms control-plane and fault events on the cluster's
	// engine before the load starts; at(frac, …) fires at that fraction
	// of the measurement window.
	script func(c *cluster.Cluster, at func(frac float64, what string, do func() error))
	// calm is the share of the window before the script's first step
	// (0: no script, the whole window is calm). The completion series is
	// read against the median bucket of that part.
	calm float64
	// settle is simulated time run after the window; with check set,
	// every group's recorded history is then checked. Both sit inside
	// the timed region.
	settle time.Duration
	check  bool
}

// workload is one named traffic mix. Only cluster.Config and
// cluster.LoadSpec values derived from the seed reach the program.
type workload struct {
	name string
	why  string
	// stages builds one repetition's stages. scale shrinks every
	// simulated window (1 = the benchmark's size; the smoke test uses
	// less).
	stages func(seed int64, scale float64) []stage
	// primary is the stage whose first load group supplies the
	// simulated-rack metrics (throughput, mean, p99, worst bucket).
	primary int
	// ladder marks an open-loop rate ladder: the SLO rate is the
	// highest rung that passes, not the primary stage's throughput.
	ladder bool
	// p99Limit is the workload's latency limit on p99.
	p99Limit time.Duration
	// slice shapes the recorded, linearizability-checked slice of the
	// primary stage (nil: the workload records and checks its own
	// history inside the timed region). The checker gives up on a key
	// with more than 512 operations or too many of them overlapping, so
	// each slice is sized to keep its hottest key well inside that.
	slice func(spec *cluster.LoadSpec)
}

const (
	warmup    = 5 * time.Millisecond
	bucket    = 2 * time.Millisecond
	sloP99    = 250 * time.Microsecond
	sloAnswer = 0.99 // share of offered ops a passing rung must complete
)

// ladderRates are the offered rates of rack_openloop, in ops per
// simulated second. The rack's knee sits between 14 and 16 MRPS.
var ladderRates = []float64{8e6, 11e6, 13e6, 14e6, 15e6, 16e6}

// ladderPrimary indexes the 11 MRPS rung: comfortably below the knee,
// so its latency is a property of the rack and not of the backlog.
const ladderPrimary = 1

// scaledKeys shrinks the key space with the windows, so that a smoke
// run does not pay full-size preloads and generator builds.
func scaledKeys(n int, scale float64) int { return max(int(float64(n)*scale), 1000) }

func scaledWarmup(scale float64) time.Duration {
	return max(time.Duration(float64(warmup)*scale), time.Millisecond)
}

func scaled(d time.Duration, scale float64) time.Duration {
	// Whole buckets, so the completion series has no ragged tail.
	n := time.Duration(float64(d)*scale) / bucket
	return max(n, 2) * bucket
}

var workloads = []workload{
	{
		name: "read_scale",
		why:  "paper Fig 7c: 10-replica chain, 5% writes, uniform keys; switch read scheduling, dirty-set lookup, shim check and store.Get dominate",
		stages: func(seed int64, scale float64) []stage {
			return []stage{{
				cfg:  cluster.Config{Protocol: cluster.Chain, Replicas: 10, UseHarmonia: true, Seed: seed},
				keys: scaledKeys(100000, scale),
				specs: []cluster.LoadSpec{{
					Mode: cluster.Closed, Clients: 512, Duration: scaled(60*time.Millisecond, scale), Warmup: scaledWarmup(scale),
					WriteRatio: 0.05, Keys: scaledKeys(100000, scale), Dist: cluster.Uniform, Bucket: bucket,
				}},
			}}
		},
		p99Limit: time.Millisecond,
		slice:    func(spec *cluster.LoadSpec) { spec.Duration = 10 * time.Millisecond },
	},
	{
		name: "write_quorum",
		why:  "5-replica VR, 50% writes, zipf-0.9: quorum messaging, dirty-set churn, store.Apply, retry timers and a deep leader queue; a read-path gain that taxes writes shows here",
		stages: func(seed int64, scale float64) []stage {
			return []stage{{
				cfg:  cluster.Config{Protocol: cluster.VR, Replicas: 5, UseHarmonia: true, Seed: seed},
				keys: scaledKeys(100000, scale),
				specs: []cluster.LoadSpec{{
					Mode: cluster.Closed, Clients: 256, Duration: scaled(100*time.Millisecond, scale), Warmup: scaledWarmup(scale),
					WriteRatio: 0.5, Keys: scaledKeys(100000, scale), Dist: cluster.Zipf09, Bucket: bucket,
				}},
			}}
		},
		p99Limit: 2 * time.Millisecond,
		// 256 clients keep ~8 operations overlapping on the hottest key
		// at all times, which the checker's search cannot finish.
		slice: func(spec *cluster.LoadSpec) { spec.Clients, spec.Duration = 32, 5*time.Millisecond },
	},
	{
		name: "rack_openloop",
		why:  "4-switch 8-group weighted rack under Poisson arrivals at 6 fixed rates: load generator, front-end routing and a large pending set dominate; latency per rate and the highest rate meeting the limit",
		stages: func(seed int64, scale float64) []stage {
			out := make([]stage, len(ladderRates))
			for i, rate := range ladderRates {
				out[i] = stage{
					cfg:  rackConfig(seed*1000 + int64(i)),
					keys: scaledKeys(100000, scale),
					specs: []cluster.LoadSpec{{
						Mode: cluster.Open, Rate: rate, Duration: scaled(12*time.Millisecond, scale), Warmup: scaledWarmup(scale),
						WriteRatio: 0.05, Keys: scaledKeys(100000, scale), Dist: cluster.Zipf09, PinGroups: true, Bucket: bucket,
					}},
				}
			}
			return out
		},
		primary:  ladderPrimary,
		ladder:   true,
		p99Limit: sloP99,
		slice:    func(spec *cluster.LoadSpec) { spec.Rate, spec.Duration = 4e6, time.Millisecond },
	},
	{
		name: "reconfig_chaos",
		why:  "faults and control plane under load, history checked in the timed region: batch migration, hot-key promote/demote, switch crash and replacement, group add, replica crash, 1% drops",
		stages: func(seed int64, scale float64) []stage {
			return []stage{{
				cfg: cluster.Config{
					Protocol: cluster.Chain, Replicas: 3, UseHarmonia: true, Groups: 4, Switches: 2,
					RecordHistory: true, HotKeys: true,
					// The promoted key is as cold as any other under
					// uniform load; a long cool-down leaves its demotion
					// to the script.
					HotKey: rebalance.HotKeyConfig{CoolRounds: 1 << 20},
					// Drops only: with ReorderProb set, closed-loop clients
					// wedge one by one and throughput decays to a few
					// percent within the window (seen at 0.05 × 20µs, with
					// or without drops), which leaves nothing steady to
					// measure.
					DropProb: 0.01,
					Seed:     seed,
				},
				keys: scaledKeys(50000, scale),
				specs: []cluster.LoadSpec{
					// The sharded pool keeps every group loaded on its own,
					// so a crashed switch takes away its own groups' share
					// and no more: the completion series shows what service
					// the rack retained.
					{
						Mode: cluster.Closed, Clients: 1024, Duration: scaled(120*time.Millisecond, scale), Warmup: scaledWarmup(scale),
						WriteRatio: 0.2, Keys: scaledKeys(50000, scale), Dist: cluster.Uniform, PinGroups: true, Bucket: bucket,
					},
					// Unpinned clients follow keys across every switch, so
					// each of them meets the outage, the frozen slots and
					// the lossy links: retry timers, duplicate suppression
					// and cached replies.
					{Mode: cluster.Closed, Clients: 64, WriteRatio: 0.2, Keys: scaledKeys(50000, scale), Dist: cluster.Uniform},
				},
				script: chaosScript,
				calm:   chaosFirstStep,
				settle: 30 * time.Millisecond,
				check:  true,
			}}
		},
		p99Limit: 5 * time.Millisecond,
	},
}

// rackConfig is the Fig P rack: 4 switches, 8 groups of unequal
// capacity, so weighted shards, the weight-aware arrival draw and the
// multicast write path are all on the measured path.
func rackConfig(seed int64) cluster.Config {
	return cluster.Config{
		UseHarmonia: true, Switches: 4,
		GroupSpecs: []cluster.GroupSpec{
			{Protocol: cluster.Chain, Replicas: 5},
			{Protocol: cluster.Chain, Replicas: 3},
			{Protocol: cluster.NOPaxos, Replicas: 3},
			{Protocol: cluster.Chain, Replicas: 3},
			{Protocol: cluster.Chain, Replicas: 3},
			{Protocol: cluster.NOPaxos, Replicas: 3},
			{Protocol: cluster.Chain, Replicas: 3},
			{Protocol: cluster.Chain, Replicas: 3},
		},
		Seed: seed,
	}
}

// chaosFirstStep is where in the window reconfig_chaos's script
// begins.
const chaosFirstStep = 0.10

// chaosScript is reconfig_chaos's fixed schedule. Every step is a
// public cluster operation in its non-blocking form; an error from any
// of them fails the run.
func chaosScript(c *cluster.Cluster, at func(frac float64, what string, do func() error)) {
	// The promoted key is the first of the key space homed on group 0,
	// whose only same-switch neighbour (and so its holder) is group 1 —
	// away from the migration behind switch 1. Promoting a key of group 2
	// after the batch migration 2→3 below left that key's history
	// non-linearizable on 1 seed in 40 (seed 31; seed 20 at a quarter of
	// the window): a correctness bug for its own issue, which would make
	// this workload fail on seeds nobody has tried.
	var hot string
	for i := 0; hot == ""; i++ {
		if k := wl.KeyName(i); c.GroupOf(k) == 0 {
			hot = k
		}
	}
	at(chaosFirstStep, "StartBatchMigration", func() error {
		// 16 slots of group 2 move to group 3, its neighbour behind
		// switch 1.
		var slots []int
		for slot, g := range c.SlotTable() {
			if g == 2 && len(slots) < 16 {
				slots = append(slots, slot)
			}
		}
		if len(slots) < 16 {
			return fmt.Errorf("group 2 owns %d slots, want 16 to move", len(slots))
		}
		_, err := c.StartBatchMigration(slots, 3)
		return err
	})
	at(0.20, "PromoteKey", func() error { return c.PromoteKey(hot) })
	at(0.30, "DemoteKey", func() error {
		if !c.DemoteKey(hot) {
			return fmt.Errorf("%s was not promoted", hot)
		}
		return nil
	})
	at(0.35, "CrashSwitch", func() error { return c.CrashSwitch(1) })
	at(0.45, "ReactivateSwitch", func() error { return c.ReactivateSwitch(1) })
	// The new group comes after the outage: it takes slots from every
	// group of the rack, and the sharded client pools keep the key lists
	// they started with, so from here on every pool has keys behind both
	// switches and an outage would stall all of them.
	at(0.60, "AddGroup", func() error {
		_, _, err := c.AddGroup(cluster.GroupSpec{Protocol: cluster.Chain, Replicas: 3})
		return err
	})
	at(0.80, "CrashReplicaIn", func() error { return c.CrashReplicaIn(0, 1) })
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
