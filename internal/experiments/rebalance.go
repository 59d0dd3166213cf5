package experiments

import (
	"time"

	"harmonia/internal/cluster"
	"harmonia/internal/simnet"
	"harmonia/internal/workload"
)

// RebalanceResult is the measured outcome of the Fig R experiment,
// exposed so its test can hold the acceptance criteria against real
// numbers rather than curve shapes.
type RebalanceResult struct {
	HotGroup   int   // group the hot slots were pinned to
	MovedSlots []int // slots migrated away in the rebalance
	Dests      []int // destination group per moved slot

	PreThroughput  float64 // ops/s at the pinned hot-spot plateau
	PostThroughput float64 // ops/s after the rebalance

	// RouteAgrees reports that after the rebalance every migrated key
	// was observably served by the group its slot routes to (the reply
	// group stamped by the switch matched the slot table).
	RouteAgrees bool
}

// figRKeys is the Fig R key-space size. Small enough that the zipf
// head carries most of the traffic, so pinning it on one group makes a
// textbook hot shard.
const figRKeys = 64

// hotSlots returns the routing slots of the hottest zipf ranks of the
// Fig R key space, deduplicated in rank order.
func hotSlots(c *cluster.Cluster, ranks int) []int {
	seen := make(map[int]bool)
	var out []int
	for r := 0; r < ranks; r++ {
		key := workload.KeyName(workload.ZipfKeyOfRank(figRKeys, r))
		s := c.SlotOfKey(key)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// FigR is the online group-rebalancing experiment: a zipf hot spot is
// pinned onto one replica group (by migrating the hottest keys' slots
// there), the closed-loop aggregate collapses onto the hot shard, and
// then the rebalancer migrates those slots away — live, mid-run, under
// 1% packet drops — spreading them over the other groups. The series
// shows the aggregate completion rate over time with the rebalance at
// the half-way mark; the companion FigRDetail numbers carry the
// acceptance criteria.
func FigR(s Scale) []Series {
	series, _ := FigRDetail(s)
	return series
}

// FigRDetail runs Fig R and returns both the plotted series and the
// measured result.
func FigRDetail(s Scale) ([]Series, RebalanceResult) {
	window := s.win(20 * time.Millisecond)
	var res RebalanceResult
	res.HotGroup = 0

	// The cluster runs clean links at the plateaus — the closed loop
	// must measure server capacity, not retry stalls — and turns 1%
	// drops on for the migration window (below).
	c := cluster.New(cluster.Config{
		Protocol: cluster.Chain, Replicas: 3, UseHarmonia: true,
		Groups: 4, Seed: 47,
	})

	// Pin the hot spot: move the hottest ranks' slots onto one group.
	slots := hotSlots(c, 12)
	for _, slot := range slots {
		if err := c.MigrateSlot(slot, res.HotGroup); err != nil {
			panic("experiments: pinning migration failed: " + err.Error())
		}
	}

	spec := cluster.LoadSpec{
		Mode: cluster.Closed, Clients: 256, Duration: window, Warmup: warmup,
		WriteRatio: 0.05, Keys: figRKeys, Dist: cluster.Zipf09,
	}

	// Phase 1: the hot-spot plateau.
	pre := c.RunLoad(spec)
	res.PreThroughput = pre.Throughput

	// Phase 2: rebalance mid-run under 1% drops. The replica↔switch
	// links (fast reads, replies, the completions the drain depends
	// on) go lossy for the whole migration window, and the hottest
	// slots spread round-robin over the other three groups while the
	// load keeps running.
	setDrops := func(p float64) {
		lossy := simnet.LinkConfig{Latency: 5 * time.Microsecond, DropProb: p}
		for g := 0; g < c.Groups(); g++ {
			for i := 0; i < 3; i++ {
				c.Network().SetLinkBoth(c.GroupReplicaAddr(g, i), c.SwitchAddrOf(0), lossy)
			}
		}
	}
	res.MovedSlots = slots
	moves := make([]cluster.Step, len(slots))
	for i, slot := range slots {
		moves[i] = cluster.Step{At: warmup + window/4, Do: cluster.Migrate{Slots: []int{slot}, To: 1 + i%3}}
	}
	setDrops(0.01)
	mid := spec
	mid.Bucket = window / 25
	p := c.Play(cluster.Script{Loads: []cluster.LoadSpec{mid}, Steps: moves})
	if err := p.Err(); err != nil {
		panic("experiments: rebalance migration failed: " + err.Error())
	}
	for _, m := range p.Migrations {
		res.Dests = append(res.Dests, m.To)
	}
	setDrops(0)

	// Phase 3: the recovered plateau.
	post := c.RunLoad(spec)
	res.PostThroughput = post.Throughput

	// Route agreement: every migrated key is now served by the group
	// its slot routes to, observed via the reply's group stamp.
	res.RouteAgrees = len(p.Migrations) == len(slots)
	for _, m := range p.Migrations {
		if !m.Done() {
			res.RouteAgrees = false
		}
	}
	table := c.SlotTable()
	cl := c.NewSyncClient()
	for r := 0; r < 12 && res.RouteAgrees; r++ {
		key := workload.KeyName(workload.ZipfKeyOfRank(figRKeys, r))
		if _, _, err := cl.Get(key); err != nil {
			res.RouteAgrees = false
			break
		}
		if cl.LastGroup() != table[c.SlotOfKey(key)] {
			res.RouteAgrees = false
		}
	}

	return []Series{
		{Name: "Harmonia(CR) 4 groups, hot spot rebalanced", Points: rates(p.Reports[0])},
		{Name: "pre-rebalance plateau", Points: []Point{{X: 0, Y: res.PreThroughput / 1e6}}},
		{Name: "post-rebalance plateau", Points: []Point{{X: 0, Y: res.PostThroughput / 1e6}}},
	}, res
}
