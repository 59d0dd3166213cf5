package experiments

import (
	"time"

	"harmonia/internal/cluster"
)

// HeteroResult is the measured outcome of the Fig H experiment,
// exposed so its test can hold the acceptance criteria against real
// numbers rather than curve shapes.
type HeteroResult struct {
	// HeteroThroughput is the aggregate of the heterogeneous rack with
	// capacity-weighted shards and a capacity-weighted client router;
	// BaselineThroughput is the SAME hardware misconfigured as uniform
	// (every group treated as an equal — even slot shards, even client
	// split). Speedup is their ratio.
	HeteroThroughput   float64
	BaselineThroughput float64
	Speedup            float64
	// GroupOps is the heterogeneous run's per-group completion count:
	// the big shard visibly carries the capacity-weighted share.
	GroupOps []uint64
	// SlotShare counts the routing slots each group owns at boot under
	// the weighted layout; Weights are the derived capacity weights.
	SlotShare []int
	Weights   []float64
	// Protocols and Replicas describe the rack: ≥2 distinct protocols
	// and ≥2 distinct group sizes make it genuinely heterogeneous.
	Protocols []string
	Replicas  []int
}

// figHSpecs is the heterogeneous rack: one hot 7-replica Harmonia(CR)
// shard in front of two cold 3-replica NOPaxos shards — two protocols,
// two group sizes, one rack.
func figHSpecs() []cluster.GroupSpec {
	return []cluster.GroupSpec{
		{Protocol: cluster.Chain, Replicas: 7},
		{Protocol: cluster.NOPaxos, Replicas: 3},
		{Protocol: cluster.NOPaxos, Replicas: 3},
	}
}

// figHCluster builds the Fig H rack. uniform misconfigures it: the
// same hardware, but every group's capacity weight forced to 1, so the
// slot shards split evenly and the pinned client pool spreads evenly —
// the pre-heterogeneity treatment of a heterogeneous rack.
func figHCluster(uniform bool, seed int64) *cluster.Cluster {
	specs := figHSpecs()
	if uniform {
		for i := range specs {
			specs[i].Weight = 1
		}
	}
	return cluster.New(cluster.Config{
		UseHarmonia: true,
		GroupSpecs:  specs,
		Switches:    2,
		Seed:        seed,
	})
}

// FigH is the heterogeneous-topology experiment: aggregate saturated
// throughput of a capacity-weighted heterogeneous rack against the
// same hardware misconfigured as uniform. The weighted configuration
// routes the 7-replica shard proportionally more clients (and routing
// slots), so the big shard saturates instead of idling while the small
// shards queue.
func FigH(s Scale) []Series {
	series, _ := FigHDetail(s)
	return series
}

// FigHDetail runs Fig H and returns both the plotted series and the
// measured result.
func FigHDetail(s Scale) ([]Series, HeteroResult) {
	window := s.win(20 * time.Millisecond)
	var res HeteroResult

	specs := figHSpecs()
	for _, sp := range specs {
		res.Protocols = append(res.Protocols, sp.Protocol.String())
		res.Replicas = append(res.Replicas, sp.Replicas)
	}

	// The client pool is sized so the uniform split cannot saturate
	// the 7-replica shard while the weighted split can — the regime a
	// real front-end fleet operates in (offered load comparable to
	// rack capacity, not infinitely above it).
	const clients = 288
	spec := cluster.LoadSpec{
		Mode: cluster.Closed, Clients: clients,
		Duration: window, Warmup: warmup,
		WriteRatio: 0.05, Keys: defaultKeys, Dist: cluster.Uniform, PinGroups: true,
	}

	base := figHCluster(true, 301)
	res.BaselineThroughput = base.RunLoad(spec).Throughput

	het := figHCluster(false, 301)
	res.Weights = het.GroupWeights()
	res.SlotShare = make([]int, het.Groups())
	for _, g := range het.SlotTable() {
		res.SlotShare[g]++
	}
	rep := het.RunLoad(spec)
	res.HeteroThroughput = rep.Throughput
	res.GroupOps = rep.GroupOps
	if res.BaselineThroughput > 0 {
		res.Speedup = res.HeteroThroughput / res.BaselineThroughput
	}

	groupPoints := func(ops []uint64, d time.Duration) []Point {
		out := make([]Point, len(ops))
		for g, n := range ops {
			out[g] = Point{X: float64(g), Y: float64(n) / d.Seconds() / 1e6}
		}
		return out
	}
	out := []Series{
		{Name: "uniform misconfigured", Points: []Point{{X: 0, Y: res.BaselineThroughput / 1e6}}},
		{Name: "hetero weighted", Points: []Point{{X: 0, Y: res.HeteroThroughput / 1e6}}},
		{Name: "hetero per-group", Points: groupPoints(res.GroupOps, window)},
	}
	return out, res
}
