package experiments

import (
	"time"

	"harmonia/internal/cluster"
)

// figPerfCluster builds the Fig P rack: 4 switches, 8 groups with
// deliberately unequal capacity (a 5-replica chain group and two
// NOPaxos multicast groups among plain 3-replica chains), so the
// weighted shards, the weight-aware open-loop draw, and the multicast
// write path are all on the measured path.
func figPerfCluster(seed int64) *cluster.Cluster {
	return cluster.New(cluster.Config{
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
	})
}

// FigPerf is the open-loop latency-vs-throughput sweep on the
// 4-switch weighted rack. What the simulator itself costs on this
// rack — wall time, allocations, spread between runs — is the
// repository benchmark's rack_openloop workload (benchmark/README.md).
func FigPerf(s Scale) []Series {
	window := s.win(15 * time.Millisecond)
	// Offered-rate sweep as fractions of the rack's rough aggregate
	// capacity (8 groups of spread-read chains ≈ 3×0.92 MRPS each at
	// 5% writes; stay below the knee so the open loop doesn't build an
	// unbounded queue at the top point).
	const aggMax = 8 * 3 * 0.92e6
	var meanPts, p99Pts []Point
	for i, frac := range []float64{0.15, 0.3, 0.5, 0.7} {
		c := figPerfCluster(int64(300 + i))
		rep := c.RunLoad(cluster.LoadSpec{
			Mode: cluster.Open, Rate: frac * aggMax, Duration: window,
			Warmup: warmup, WriteRatio: 0.05, Keys: defaultKeys,
			Dist: cluster.Zipf09, PinGroups: true,
		})
		x := rep.Throughput / 1e6
		meanPts = append(meanPts, Point{X: x, Y: float64(rep.Latency.Mean()) / float64(time.Millisecond)})
		p99Pts = append(p99Pts, Point{X: x, Y: float64(rep.Latency.Quantile(0.99)) / float64(time.Millisecond)})
	}
	return []Series{
		{Name: "mean latency", Points: meanPts},
		{Name: "p99 latency", Points: p99Pts},
	}
}
