package experiments

import (
	"time"

	"harmonia/internal/cluster"
	"harmonia/internal/rebalance"
)

// AutoRebalanceResult is the measured outcome of the Fig A experiment,
// exposed so its test can hold the acceptance criteria against real
// numbers rather than curve shapes.
type AutoRebalanceResult struct {
	// StaticThroughput is the aggregate ops/s with the skewed
	// placement left alone (the baseline the rebalancer must beat).
	StaticThroughput float64
	// AutoThroughput is the aggregate ops/s after the rebalancer's
	// convergence window, measured over a fresh plateau.
	AutoThroughput float64
	// Rebalances counts the slot moves the control loop completed —
	// they must exist (the loop actually acted) for the comparison to
	// mean anything.
	Rebalances uint64
	// UniformRebalances counts moves on a uniform workload with the
	// same policy: the hysteresis guard — it must stay zero.
	UniformRebalances uint64
}

// figAKeys matches Fig R's key space: small enough that the zipf head
// carries most of the traffic, so placement decides the aggregate.
const figAKeys = 64

// figAPolicy is the control-loop tuning the experiment uses: the
// package defaults, restated so the experiment is explicit about what
// the loop knows — thresholds and costs only, never which slots are
// hot.
func figAPolicy() rebalance.Config {
	return rebalance.Config{Threshold: 1.5, Hysteresis: 0.25, Interval: time.Millisecond, MaxSlotsPerRound: 8}
}

// figACluster builds the experiment cluster with the skewed placement:
// the 12 hottest zipf ranks' slots all pinned onto group 0 — the
// textbook hot shard a workload shift leaves behind. The rebalancer,
// when enabled, is NOT told any of this: it sees only the switch's
// heat registers.
func figACluster(auto bool, seed int64) *cluster.Cluster {
	c := cluster.New(cluster.Config{
		Protocol: cluster.Chain, Replicas: 3, UseHarmonia: true,
		Groups: 4, Seed: seed, AutoRebalance: auto, Rebalance: figAPolicy(),
	})
	if err := c.MigrateSlots(hotSlots(c, 12), 0); err != nil {
		panic("experiments: pinning migration failed: " + err.Error())
	}
	return c
}

// FigA is the autonomous-rebalancing experiment: an unpinned zipf-1.2
// workload lands on a cluster whose hot slots all sit on one group
// (the placement a workload shift leaves behind), and the control loop
// — fed only by the switch's per-slot heat counters — detects the
// imbalance and spreads the hot slots out, converging the aggregate
// toward the pinned-optimal placement Fig R reaches with offline zipf
// knowledge. The series shows the auto run's completion rate over time
// next to the static baseline plateau.
func FigA(s Scale) []Series {
	series, _ := FigADetail(s)
	return series
}

// FigADetail runs Fig A and returns both the plotted series and the
// measured result.
func FigADetail(s Scale) ([]Series, AutoRebalanceResult) {
	window := s.win(20 * time.Millisecond)
	var res AutoRebalanceResult

	spec := cluster.LoadSpec{
		Mode: cluster.Closed, Clients: 256, Duration: window, Warmup: warmup,
		WriteRatio: 0.05, Keys: figAKeys, Dist: cluster.Zipf12,
	}

	// Baseline: the skewed placement left alone.
	static := figACluster(false, 61)
	res.StaticThroughput = static.RunLoad(spec).Throughput

	// The rebalancer run: one convergence window while the loop finds
	// and spreads the hot slots (plotted as a time series), then a
	// fresh plateau for the converged number.
	auto := figACluster(true, 61)
	converge := spec
	converge.Bucket = window / 25
	convRep := auto.RunLoad(converge)
	post := auto.RunLoad(spec)
	res.AutoThroughput = post.Throughput
	res.Rebalances = auto.Rebalances()

	// Hysteresis guard: the same loop over a uniform workload must
	// make no moves (imbalance never crosses the threshold). A larger
	// key space keeps shot noise well inside the band.
	uni := cluster.New(cluster.Config{
		Protocol: cluster.Chain, Replicas: 3, UseHarmonia: true,
		Groups: 4, Seed: 67, AutoRebalance: true, Rebalance: figAPolicy(),
	})
	uniSpec := spec
	uniSpec.Dist = cluster.Uniform
	uniSpec.Keys = 4096
	uni.RunLoad(uniSpec)
	res.UniformRebalances = uni.Rebalances()

	return []Series{
		{Name: "Harmonia(CR) 4 groups, auto-rebalance", Points: rates(convRep)},
		{Name: "static placement baseline", Points: []Point{{X: 0, Y: res.StaticThroughput / 1e6}}},
		{Name: "auto-rebalanced plateau", Points: []Point{{X: 0, Y: res.AutoThroughput / 1e6}}},
	}, res
}
