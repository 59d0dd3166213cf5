package experiments

import (
	"time"

	"harmonia/internal/cluster"
	"harmonia/internal/rebalance"
)

// HotKeyResult is the measured outcome of the Fig K experiment, exposed
// so its test can hold the acceptance criteria against real numbers.
type HotKeyResult struct {
	// BaseThroughput is the aggregate rate with the PR 7 machinery only
	// (auto-rebalance, no hot-key replication); HotThroughput the same
	// workload with promotion armed; Speedup their ratio. The headline
	// claim is that replicating the one indivisible key recovers the
	// capacity slot migration cannot, ≥1.5× on this workload.
	BaseThroughput float64
	HotThroughput  float64
	Speedup        float64
	// HotShare is the fraction of all completed operations that touched
	// the single celebrity key in the promoted run (the workload is
	// built to keep this well above the 10% skew the figure targets).
	HotShare float64
	// Promotions counts autonomous promotions in the hot run — the
	// stuck-slot escape must have fired on its own, no hints.
	Promotions uint64
	// Demoted reports the cool-down phase: once the skew stops, the
	// decayed per-key heat must demote the key without intervention.
	Demoted bool
}

// figKCluster builds the Fig K rack: one switch fronting four 3-replica
// chain groups. The fast rebalancer interval keeps the detect→promote
// loop responsive at benchmark timescales; both arms share it so the
// comparison isolates the replication mechanism.
func figKCluster(seed int64, hot bool) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Protocol: cluster.Chain, Replicas: 3, UseHarmonia: true,
		Groups: 4, Seed: seed, AutoRebalance: true, HotKeys: hot,
		Rebalance: rebalance.Config{Interval: 400 * time.Microsecond},
	})
}

// FigK is the hot-key replication experiment: a celebrity-key workload
// (one key drawing a large share of an otherwise zipf-1.2 load) run
// against the auto-rebalancing rack with and without per-key hot
// replication. Batch slot migration cannot split the celebrity's slot —
// the PR 7 baseline saturates its home group — while promotion spreads
// the key's clean reads across all four groups.
func FigK(s Scale) []Series {
	series, _ := FigKDetail(s)
	return series
}

// FigKDetail runs Fig K and returns both the plotted series and the
// measured result.
func FigKDetail(s Scale) ([]Series, HotKeyResult) {
	window := s.win(24 * time.Millisecond)
	var res HotKeyResult

	// The workload: 512 closed-loop clients pinned to the one celebrity
	// key (read-dominant, with enough writes that the invalidate/refresh
	// path stays exercised) over a 1.2 MRPS open-loop zipf-1.2
	// background that keeps every slot's heat register busy. The client
	// count is chosen to push the key's home group deep into queueing —
	// the baseline arm saturates there, so the extra parallelism only
	// pays off when promotion spreads the reads over the other groups.
	specs := func() []cluster.LoadSpec {
		return []cluster.LoadSpec{
			{Mode: cluster.Closed, Clients: 512, Duration: window, Warmup: window / 4,
				WriteRatio: 0.0002, Keys: 1, Dist: cluster.Uniform},
			{Mode: cluster.Open, Rate: 1.2e6, Duration: window, Warmup: window / 4,
				WriteRatio: 0.05, Keys: defaultKeys, Dist: cluster.Zipf12},
		}
	}

	base := figKCluster(53, false)
	baseReps := base.RunLoads(specs())
	res.BaseThroughput = baseReps[0].Throughput + baseReps[1].Throughput

	hot := figKCluster(53, true)
	hotReps := hot.RunLoads(specs())
	res.HotThroughput = hotReps[0].Throughput + hotReps[1].Throughput
	if res.BaseThroughput > 0 {
		res.Speedup = res.HotThroughput / res.BaseThroughput
	}
	if total := hotReps[0].Ops + hotReps[1].Ops; total > 0 {
		res.HotShare = float64(hotReps[0].Ops) / float64(total)
	}
	res.Promotions, _ = hot.HotKeyStats()

	// Cool-down: the load is gone; the rebalancer's decay drains the
	// per-key counters and the lifecycle tick must demote on its own.
	hot.RunFor(40 * time.Millisecond)
	_, demotions := hot.HotKeyStats()
	res.Demoted = hot.HotKeyCount() == 0 && demotions > 0

	// Dumped after the cool-down so the timeline holds the complete
	// lifecycle: promote → invalidate → refresh cycles → demote.
	maybeDumpTrace("K", hot)

	return []Series{
		{Name: "auto-rebalance only (PR 7 baseline)",
			Points: []Point{{X: 0, Y: res.BaseThroughput / 1e6}}},
		{Name: "hot-key replication (promoted)",
			Points: []Point{{X: 0, Y: res.HotThroughput / 1e6}}},
	}, res
}
