package experiments

import "testing"

// TestFigAAcceptance holds the autonomous-rebalancing experiment to
// its acceptance criteria: with AutoRebalance on and an unpinned
// zipf-1.2 workload landing on a skewed placement, converged aggregate
// throughput reaches ≥1.5× the static baseline with Rebalances > 0 —
// and the same policy makes no moves on a uniform workload (the
// hysteresis holds). The loop migrating under chaos is the
// TestMigrateChaosMatrix auto cells' job.
func TestFigAAcceptance(t *testing.T) {
	series, res := FigADetail(tiny)
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	if len(series[0].Points) == 0 {
		t.Fatal("empty convergence timeline")
	}
	if res.StaticThroughput <= 0 {
		t.Fatal("no baseline throughput")
	}
	if res.Rebalances == 0 {
		t.Fatal("the control loop never moved a slot")
	}
	ratio := res.AutoThroughput / res.StaticThroughput
	if ratio < 1.5 {
		t.Fatalf("auto-rebalance reached only %.2fx of the static baseline (static %.0f, auto %.0f, %d moves)",
			ratio, res.StaticThroughput, res.AutoThroughput, res.Rebalances)
	}
	if res.UniformRebalances != 0 {
		t.Fatalf("policy moved %d slots on a uniform workload (hysteresis failed)", res.UniformRebalances)
	}
}
