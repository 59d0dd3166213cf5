package experiments

import (
	"time"

	"harmonia/internal/cluster"
)

// MultiSwitchResult is the measured outcome of the Fig M experiment,
// exposed so its test can hold the acceptance criteria against real
// numbers rather than curve shapes.
type MultiSwitchResult struct {
	// Scaling holds (switches, aggregate MOPS) at a fixed
	// groups-per-switch: the rack-growth curve.
	Scaling []Point
	// Speedup4 is the 4-switch aggregate over the 1-switch baseline
	// (same groups-per-switch, so the rack is 4× the hardware).
	Speedup4 float64
	// HealthyThroughput and CrashThroughput are the 4-switch aggregate
	// before and during a one-switch crash + replacement window;
	// CrashRetention is their ratio — the fraction of the rack that
	// keeps serving while one epoch domain reboots.
	HealthyThroughput float64
	CrashThroughput   float64
	CrashRetention    float64
	// GroupsPerSwitch and AgreementAcks4 pin the controller's
	// replacement cost: the acks for the crashed switch's agreement
	// must equal the live replicas of ITS groups (groups-per-switch ×
	// replicas), independent of rack size.
	GroupsPerSwitch int
	AgreementAcks4  uint64
}

// figMGroupsPerSwitch fixes the hardware ratio across the sweep: each
// switch fronts this many 3-replica chain groups.
const figMGroupsPerSwitch = 2

// figMCluster builds one rack of the sweep.
func figMCluster(switches int, seed int64) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Protocol: cluster.Chain, Replicas: 3, UseHarmonia: true,
		Groups: figMGroupsPerSwitch * switches, Switches: switches, Seed: seed,
	})
}

// FigM is the multi-switch rack experiment: aggregate saturated
// throughput as the switch count grows at a fixed groups-per-switch
// ratio (each front-end an independent epoch/lease domain over its own
// contiguous slot shard), plus the failure economics — crashing one of
// four switches costs only its own shard while the §5.3 replacement
// agreement touches only its own groups.
func FigM(s Scale) []Series {
	series, _ := FigMDetail(s)
	return series
}

// FigMDetail runs Fig M and returns both the plotted series and the
// measured result.
func FigMDetail(s Scale) ([]Series, MultiSwitchResult) {
	window := s.win(20 * time.Millisecond)
	var res MultiSwitchResult

	// Rack-growth sweep: uniform sharded workload, client pool pinned
	// to the data shards so every group saturates independently.
	counts := []int{1, 2, 4}
	var measured, ideal []Point
	base := 0.0
	for _, sw := range counts {
		c := figMCluster(sw, int64(sw)*17+101)
		rep := c.RunLoad(cluster.LoadSpec{
			Mode: cluster.Closed, Clients: 128 * figMGroupsPerSwitch * sw,
			Duration: window, Warmup: warmup,
			WriteRatio: 0.05, Keys: defaultKeys, Dist: cluster.Uniform, PinGroups: true,
		})
		y := rep.Throughput / 1e6
		if sw == 1 {
			base = y
		}
		measured = append(measured, Point{X: float64(sw), Y: y})
		ideal = append(ideal, Point{X: float64(sw), Y: base * float64(sw)})
		if sw == 4 && base > 0 {
			res.Speedup4 = y / base
		}
	}
	res.Scaling = measured

	// Crash economics: a healthy window, then a window during which
	// switch 1 crashes and is replaced — only its shard (1/4 of the
	// slots) stalls, so the aggregate retains roughly the other three
	// domains' share through the epoch handoff.
	crash := figMCluster(4, 211)
	spec := cluster.LoadSpec{
		Mode: cluster.Closed, Clients: 128 * figMGroupsPerSwitch * 4,
		Duration: window, Warmup: warmup,
		WriteRatio: 0.05, Keys: defaultKeys, Dist: cluster.Uniform, PinGroups: true,
	}
	res.HealthyThroughput = crash.RunLoad(spec).Throughput
	// The settle lets the agreement finish.
	res.CrashThroughput = crash.Play(cluster.Script{
		Loads: []cluster.LoadSpec{spec}, Settle: 10 * time.Millisecond, Steps: []cluster.Step{
			{At: window / 4, Do: cluster.CrashSwitch{S: 1}},
			{At: window * 3 / 5, Do: cluster.ReactivateSwitch{Switches: []int{1}}},
		},
	}).Reports[0].Throughput
	if res.HealthyThroughput > 0 {
		res.CrashRetention = res.CrashThroughput / res.HealthyThroughput
	}
	res.GroupsPerSwitch = figMGroupsPerSwitch
	res.AgreementAcks4 = crash.Rack().Stats(1).AcksReceived

	out := []Series{
		{Name: "Harmonia(CR) multi-switch rack", Points: measured},
		{Name: "ideal linear", Points: ideal},
		{Name: "4-switch healthy", Points: []Point{{X: 0, Y: res.HealthyThroughput / 1e6}}},
		{Name: "4-switch, 1 crashed+replaced", Points: []Point{{X: 0, Y: res.CrashThroughput / 1e6}}},
	}
	return out, res
}
