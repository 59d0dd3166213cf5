package experiments

import (
	"time"

	"harmonia/internal/cluster"
	"harmonia/internal/wire"
	"harmonia/internal/workload"
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
	// CrossMigrated reports that a cross-switch MigrateSlots completed
	// under 1% packet drops; DestHeatPickup that the destination
	// front-end's heat registers took over accounting for the moved
	// slots.
	CrossMigrated  bool
	DestHeatPickup bool
	// Linearizable reports the chaos-verify phase: every group's
	// history stayed linearizable through the one-switch crash and
	// replacement under load.
	Linearizable bool
}

// figMGroupsPerSwitch fixes the hardware ratio across the sweep: each
// switch fronts this many 3-replica chain groups.
const figMGroupsPerSwitch = 2

// figMCluster builds one rack of the sweep.
func figMCluster(switches int, seed int64, record bool, dropProb float64) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Protocol: cluster.Chain, Replicas: 3, UseHarmonia: true,
		Groups: figMGroupsPerSwitch * switches, Switches: switches,
		Seed: seed, RecordHistory: record, DropProb: dropProb,
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
		c := figMCluster(sw, int64(sw)*17+101, false, 0)
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
	crash := figMCluster(4, 211, false, 0)
	spec := cluster.LoadSpec{
		Mode: cluster.Closed, Clients: 128 * figMGroupsPerSwitch * 4,
		Duration: window, Warmup: warmup,
		WriteRatio: 0.05, Keys: defaultKeys, Dist: cluster.Uniform, PinGroups: true,
	}
	res.HealthyThroughput = crash.RunLoad(spec).Throughput
	// The settle lets the agreement finish.
	res.CrashThroughput = crash.Play(cluster.Script{
		Loads: []cluster.LoadSpec{spec}, Steps: switchCrash(1, window/4, window*3/5), Settle: 10 * time.Millisecond,
	}).Reports[0].Throughput
	if res.HealthyThroughput > 0 {
		res.CrashRetention = res.CrashThroughput / res.HealthyThroughput
	}
	res.GroupsPerSwitch = figMGroupsPerSwitch
	res.AgreementAcks4 = crash.Rack().Stats(1).AcksReceived

	// Cross-switch migration under 1% drops: move a populated slot
	// from switch 0's shard to a group on switch 3 and check the
	// destination front-end's heat registers pick the slot up.
	res.CrossMigrated, res.DestHeatPickup = figMCrossMigrate(s)

	// Chaos-verify: the one-switch crash + replacement under live load
	// on a recorded cluster small enough for the checker, every group's
	// history slice verified independently.
	res.Linearizable = figMCrashVerify(s)

	out := []Series{
		{Name: "Harmonia(CR) multi-switch rack", Points: measured},
		{Name: "ideal linear", Points: ideal},
		{Name: "4-switch healthy", Points: []Point{{X: 0, Y: res.HealthyThroughput / 1e6}}},
		{Name: "4-switch, 1 crashed+replaced", Points: []Point{{X: 0, Y: res.CrashThroughput / 1e6}}},
	}
	return out, res
}

// figMCrossMigrate runs the lossy cross-switch handoff probe.
func figMCrossMigrate(s Scale) (migrated, heatPickup bool) {
	c := figMCluster(4, 223, false, 0.01)
	cl := c.NewSyncClient()
	// Populate a few keys and find one of their slots on switch 0.
	slot := -1
	var keys []string
	for i := 0; i < 512 && len(keys) < 6; i++ {
		k := workload.KeyName(i)
		sl := wire.SlotOf(wire.HashKey(k))
		if c.SwitchOf(sl) != 0 {
			continue
		}
		if slot == -1 {
			slot = sl
		}
		if sl != slot {
			continue
		}
		if err := cl.Set(k, []byte("m")); err != nil {
			return false, false
		}
		keys = append(keys, k)
	}
	dst := c.Rack().GroupsOf(3)[0]
	if err := c.MigrateSlots([]int{slot}, dst); err != nil {
		return false, false
	}
	for _, k := range keys {
		if v, ok, err := cl.Get(k); err != nil || !ok || string(v) != "m" {
			return false, false
		}
	}
	return true, c.FrontendOf(3).HeatOf(slot).Total() > 0
}

// figMCrashVerify replays the crash window on a recorded cluster and
// checks every group's history slice.
func figMCrashVerify(s Scale) bool {
	window := s.win(16 * time.Millisecond)
	c := figMCluster(4, 227, true, 0)
	// The settle covers retries and the agreement.
	c.Play(cluster.Script{
		Loads: []cluster.LoadSpec{{
			Mode: cluster.Closed, Clients: 16, Duration: window, Warmup: 2 * time.Millisecond,
			WriteRatio: 0.3, Keys: 96, Dist: cluster.Uniform,
		}},
		Steps: switchCrash(2, window/4, window/2), Settle: 15 * time.Millisecond,
	})
	return c.CheckLinearizability().Ok
}

// switchCrash is the steps that crash switch s at crash and replace
// it at revive.
func switchCrash(s int, crash, revive time.Duration) []cluster.Step {
	return []cluster.Step{
		{At: crash, Name: "CrashSwitch", Do: func(c *cluster.Cluster) error { return c.CrashSwitch(s) }},
		{At: revive, Name: "ReactivateSwitch", Do: func(c *cluster.Cluster) error { return c.ReactivateSwitch(s) }},
	}
}
