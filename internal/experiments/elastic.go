package experiments

import (
	"sort"
	"time"

	"harmonia/internal/cluster"
	"harmonia/internal/wire"
)

// ElasticResult is the measured outcome of the Fig E experiment,
// exposed so its test can hold the acceptance criteria against real
// numbers rather than curve shapes.
type ElasticResult struct {
	// GroupsBefore and GroupsAfter bracket the scale-out: the run
	// starts at 4 live groups and four staggered AddGroups take it
	// to 8, all under open-loop load.
	GroupsBefore, GroupsAfter int
	// BaseThroughput is the median bucket rate of the healthy window
	// before the first AddGroup; DipThroughput the worst bucket during
	// the scale-out; Retention their ratio. The headline claim is that
	// growing the rack costs no more than a switch crash (~10% dip).
	BaseThroughput float64
	DipThroughput  float64
	Retention      float64
	// TopoEpochFinal counts membership revisions: 1 at boot plus one
	// per AddGroup — slot handoffs themselves never bump it.
	TopoEpochFinal uint64
	// ReassignCovered reports the dead-switch phase: after one of two
	// switches dies for good and ReassignDeadSwitch batch-recovers its
	// shard from the victims' replica stores, every slot is owned by a
	// live group on the surviving switch.
	ReassignCovered bool
}

// figECluster builds the Fig E rack: two switches fronting four
// 3-replica chain groups, room to double.
func figECluster(seed int64) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Protocol: cluster.Chain, Replicas: 3, UseHarmonia: true,
		Groups: 4, Switches: 2, Seed: seed,
	})
}

// FigE is the elastic-membership experiment: an open-loop load over a
// 4-group rack while four AddGroups double the rack live (each seeding
// its slot share from the hottest donors via frozen-slot handoff), then
// a permanent one-switch death recovered by ReassignDeadSwitch. The
// plotted series are the two throughput timelines.
func FigE(s Scale) []Series {
	series, _ := FigEDetail(s)
	return series
}

// FigEDetail runs Fig E and returns both the plotted series and the
// measured result.
func FigEDetail(s Scale) ([]Series, ElasticResult) {
	window := s.win(60 * time.Millisecond)
	bucket := window / 40
	var res ElasticResult

	// Phase 1: scale-out. Four AddGroups staggered through the middle
	// of the window, each seeding ~1/(n+1) of the slots while the open
	// loop keeps offering ~4 MRPS against an 11 MRPS 4-group rack.
	load := []cluster.LoadSpec{{
		Mode: cluster.Open, Rate: 4e6, Duration: window, Warmup: 0,
		WriteRatio: 0.05, Keys: defaultKeys, Dist: cluster.Zipf09, Bucket: bucket,
	}}
	c := figECluster(401)
	res.GroupsBefore = len(c.Rack().LiveGroups())
	firstAdd := window * 6 / 20
	var adds []cluster.Step
	for i := 0; i < 4; i++ {
		adds = append(adds, cluster.Step{At: firstAdd + window*time.Duration(2*i)/20, Do: cluster.AddGroup{Spec: cluster.GroupSpec{Protocol: cluster.Chain}}})
	}
	// The settle lets the last seeding handoffs finish.
	rep := c.Play(cluster.Script{Loads: load, Steps: adds, Settle: 30 * time.Millisecond}).Reports[0]
	res.GroupsAfter = len(c.Rack().LiveGroups())
	res.TopoEpochFinal = c.Rack().TopoEpoch()

	var pre, post []float64
	if rep.Series != nil {
		for _, p := range rep.Series.Points() {
			if p.Start+bucket <= firstAdd {
				pre = append(pre, p.Rate)
			} else {
				post = append(post, p.Rate)
			}
		}
	}
	if len(pre) > 1 {
		pre = pre[1:] // the first bucket is ramp-up, not steady state
	}
	if len(pre) > 0 && len(post) > 0 {
		sort.Float64s(pre)
		res.BaseThroughput = pre[len(pre)/2]
		res.DipThroughput = post[0]
		for _, r := range post[1:] {
			if r < res.DipThroughput {
				res.DipThroughput = r
			}
		}
		if res.BaseThroughput > 0 {
			res.Retention = res.DipThroughput / res.BaseThroughput
		}
	}

	// Phase 2: permanent switch death. Half the rack's slots go dark
	// with switch 1; ReassignDeadSwitch rebuilds them on the survivors
	// from the victims' replica stores while the load keeps running.
	c2 := figECluster(417)
	crashAt := window / 3
	rep2 := c2.Play(cluster.Script{Loads: load, Settle: 30 * time.Millisecond, Steps: []cluster.Step{
		{At: crashAt, Do: cluster.CrashSwitch{S: 1}},
		{At: crashAt + window/15, Do: cluster.ReassignSwitch{S: 1}},
	}}).Reports[0]
	// Phase 1's recorder holds the staggered scale-out (topology epoch
	// bumps and seeding migrations); phase 2's holds the switch crash
	// and the reassignment's epoch churn.
	maybeDumpTrace("E", c)
	maybeDumpTrace("E-crash", c2)
	res.ReassignCovered = true
	for slot := 0; slot < wire.NumSlots; slot++ {
		g := c2.Rack().RouteOf(slot)
		if c2.Rack().SwitchOfSlot(slot) != 0 || !c2.Rack().Live(g) {
			res.ReassignCovered = false
			break
		}
	}

	return []Series{
		{Name: "scale-out 4→8 groups", Points: rates(rep)},
		{Name: "dead-switch reassignment", Points: rates(rep2)},
	}, res
}
