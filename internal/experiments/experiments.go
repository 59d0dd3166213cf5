// Package experiments regenerates every figure of the paper's
// evaluation (§9) and the repo-grown figures beside them. Each function
// returns the series its figure plots; cmd/harmonia-bench prints them.
// A timed incident is a cluster.Script the figure plays. Figures only
// measure: a scenario's linearizability under chaos is a cell of the
// chaos matrices in internal/cluster. Scale multiplies every simulated
// measurement window: at Scale 1.0 each window has its base length,
// 15–100 ms of simulated time (Fig 10's 100-second incident compressed
// 1000:1), and smaller scales fit a CI budget.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"harmonia/internal/cluster"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// TraceDir, when set (harmonia-bench -trace dir), makes the figure
// runs that exercise control-plane machinery dump their cluster's
// flight recorder as Chrome trace_event JSON — TRACE_fig<name>.json
// next to the BENCH_fig<name>.json snapshots — so a Fig E or Fig K run
// produces an openable timeline of migrations, rebalancer rounds,
// hot-key lifecycles, and epoch bumps.
var TraceDir string

// maybeDumpTrace writes c's flight recorder to
// TraceDir/TRACE_fig<fig>.json; a dump failure is reported, not fatal
// (the figure data is the product, the trace is a side artifact).
func maybeDumpTrace(fig string, c *cluster.Cluster) {
	if TraceDir == "" {
		return
	}
	if err := os.MkdirAll(TraceDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "trace dump: %v\n", err)
		return
	}
	path := filepath.Join(TraceDir, "TRACE_fig"+fig+".json")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace dump: %v\n", err)
		return
	}
	defer f.Close()
	if err := c.WriteChromeTrace(f); err != nil {
		fmt.Fprintf(os.Stderr, "trace dump %s: %v\n", path, err)
	}
}

// Scale multiplies all measurement windows. Benchmarks use a small
// scale; the CLI defaults to 1.0.
type Scale float64

func (s Scale) win(base time.Duration) time.Duration {
	if s <= 0 {
		s = 1
	}
	d := time.Duration(float64(base) * float64(s))
	if d < 2*time.Millisecond {
		d = 2 * time.Millisecond
	}
	return d
}

const (
	defaultKeys = 100000 // ~1M in the paper; smaller key space, same contention regime
	warmup      = 5 * time.Millisecond
)

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is a named curve.
type Series struct {
	Name   string
	Points []Point
}

// newCluster builds the standard experiment cluster.
func newCluster(p cluster.Protocol, replicas int, useHarmonia bool, seed int64) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Protocol: p, Replicas: replicas, UseHarmonia: useHarmonia, Seed: seed,
	})
}

// rates is a load's completion-rate time series as (ms, MRPS) points;
// nil when the load set no Bucket.
func rates(rep cluster.Report) []Point {
	if rep.Series == nil {
		return nil
	}
	var pts []Point
	for _, p := range rep.Series.Points() {
		pts = append(pts, Point{X: p.Start.Seconds() * 1000, Y: p.Rate / 1e6})
	}
	return pts
}

// saturate measures closed-loop saturation throughput.
func saturate(c *cluster.Cluster, clients int, writeRatio float64, dist cluster.Dist, keys int, window time.Duration) cluster.Report {
	return c.RunLoad(cluster.LoadSpec{
		Mode: cluster.Closed, Clients: clients, Duration: window, Warmup: warmup,
		WriteRatio: writeRatio, Keys: keys, Dist: dist,
	})
}

// Fig5a sweeps an open-loop read-only load and reports latency vs
// achieved throughput for CR and Harmonia(CR), 3 replicas.
func Fig5a(s Scale) []Series {
	return latencyThroughput(s, 0)
}

// Fig5b is the write-only variant: the curves coincide because
// Harmonia leaves the write path untouched.
func Fig5b(s Scale) []Series {
	return latencyThroughput(s, 1)
}

func latencyThroughput(s Scale, writeRatio float64) []Series {
	window := s.win(40 * time.Millisecond)
	out := make([]Series, 2)
	for i, h := range []bool{false, true} {
		name := "CR"
		if h {
			name = "Harmonia"
		}
		// Capacity ceiling: one server read-only ≈ 0.92 MRPS; writes
		// ≈ 0.8; Harmonia reads ≈ 3 servers.
		max := 0.92e6
		if writeRatio == 1 {
			max = 0.80e6
		} else if h {
			max = 3 * 0.92e6
		}
		var pts []Point
		for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.85, 0.95} {
			c := newCluster(cluster.Chain, 3, h, int64(1000*frac)+1)
			rep := c.RunLoad(cluster.LoadSpec{
				Mode: cluster.Open, Rate: frac * max, Duration: window, Warmup: warmup,
				WriteRatio: writeRatio, Keys: defaultKeys,
			})
			pts = append(pts, Point{X: rep.Throughput / 1e6, Y: float64(rep.Latency.Mean()) / float64(time.Millisecond)})
		}
		out[i] = Series{Name: name, Points: pts}
	}
	return out
}

// Fig6a fixes the write rate (open-loop writers) and measures the
// saturated read throughput (closed-loop readers), 3 replicas.
func Fig6a(s Scale) []Series {
	window := s.win(30 * time.Millisecond)
	writeRates := []float64{0.05e6, 0.2e6, 0.4e6, 0.6e6, 0.75e6}
	out := make([]Series, 2)
	for i, h := range []bool{false, true} {
		name := "CR"
		if h {
			name = "Harmonia"
		}
		var pts []Point
		for _, wr := range writeRates {
			c := newCluster(cluster.Chain, 3, h, int64(wr/1000)+7)
			reps := c.RunLoads([]cluster.LoadSpec{
				{Mode: cluster.Closed, Clients: 256, Duration: window, Warmup: warmup,
					WriteRatio: 0, Keys: defaultKeys},
				{Mode: cluster.Open, Rate: wr, Duration: window, Warmup: warmup,
					WriteRatio: 1, Keys: defaultKeys},
			})
			pts = append(pts, Point{X: reps[1].WriteThroughput / 1e6, Y: reps[0].ReadThroughput / 1e6})
		}
		out[i] = Series{Name: name, Points: pts}
	}
	return out
}

// Fig6b sweeps the write ratio and reports total saturated throughput.
func Fig6b(s Scale) []Series {
	window := s.win(30 * time.Millisecond)
	ratios := []float64{0, 0.05, 0.1, 0.25, 0.5, 0.75, 1}
	out := make([]Series, 2)
	for i, h := range []bool{false, true} {
		name := "CR"
		if h {
			name = "Harmonia"
		}
		var pts []Point
		for _, r := range ratios {
			c := newCluster(cluster.Chain, 3, h, int64(r*100)+3)
			rep := saturate(c, 256, r, cluster.Uniform, defaultKeys, window)
			pts = append(pts, Point{X: r * 100, Y: rep.Throughput / 1e6})
		}
		out[i] = Series{Name: name, Points: pts}
	}
	return out
}

// Fig7 sweeps the replica count for a workload mix; used for 7(a)
// read-only, 7(b) write-only, and 7(c) 5% writes.
func Fig7(s Scale, writeRatio float64) []Series {
	window := s.win(25 * time.Millisecond)
	out := make([]Series, 2)
	for i, h := range []bool{false, true} {
		name := "CR"
		if h {
			name = "Harmonia"
		}
		var pts []Point
		for n := 2; n <= 10; n++ {
			c := newCluster(cluster.Chain, n, h, int64(n))
			rep := saturate(c, 96*n, writeRatio, cluster.Uniform, defaultKeys, window)
			pts = append(pts, Point{X: float64(n), Y: rep.Throughput / 1e6})
		}
		out[i] = Series{Name: name, Points: pts}
	}
	return out
}

// Fig8 sweeps the dirty-set hash-table size under uniform and
// zipf-0.9 workloads with 5% writes, 3 replicas, Harmonia(CR). Small
// tables drop colliding writes (retries throttle clients), and the
// skewed workload suffers longer because hot keys pin slots.
func Fig8(s Scale) []Series {
	window := s.win(25 * time.Millisecond)
	slots := []int{4, 16, 64, 256, 1024, 4096, 65536}
	out := make([]Series, 2)
	for i, dist := range []cluster.Dist{cluster.Uniform, cluster.Zipf09} {
		name := "uniform"
		if dist == cluster.Zipf09 {
			name = "zipf-0.9"
		}
		var pts []Point
		for _, m := range slots {
			c := cluster.New(cluster.Config{
				Protocol: cluster.Chain, Replicas: 3, UseHarmonia: true,
				Stages: 1, SlotsPerStage: m, Seed: int64(m) + 11,
			})
			rep := saturate(c, 256, 0.05, dist, defaultKeys, window)
			pts = append(pts, Point{X: float64(m), Y: rep.Throughput / 1e6})
		}
		out[i] = Series{Name: name, Points: pts}
	}
	return out
}

// Fig9 reproduces the generality study: read throughput as a function
// of the write rate for a protocol family, each protocol ± Harmonia.
// family "pb" covers PB/CR/CRAQ (Fig. 9a); "quorum" covers VR/NOPaxos
// (Fig. 9b).
func Fig9(s Scale, family string) []Series {
	window := s.win(25 * time.Millisecond)
	type sys struct {
		name string
		p    cluster.Protocol
		h    bool
	}
	var systems []sys
	switch family {
	case "pb":
		systems = []sys{
			{"PB", cluster.PB, false},
			{"CR", cluster.Chain, false},
			{"CRAQ", cluster.CRAQ, false},
			{"Harmonia(PB)", cluster.PB, true},
			{"Harmonia(CR)", cluster.Chain, true},
		}
	case "quorum":
		systems = []sys{
			{"VR", cluster.VR, false},
			{"NOPaxos", cluster.NOPaxos, false},
			{"Harmonia(VR)", cluster.VR, true},
			{"Harmonia(NOPaxos)", cluster.NOPaxos, true},
		}
	default:
		panic("experiments: unknown family " + family)
	}
	writeRates := []float64{0.02e6, 0.1e6, 0.25e6, 0.45e6}
	out := make([]Series, 0, len(systems))
	for _, sy := range systems {
		var pts []Point
		for _, wr := range writeRates {
			c := newCluster(sy.p, 3, sy.h, int64(wr/1e4)+int64(sy.p)*17+3)
			reps := c.RunLoads([]cluster.LoadSpec{
				{Mode: cluster.Closed, Clients: 256, Duration: window, Warmup: warmup,
					WriteRatio: 0, Keys: defaultKeys},
				{Mode: cluster.Open, Rate: wr, Duration: window, Warmup: warmup,
					WriteRatio: 1, Keys: defaultKeys},
			})
			pts = append(pts, Point{X: reps[1].WriteThroughput / 1e6, Y: reps[0].ReadThroughput / 1e6})
		}
		out = append(out, Series{Name: sy.name, Points: pts})
	}
	return out
}

// Fig10 runs the switch stop/reactivate incident and returns the
// throughput time series. The paper's 100-second timeline is
// compressed 1000:1 (seconds → milliseconds): stop at 20ms of a
// 100ms run, reactivate at 30ms.
func Fig10(s Scale) Series {
	total := s.win(100 * time.Millisecond)
	stopAt := total / 5
	reviveAt := total * 3 / 10
	bucket := total / 50
	c := newCluster(cluster.Chain, 3, true, 19)
	p := c.Play(cluster.Script{
		Loads: []cluster.LoadSpec{{
			Mode: cluster.Closed, Clients: 128, Duration: total, Warmup: 0,
			WriteRatio: 0.05, Keys: defaultKeys, Bucket: bucket,
		}},
		Steps: []cluster.Step{
			{At: stopAt, Do: cluster.CrashSwitch{S: 0}},
			{At: reviveAt, Do: cluster.ReactivateSwitch{}},
		},
	})
	return Series{Name: "Harmonia (switch stop/reactivate)", Points: rates(p.Reports[0])}
}

// FigS is the sharding experiment (§6.1, beyond the paper's testbed):
// aggregate saturated throughput as the replica-group count grows, one
// switch front-end over N groups of 3 chain replicas, 5% writes,
// zipf-0.9 per shard. The client pool is sharded with the data
// (PinGroups) so each group saturates independently; the second series
// is the ideal N × single-group line for comparison.
func FigS(s Scale) []Series {
	window := s.win(20 * time.Millisecond)
	counts := []int{1, 2, 4, 8}
	var measured, ideal []Point
	base := 0.0
	for _, g := range counts {
		c := cluster.New(cluster.Config{
			Protocol: cluster.Chain, Replicas: 3, UseHarmonia: true,
			Groups: g, Seed: int64(g)*13 + 41,
		})
		rep := c.RunLoad(cluster.LoadSpec{
			Mode: cluster.Closed, Clients: 128 * g, Duration: window, Warmup: warmup,
			WriteRatio: 0.05, Keys: defaultKeys, Dist: cluster.Zipf09, PinGroups: true,
		})
		y := rep.Throughput / 1e6
		if g == 1 {
			base = y
		}
		measured = append(measured, Point{X: float64(g), Y: y})
		ideal = append(ideal, Point{X: float64(g), Y: base * float64(g)})
	}
	return []Series{
		{Name: "Harmonia(CR) sharded", Points: measured},
		{Name: "ideal linear", Points: ideal},
	}
}

// AblationEagerCompletions compares VR's delayed write-completions
// (§7.3) with completions released at commit time. Eager completions
// let the commit stamp outrun replicas that have not yet executed, so
// fast-path reads bounce off them back to the leader; the paper delays
// completions precisely "to reduce the number of rejected fast-path
// reads". The reported Y value is the rejected fraction of fast reads
// (percent).
func AblationEagerCompletions(s Scale) []Series {
	window := s.win(25 * time.Millisecond)
	out := make([]Series, 2)
	for i, eager := range []bool{false, true} {
		name := "delayed (paper §7.3)"
		if eager {
			name = "eager (ablation)"
		}
		// Jitter matters here: with perfectly FIFO symmetric links a
		// commit notice always reaches a replica before any read
		// stamped after it, so the race §7.3 worries about needs the
		// delay variance real networks have.
		c := cluster.New(cluster.Config{
			Protocol: cluster.VR, Replicas: 3, UseHarmonia: true,
			EagerCompletions: eager, Seed: 23,
			LinkJitter: 30 * time.Microsecond,
		})
		_ = saturate(c, 256, 0.05, cluster.Uniform, defaultKeys, window)
		served, rejected, _ := c.ShimStats()
		frac := 0.0
		if served+rejected > 0 {
			frac = 100 * float64(rejected) / float64(served+rejected)
		}
		out[i] = Series{Name: name, Points: []Point{{X: 0, Y: frac}}}
	}
	return out
}

// AblationLazyCleanup measures throughput with and without §5.2's
// stray-entry reclamation while write-completions are being dropped on
// the replica→switch reply path (targeted loss: read traffic is
// untouched). Without reclamation, stray dirty-set entries accumulate,
// reads of those objects are forced onto the tail forever, and the
// table eventually fills and drops writes.
func AblationLazyCleanup(s Scale) []Series {
	window := s.win(25 * time.Millisecond)
	dropCompletions := func(msg simnet.Message) bool {
		pkt, ok := msg.(*wire.Packet)
		return ok && (pkt.Op == wire.OpWriteReply || pkt.Op == wire.OpWriteCompletion)
	}
	out := make([]Series, 2)
	for i, disabled := range []bool{false, true} {
		name := "lazy cleanup on"
		if disabled {
			name = "lazy cleanup off (ablation)"
		}
		c := cluster.New(cluster.Config{
			Protocol: cluster.Chain, Replicas: 3, UseHarmonia: true,
			DisableLazyCleanup: disabled, Seed: 29,
			Stages: 1, SlotsPerStage: 512,
		})
		for r := 0; r < 3; r++ {
			c.Network().SetLink(c.GroupReplicaAddr(0, r), c.SwitchAddrOf(0), simnet.LinkConfig{
				Latency: 5 * time.Microsecond, DropProb: 0.3, DropFilter: dropCompletions,
			})
		}
		rep := saturate(c, 128, 0.05, cluster.Uniform, 2000, window)
		out[i] = Series{Name: name, Points: []Point{{X: 0, Y: rep.Throughput / 1e6}}}
	}
	return out
}

// AblationStages compares 1 stage × M slots against 3 stages × M/3
// slots at equal memory under a skewed workload: multi-stage tables
// resolve collisions that a single stage cannot.
func AblationStages(s Scale) []Series {
	window := s.win(25 * time.Millisecond)
	const total = 48
	cfgs := []struct {
		name          string
		stages, slots int
	}{
		{"1 stage × 48", 1, total},
		{"3 stages × 16", 3, total / 3},
	}
	out := make([]Series, len(cfgs))
	for i, cf := range cfgs {
		c := cluster.New(cluster.Config{
			Protocol: cluster.Chain, Replicas: 3, UseHarmonia: true,
			Stages: cf.stages, SlotsPerStage: cf.slots, Seed: 31,
		})
		rep := saturate(c, 128, 0.3, cluster.Zipf09, 2000, window)
		drops := c.GroupScheduler(0).Stats.WritesDropped
		out[i] = Series{Name: fmt.Sprintf("%s (drops=%d)", cf.name, drops),
			Points: []Point{{X: 0, Y: rep.Throughput / 1e6}}}
	}
	return out
}
