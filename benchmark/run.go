package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"harmonia/internal/cluster"
	"harmonia/internal/core"
	"harmonia/internal/sim"
	"harmonia/internal/simnet"
	"harmonia/internal/trace"
)

// Node addresses the cluster assigns but does not export (see "Node
// addressing scheme" in internal/cluster). The counters below need
// every node; windowCounts fails loudly if the layout moves.
const (
	controllerAddr simnet.NodeID = 2
	clientBase     simnet.NodeID = 1 << 20
)

// nodeStat is one node's public counters.
type nodeStat struct {
	delivered uint64
	busy      time.Duration
}

// snapshot reads every public counter the ledger takes deltas of.
type snapshot struct {
	events, sent uint64
	nodes        map[*simnet.Node]nodeStat
}

// replicaNodes lists the current member nodes of every group with the
// worker count their utilization is normalized by.
func replicaNodes(c *cluster.Cluster) (nodes []*simnet.Node, workers []int) {
	for g := 0; g < c.Groups(); g++ {
		spec := c.SpecOf(g)
		for i := 0; i < spec.Replicas; i++ {
			if nd := c.Network().Node(c.GroupReplicaAddr(g, i)); nd != nil {
				nodes = append(nodes, nd)
				workers = append(workers, spec.Workers)
			}
		}
	}
	return nodes, workers
}

// allNodes lists every node of the rack: switches, controller,
// replicas and load-generating clients.
func allNodes(c *cluster.Cluster) []*simnet.Node {
	net := c.Network()
	var out []*simnet.Node
	for s := 0; s < c.Switches(); s++ {
		out = append(out, net.Node(c.SwitchAddrOf(s)))
	}
	out = append(out, net.Node(controllerAddr))
	reps, _ := replicaNodes(c)
	out = append(out, reps...)
	for id := clientBase + 1; ; id++ {
		nd := net.Node(id)
		if nd == nil {
			break
		}
		out = append(out, nd)
	}
	return out
}

func takeSnapshot(c *cluster.Cluster) snapshot {
	s := snapshot{
		events: c.Engine().Processed,
		sent:   c.Network().Sent,
		nodes:  make(map[*simnet.Node]nodeStat),
	}
	for _, nd := range allNodes(c) {
		if nd != nil {
			s.nodes[nd] = nodeStat{nd.Delivered, nd.BusyTime}
		}
	}
	return s
}

// counters are exact counts over one stage's measurement window.
type counters struct {
	ops                 uint64
	events, sent        uint64
	delivered           uint64
	replicaUtilMax      float64
	retries             uint64
	sched               core.Stats
	frozen, stalled     uint64
	shimServed, shimRej uint64
	migrationMaxMs      float64
}

func (a *counters) add(b counters) {
	a.ops += b.ops
	a.events += b.events
	a.sent += b.sent
	a.delivered += b.delivered
	a.replicaUtilMax = math.Max(a.replicaUtilMax, b.replicaUtilMax)
	a.retries += b.retries
	a.addSched(b.sched)
	a.frozen += b.frozen
	a.stalled += b.stalled
	a.shimServed += b.shimServed
	a.shimRej += b.shimRej
	a.migrationMaxMs = math.Max(a.migrationMaxMs, b.migrationMaxMs)
}

// addSched folds in the scheduler counters the ledger reads.
func (a *counters) addSched(s core.Stats) {
	a.sched.Writes += s.Writes
	a.sched.WritesDropped += s.WritesDropped
	a.sched.FastReads += s.FastReads
	a.sched.NormalReads += s.NormalReads
	a.sched.DirtyHits += s.DirtyHits
	a.sched.ForwardedReads += s.ForwardedReads
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// exact lists the per-layer counts that must repeat bit-identically
// for a seed.
func (k counters) exact() map[string]float64 {
	reads := k.sched.FastReads + k.sched.NormalReads
	return map[string]float64{
		"sim.events_per_op":         ratio(k.events, k.ops),
		"simnet.packets_per_op":     ratio(k.sent, k.ops),
		"simnet.dropped_frac":       1 - ratio(k.delivered, k.sent),
		"simnet.replica_util_max":   k.replicaUtilMax,
		"core.fast_read_frac":       ratio(k.sched.FastReads, reads),
		"core.dirty_hit_frac":       ratio(k.sched.DirtyHits, reads),
		"core.forwarded_read_frac":  ratio(k.sched.ForwardedReads, reads),
		"core.writes_dropped_frac":  ratio(k.sched.WritesDropped, k.sched.Writes+k.sched.WritesDropped),
		"core.frozen_drops":         float64(k.frozen),
		"core.stalled_drops":        float64(k.stalled),
		"protocol.shim_reject_frac": ratio(k.shimRej, k.shimServed+k.shimRej),
		"cluster.retries_per_op":    ratio(k.retries, k.ops),
		"cluster.migration_ms_max":  k.migrationMaxMs,
	}
}

// stageResult is what one stage measured.
type stageResult struct {
	st      stage
	setupS  float64
	wallS   float64 // timed region: RunLoads, settle, check
	cpuS    float64 // user+sys CPU over the same region
	mallocs uint64
	heapMB  float64 // live heap after a forced GC, cluster still reachable
	reports []cluster.Report
	counts  counters
	history int     // recorded ops checked (check stages)
	checkS  float64 // wall seconds of the linearizability check
	// undecided and violated count groups whose check did not come
	// back Decided && Ok.
	undecided, violated int
	// dirtyStages × dirtySlots is each group's dirty-set capacity.
	dirtyStages, dirtySlots int
	errs                    []string
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gauges are the traced run's sampled maxima.
type gauges struct {
	pendingMax   int
	queueMax     int
	occupancyMax float64
}

// probe is the extra instrumentation of the traced run: a CPU profile
// around each timed region and a sampler event on the cluster's engine.
type probe struct {
	profiles []*bytes.Buffer // one per stage run
	gauges   gauges
}

// profileHz is the traced run's CPU sampling rate.
const profileHz = 500

// startProfile begins a CPU profile into buf at profileHz.
func startProfile(buf *bytes.Buffer) error {
	// pprof.StartCPUProfile always asks for 100 Hz; setting the rate
	// first makes its own request fail (the runtime says so on stderr)
	// and leaves ours in force — the only way to pick a rate with the
	// standard library.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return err
	}
	return nil
}

// runStage builds the stage's cluster and drives it once. With pr set
// the timed region is profiled and sampled (the traced run).
func runStage(st stage, pr *probe) stageResult {
	res := stageResult{st: st}
	fail := func(format string, a ...any) { res.errs = append(res.errs, fmt.Sprintf(format, a...)) }

	runtime.GC()
	t0 := time.Now()
	c := cluster.New(st.cfg)
	c.Preload(st.keys)
	res.setupS = time.Since(t0).Seconds()

	window, warm := st.specs[0].Duration, st.specs[0].Warmup
	eng := c.Engine()
	var first, last snapshot
	eng.After(warm, func() { first = takeSnapshot(c) })
	eng.After(warm+window, func() { last = takeSnapshot(c) })
	if st.script != nil {
		st.script(c, func(frac float64, what string, do func() error) {
			eng.After(warm+time.Duration(frac*float64(window)), func() {
				if err := do(); err != nil {
					fail("%s: %v", what, err)
				}
			})
		})
	}
	res.dirtyStages, res.dirtySlots = c.Config().Stages, c.Config().SlotsPerStage
	sampling := pr != nil
	var ticks uint64
	if sampling {
		capacity := float64(res.dirtyStages * res.dirtySlots)
		var tick func()
		tick = func() {
			if !sampling {
				return
			}
			if first.nodes != nil && last.nodes == nil {
				ticks++ // inside the window, where events are counted
			}
			g := &pr.gauges
			g.pendingMax = max(g.pendingMax, eng.Pending())
			reps, _ := replicaNodes(c)
			for _, nd := range reps {
				g.queueMax = max(g.queueMax, nd.QueueLen())
			}
			for grp := 0; grp < c.Groups(); grp++ {
				if s := c.GroupScheduler(grp); s != nil {
					g.occupancyMax = math.Max(g.occupancyMax, float64(s.DirtyCount())/capacity)
				}
			}
			eng.After(time.Millisecond, tick)
		}
		eng.After(time.Millisecond, tick)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stopProfile := func() {}
	if pr != nil {
		buf := new(bytes.Buffer)
		pr.profiles = append(pr.profiles, buf)
		if err := startProfile(buf); err != nil {
			fail("cpu profile: %v", err)
		} else {
			stopProfile = pprof.StopCPUProfile
		}
	}
	cpu0, w0 := cpuSeconds(), time.Now()

	res.reports = c.RunLoads(st.specs)
	sampling = false
	if st.settle > 0 {
		c.RunFor(st.settle)
	}
	if st.check {
		res.history = len(c.History())
		tc := time.Now()
		for g := 0; g < c.Groups(); g++ {
			switch r := c.CheckLinearizabilityGroup(g); {
			case !r.Decided:
				res.undecided++
				fail("group %d history undecided: %s", g, r.Reason)
			case !r.Ok:
				res.violated++
				fail("group %d history not linearizable: key %d: %s", g, r.Key, r.Reason)
			}
		}
		res.checkS = time.Since(tc).Seconds()
	}

	res.wallS = time.Since(w0).Seconds()
	res.cpuS = cpuSeconds() - cpu0
	stopProfile()
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.heapMB = float64(m1.HeapAlloc) / (1 << 20)

	res.counts = windowCounts(c, st, res.reports, first, last, ticks, fail)
	runtime.KeepAlive(c)
	return res
}

// windowCounts turns the two snapshots and the public end-of-run
// counters into the stage's exact counts, checking the reports add up.
func windowCounts(c *cluster.Cluster, st stage, reports []cluster.Report, first, last snapshot,
	ticks uint64, fail func(string, ...any)) counters {
	var k counters
	for i, rep := range reports {
		k.ops += rep.Ops
		k.retries += rep.Retries
		if rep.Reads+rep.Writes != rep.Ops {
			fail("load group %d: reads %d + writes %d != ops %d", i, rep.Reads, rep.Writes, rep.Ops)
		}
		var byGroup uint64
		for _, n := range rep.GroupOps {
			byGroup += n
		}
		if byGroup != rep.Ops {
			fail("load group %d: per-group ops sum to %d, ops %d", i, byGroup, rep.Ops)
		}
		if rep.Ops == 0 {
			fail("load group %d completed no operation", i)
		}
	}
	if first.nodes == nil || last.nodes == nil {
		fail("window snapshots did not fire")
		return k
	}
	if c.Network().Node(clientBase+1) == nil || c.Network().Node(controllerAddr) == nil {
		fail("cluster address layout changed: no client at %d or controller at %d", clientBase+1, controllerAddr)
	}
	// The sampler's own events are not the program's.
	k.events = last.events - first.events - ticks
	k.sent = last.sent - first.sent
	for nd, b := range last.nodes {
		k.delivered += b.delivered - first.nodes[nd].delivered
	}
	window := st.specs[0].Duration
	reps, workers := replicaNodes(c)
	for i, nd := range reps {
		busy := last.nodes[nd].busy - first.nodes[nd].busy
		k.replicaUtilMax = math.Max(k.replicaUtilMax, float64(busy)/(float64(workers[i])*float64(window)))
	}
	// Scheduler and front-end counters run from assembly; all uses are
	// ratios, and a replacement switch starts its own from zero.
	for g := 0; g < c.Groups(); g++ {
		if s := c.GroupScheduler(g); s != nil {
			k.addSched(s.Stats)
		}
	}
	for s := 0; s < c.Switches(); s++ {
		fs := c.FrontendOf(s).Stats
		k.frozen += fs.FrozenDrops
		k.stalled += fs.StalledDrops
	}
	k.shimServed, k.shimRej, _ = c.ShimStats()
	k.migrationMaxMs = longestMigrationMs(c.Events())
	return k
}

// longestMigrationMs pairs each slot's migration start with its route
// flip in the flight recorder and returns the longest, in simulated
// milliseconds.
func longestMigrationMs(events []trace.Event) float64 {
	started := make(map[int16]sim.Time)
	var longest sim.Time
	for _, ev := range events {
		switch ev.Kind {
		case trace.EvMigrationStart:
			started[ev.Slot] = ev.At
		case trace.EvMigrationFlip:
			if t0, ok := started[ev.Slot]; ok {
				longest = max(longest, ev.At-t0)
				delete(started, ev.Slot)
			}
		}
	}
	return float64(longest) / float64(time.Millisecond)
}

// repetition is one pass over a workload's stages.
type repetition struct {
	stages []stageResult
	// sim holds the simulated-rack metrics, exact the per-layer counts;
	// both must repeat bit-identically for a seed.
	sim   map[string]float64
	exact map[string]float64
	errs  []string
}

func (r repetition) ops() (n uint64) {
	for _, s := range r.stages {
		n += s.counts.ops
	}
	return n
}

func (r repetition) wallS() (t float64) {
	for _, s := range r.stages {
		t += s.wallS
	}
	return t
}

// unlinearizable counts groups whose recorded history failed its check.
func (r repetition) unlinearizable() (n int) {
	for _, s := range r.stages {
		n += s.undecided + s.violated
	}
	return n
}

// attempted counts completed operations plus, under open loop, the
// ones issued and still unanswered when their window closed.
func (r repetition) attempted() (n uint64) {
	for _, s := range r.stages {
		for i, rep := range s.reports {
			n += rep.Ops
			if s.st.specs[i].Mode == cluster.Open {
				n += rep.Unanswered
			}
		}
	}
	return n
}

// runRepetition runs every stage of w once. pr instruments all of them
// (the traced run).
func runRepetition(w workload, seed int64, scale float64, pr *probe) repetition {
	var r repetition
	var total counters
	for i, st := range w.stages(seed, scale) {
		if pr != nil {
			st.cfg.Trace = trace.Config{SampleEvery: traceSampling}
		}
		res := runStage(st, pr)
		for _, e := range res.errs {
			r.errs = append(r.errs, fmt.Sprintf("stage %d: %s", i, e))
		}
		total.add(res.counts)
		r.stages = append(r.stages, res)
	}
	r.exact = total.exact()
	var errs []string
	r.sim, errs = simMetrics(w, r.stages)
	r.errs = append(r.errs, errs...)
	return r
}

// simMetrics derives the simulated-rack metrics of one repetition.
func simMetrics(w workload, results []stageResult) (map[string]float64, []string) {
	var errs []string
	rep := results[w.primary].reports[0]
	p99 := interpolatedQuantile(rep.Latency, 0.99)
	out := map[string]float64{
		"sim_throughput_mrps": rep.Throughput / 1e6,
		"sim_mean_us":         micros(rep.Latency.Sum()) / float64(rep.Latency.Count()),
		"sim_p99_us":          micros(p99),
	}

	// Share of offered operations answered inside their window. A
	// closed-loop client always has one op in flight, which is not a
	// failure; an open-loop op is never retried, so one left unanswered
	// is backlog (or loss, on a lossy rack).
	var done, offered uint64
	for _, res := range results {
		for j, r := range res.reports {
			if res.st.specs[j].Mode == cluster.Open {
				done += r.Ops
				offered += r.Ops + r.Unanswered
			}
		}
	}
	out["sim_completed_frac"] = 1
	if offered > 0 {
		out["sim_completed_frac"] = float64(done) / float64(offered)
	}

	// Worst bucket of the completion series over the median bucket of
	// its calm part: the whole window, or what precedes the script's
	// first step (later steps change the rack's capacity, so a median
	// over everything would sit between two levels).
	st := results[w.primary].st
	n := int(st.specs[0].Duration / bucket)
	var rates []float64
	if rep.Series != nil {
		for _, pt := range rep.Series.Points() {
			if int(pt.Start/bucket) < n {
				rates = append(rates, pt.Rate)
			}
		}
	}
	if len(rates) != n {
		// Points() spans first..last non-empty bucket, so a shortfall
		// means the edge buckets were empty.
		errs = append(errs, fmt.Sprintf("completion series has %d of %d buckets", len(rates), n))
		out["sim_worst_bucket_frac"] = 0
	} else {
		calm := rates
		if st.calm > 0 {
			calm = rates[:max(int(st.calm*float64(n)), 1)]
		}
		out["sim_worst_bucket_frac"] = slices.Min(rates) / median(calm)
	}

	// Highest rate that meets the latency limit without a growing
	// backlog: the best passing rung of a ladder, or a closed loop's
	// one rate.
	if w.ladder {
		out["sim_slo_rate_mrps"] = 0
		for _, res := range results {
			r := res.reports[0]
			var issued uint64
			for _, g := range r.GroupOffered {
				issued += g
			}
			if interpolatedQuantile(r.Latency, 0.99) <= w.p99Limit && float64(r.Ops) >= sloAnswer*float64(issued) {
				out["sim_slo_rate_mrps"] = res.st.specs[0].Rate / 1e6
			}
		}
		if out["sim_slo_rate_mrps"] == 0 {
			errs = append(errs, fmt.Sprintf("no ladder rung met p99 <= %v", w.p99Limit))
		}
	} else {
		out["sim_slo_rate_mrps"] = rep.Throughput / 1e6
		if p99 > w.p99Limit {
			errs = append(errs, fmt.Sprintf("p99 %v over the workload's limit %v", p99, w.p99Limit))
		}
	}
	return out, errs
}
