package cluster

import (
	"runtime"
	"testing"
	"time"

	"harmonia/internal/trace"
	"harmonia/internal/wire"
)

// TestTraceLatencyBreakdownReconciles pins the telescoping identity at
// cluster scale: on a drop-free run with every op sampled, the five
// phase histograms hold exactly one observation per completed op, and
// their sums reconcile with the end-to-end latency histogram within the
// 5% acceptance bound (the identity makes them match exactly; the bound
// only allows for histogram-independent counting differences).
func TestTraceLatencyBreakdownReconciles(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 2,
		Switches: 2, Seed: 7,
		Trace: trace.Config{SampleEvery: 1, Capacity: 2048},
	})
	rep := c.RunLoad(LoadSpec{
		Mode: Closed, Clients: 8, Duration: 8 * time.Millisecond,
		Warmup: time.Millisecond, WriteRatio: 0.3, Keys: 64, Dist: Uniform,
	})
	if rep.Ops == 0 {
		t.Fatal("no operations completed")
	}
	bd := rep.LatencyBreakdown
	if bd == nil {
		t.Fatal("LatencyBreakdown nil with Config.Trace armed")
	}
	// Every sampled completion contributes one observation to EACH
	// phase histogram, and at SampleEvery=1 the sampled set is the
	// observed set.
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		if got := bd.Overall.Phase(p).Count(); got != rep.Latency.Count() {
			t.Fatalf("phase %v count = %d, want %d (one per completed op)",
				p, got, rep.Latency.Count())
		}
	}
	var phaseSum time.Duration
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		phaseSum += bd.Overall.Phase(p).Sum()
	}
	e2e := rep.Latency.Sum()
	diff := phaseSum - e2e
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.05*float64(e2e) {
		t.Fatalf("phase sums %v vs end-to-end %v: off by %.1f%%, want ≤5%%",
			phaseSum, e2e, 100*float64(diff)/float64(e2e))
	}
	// The per-group and per-switch views partition the same ops.
	var groupCnt, switchCnt uint64
	for _, g := range bd.Groups {
		if g != nil {
			groupCnt += g.Queue.Count()
		}
	}
	for _, s := range bd.Switches {
		if s != nil {
			switchCnt += s.Queue.Count()
		}
	}
	if groupCnt != rep.Latency.Count() || switchCnt != rep.Latency.Count() {
		t.Fatalf("per-group %d / per-switch %d counts, want %d each",
			groupCnt, switchCnt, rep.Latency.Count())
	}
}

// TestTraceEventsHotKeyLifecycle drives a manual promote → write
// (invalidate + refresh) → demote arc and checks the flight recorder
// kept the whole story in order for that object.
func TestTraceEventsHotKeyLifecycle(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 3,
		HotKeys: true, Seed: 31,
	})
	cl := c.NewSyncClient()
	const key = "celebrity"
	if err := cl.Set(key, []byte("v1")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if err := c.PromoteKey(key); err != nil {
		t.Fatalf("PromoteKey: %v", err)
	}
	c.RunFor(time.Millisecond) // seeding refresh
	if err := cl.Set(key, []byte("v2")); err != nil {
		t.Fatalf("Set v2: %v", err)
	}
	c.RunFor(time.Millisecond) // write-cued refresh
	if !c.DemoteKey(key) {
		t.Fatal("DemoteKey reported not promoted")
	}

	id := uint64(wire.HashKey(key))
	idx := map[trace.EventKind]int{}
	for i, e := range c.Events() {
		if e.Arg != id {
			continue
		}
		switch e.Kind {
		case trace.EvHotPromote:
			idx[e.Kind] = i
		case trace.EvHotInvalidate, trace.EvHotRefresh, trace.EvHotDemote:
			// Keep the LAST invalidate/refresh and the demote; order is
			// checked pairwise below.
			if _, seen := idx[e.Kind]; !seen || e.Kind != trace.EvHotInvalidate {
				idx[e.Kind] = i
			}
		}
	}
	for _, k := range []trace.EventKind{
		trace.EvHotPromote, trace.EvHotInvalidate, trace.EvHotRefresh, trace.EvHotDemote,
	} {
		if _, ok := idx[k]; !ok {
			t.Fatalf("no %v event recorded for object %d", k, id)
		}
	}
	if !(idx[trace.EvHotPromote] < idx[trace.EvHotInvalidate] &&
		idx[trace.EvHotInvalidate] < idx[trace.EvHotRefresh] &&
		idx[trace.EvHotRefresh] < idx[trace.EvHotDemote]) {
		t.Fatalf("lifecycle out of order: promote@%d invalidate@%d refresh@%d demote@%d",
			idx[trace.EvHotPromote], idx[trace.EvHotInvalidate],
			idx[trace.EvHotRefresh], idx[trace.EvHotDemote])
	}
}

// TestTraceEventsMigration checks the recorder sees a slot handoff's
// start and flip — and an early-cancelled batch's abort.
func TestTraceEventsMigration(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 2, Seed: 11,
	})
	c.Preload(64)
	const slot = 7
	from := c.SlotTable()[slot]
	m, err := c.StartBatchMigration([]int{slot}, 1-from)
	if err != nil {
		t.Fatalf("StartBatchMigration: %v", err)
	}
	for i := 0; i < 20 && !m.Done(); i++ {
		c.RunFor(time.Millisecond)
	}
	if !m.Done() || m.Aborted() {
		t.Fatalf("migration done=%v aborted=%v", m.Done(), m.Aborted())
	}

	abortSlot := -1
	for s := 0; s < wire.NumSlots; s++ {
		if s != slot && c.SlotTable()[s] == from {
			abortSlot = s
			break
		}
	}
	ma, err := c.StartBatchMigration([]int{abortSlot}, 1-from)
	if err != nil {
		t.Fatalf("StartBatchMigration: %v", err)
	}
	if !ma.Abort() {
		t.Fatal("Abort before the copy stage must succeed")
	}

	var start, flip, abort bool
	for _, e := range c.Events() {
		switch {
		case e.Kind == trace.EvMigrationStart && int(e.Slot) == slot:
			if int(e.Group) != from || int(e.Arg) != 1-from {
				t.Fatalf("start event groups: src=%d dst=%d", e.Group, e.Arg)
			}
			start = true
		case e.Kind == trace.EvMigrationFlip && int(e.Slot) == slot:
			if int(e.Group) != 1-from || int(e.Arg) != from {
				t.Fatalf("flip event groups: dst=%d src=%d", e.Group, e.Arg)
			}
			flip = true
		case e.Kind == trace.EvMigrationAbort && int(e.Slot) == abortSlot:
			abort = true
		}
	}
	if !start || !flip || !abort {
		t.Fatalf("missing migration events: start=%v flip=%v abort=%v", start, flip, abort)
	}
}

// TestTraceEventsSwitchReplacement checks the crash / reactivate /
// agreement-complete sequence lands in the recorder.
func TestTraceEventsSwitchReplacement(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 4,
		Switches: 2, Seed: 13,
	})
	if err := c.CrashSwitch(1); err != nil {
		t.Fatalf("CrashSwitch: %v", err)
	}
	c.RunFor(time.Millisecond)
	if err := c.ReactivateSwitch(1); err != nil {
		t.Fatalf("ReactivateSwitch: %v", err)
	}
	c.RunFor(5 * time.Millisecond) // let the §5.3 agreement finish

	var crash, react, agree bool
	for _, e := range c.Events() {
		if int(e.Switch) != 1 {
			continue
		}
		switch e.Kind {
		case trace.EvSwitchCrash:
			crash = true
		case trace.EvSwitchReactivate:
			if e.Arg < 2 {
				t.Fatalf("reactivate epoch = %d, want ≥2", e.Arg)
			}
			react = true
		case trace.EvAgreement:
			if e.Arg == 0 {
				t.Fatal("agreement event has zero latency")
			}
			agree = true
		}
	}
	if !crash || !react || !agree {
		t.Fatalf("missing replacement events: crash=%v reactivate=%v agreement=%v",
			crash, react, agree)
	}
}

// TestTraceRecorderAccessors smoke-tests the cluster-level accessors so
// regressions in wiring (not just the trace package) get caught.
func TestTraceRecorderAccessors(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 2, Seed: 3})
	if c.DroppedEvents() != 0 {
		t.Fatal("fresh cluster dropped events")
	}
	if len(c.Events()) != 0 {
		t.Fatal("fresh cluster has events")
	}
}

// driverAllocsPerOp measures steady-state heap allocations per
// completed op across one open-loop window, after a warmup window has
// populated the packet and op pools.
func driverAllocsPerOp(c *Cluster) float64 {
	c.RunLoad(LoadSpec{ // warmup: grow pools, tables, histograms
		Mode: Open, Rate: 400000, Duration: 2 * time.Millisecond,
		WriteRatio: 0.2, Keys: 256, Dist: Zipf09, PinGroups: true,
	})
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rep := c.RunLoad(LoadSpec{
		Mode: Open, Rate: 400000, Duration: 40 * time.Millisecond,
		WriteRatio: 0.2, Keys: 256, Dist: Zipf09, PinGroups: true,
	})
	runtime.ReadMemStats(&m1)
	if rep.Ops == 0 {
		return -1
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(rep.Ops)
}

// benchDriverCluster builds the BenchmarkOpenLoopDriver rack with an
// optional tracing config, so alloc comparisons hold everything else
// fixed.
func benchDriverCluster(tc trace.Config) *Cluster {
	c := New(Config{
		UseHarmonia: true, Seed: 99,
		GroupSpecs: []GroupSpec{
			{Protocol: Chain, Replicas: 3, Weight: 2},
			{Protocol: NOPaxos, Replicas: 3, Weight: 1},
		},
		Trace: tc,
	})
	c.Preload(256)
	return c
}

// TestTraceDriverAllocRegression pins the data-plane cost of tracing
// on the open-loop driver. The driver itself carries a pre-existing
// ~3 allocs/op floor (simulated-clock timer events, identical before
// this feature); what tracing must guarantee is differential: with
// tracing off the guarded hooks are a nil check and add NOTHING, and
// 1-in-1024 sampling stays within 2 extra allocs/op (spans are pooled;
// the breakdown histograms are per-RunLoad, amortized).
func TestTraceDriverAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	off := driverAllocsPerOp(benchDriverCluster(trace.Config{}))
	sampled := driverAllocsPerOp(benchDriverCluster(trace.Config{SampleEvery: 1024}))
	if off < 0 || sampled < 0 {
		t.Fatal("no operations completed")
	}
	if off > 3.5 {
		t.Fatalf("tracing off: %.2f allocs/op, above the driver's pre-tracing floor (~3)", off)
	}
	if delta := sampled - off; delta > 2 {
		t.Fatalf("1-in-1024 sampling adds %.2f allocs/op over tracing-off (%.2f vs %.2f), want ≤2",
			delta, sampled, off)
	}
}
