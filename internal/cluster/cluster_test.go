package cluster

import (
	"testing"
	"time"

	"harmonia/internal/protocol/chain"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// quickSpec is a small mixed workload for functional tests.
func quickSpec() LoadSpec {
	return LoadSpec{
		Mode: Closed, Clients: 16, Duration: 20 * time.Millisecond,
		Warmup: 2 * time.Millisecond, WriteRatio: 0.1, Keys: 64,
	}
}

func allProtocols() []Protocol { return []Protocol{PB, Chain, CRAQ, VR, NOPaxos} }

func TestEveryProtocolServesLoad(t *testing.T) {
	for _, p := range allProtocols() {
		for _, harmonia := range []bool{false, true} {
			if p == CRAQ && harmonia {
				continue // CRAQ is the no-switch baseline
			}
			name := p.String()
			if harmonia {
				name = "Harmonia(" + name + ")"
			}
			t.Run(name, func(t *testing.T) {
				c := New(Config{Protocol: p, Replicas: 3, UseHarmonia: harmonia, Seed: 7})
				rep := c.RunLoad(quickSpec())
				if rep.Ops == 0 {
					t.Fatal("no operations completed")
				}
				if rep.Reads == 0 || rep.Writes == 0 {
					t.Fatalf("mix not exercised: reads=%d writes=%d", rep.Reads, rep.Writes)
				}
			})
		}
	}
}

func TestLinearizabilityAllProtocols(t *testing.T) {
	for _, p := range allProtocols() {
		for _, harmonia := range []bool{false, true} {
			if p == CRAQ && harmonia {
				continue
			}
			name := p.String()
			if harmonia {
				name = "Harmonia(" + name + ")"
			}
			t.Run(name, func(t *testing.T) {
				c := New(Config{
					Protocol: p, Replicas: 3, UseHarmonia: harmonia,
					RecordHistory: true, Seed: 11,
				})
				// Contended but small enough for the checker: ~6
				// clients × 8ms ≈ 1500 ops over 12 keys.
				spec := quickSpec()
				spec.Keys = 12
				spec.WriteRatio = 0.3
				spec.Clients = 6
				spec.Duration = 8 * time.Millisecond
				c.RunLoad(spec)
				c.RunFor(10 * time.Millisecond) // settle in-flight ops
				res := c.CheckLinearizability()
				if !res.Decided {
					t.Fatalf("undecided: %s", res.Reason)
				}
				if !res.Ok {
					t.Fatalf("linearizability violated: %s", res.Reason)
				}
			})
		}
	}
}

func TestLinearizabilityUnderLossyNetwork(t *testing.T) {
	for _, p := range []Protocol{Chain, VR, NOPaxos} {
		t.Run(p.String(), func(t *testing.T) {
			c := New(Config{
				Protocol: p, Replicas: 3, UseHarmonia: true,
				RecordHistory: true, Seed: 13,
				DropProb: 0.02, ReorderProb: 0.1, ReorderDelay: 50 * time.Microsecond,
			})
			spec := quickSpec()
			spec.Keys = 12
			spec.WriteRatio = 0.3
			spec.Clients = 6
			spec.Duration = 10 * time.Millisecond
			c.RunLoad(spec)
			c.RunFor(20 * time.Millisecond)
			res := c.CheckLinearizability()
			if !res.Decided {
				t.Fatalf("undecided: %s", res.Reason)
			}
			if !res.Ok {
				t.Fatalf("linearizability violated under loss: %s", res.Reason)
			}
		})
	}
}

func TestHarmoniaUsesFastPath(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Seed: 3})
	spec := quickSpec()
	spec.WriteRatio = 0.05
	c.RunLoad(spec)
	st := c.GroupScheduler(0).Stats
	if st.FastReads == 0 {
		t.Fatal("no fast-path reads scheduled")
	}
	if st.FastReads < st.NormalReads {
		t.Fatalf("fast path underused: fast=%d normal=%d", st.FastReads, st.NormalReads)
	}
}

func TestBaselineNeverUsesFastPath(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: false, Seed: 3})
	c.RunLoad(quickSpec())
	if st := c.GroupScheduler(0).Stats; st.FastReads != 0 {
		t.Fatalf("baseline used fast path %d times", st.FastReads)
	}
}

func TestHarmoniaReadThroughputScales(t *testing.T) {
	// The headline claim in miniature: Harmonia(CR) with 3 replicas
	// should deliver ≥ 2× the read-only throughput of CR.
	run := func(h bool) float64 {
		c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: h, Seed: 5})
		rep := c.RunLoad(LoadSpec{
			Mode: Closed, Clients: 192, Duration: 30 * time.Millisecond,
			Warmup: 5 * time.Millisecond, WriteRatio: 0, Keys: 10000,
		})
		return rep.Throughput
	}
	cr := run(false)
	harmonia := run(true)
	if harmonia < 2*cr {
		t.Fatalf("no read scaling: CR=%.0f Harmonia=%.0f", cr, harmonia)
	}
	// CR read-only throughput should be near one server's capacity
	// (0.92 MQPS ±25%).
	if cr < 0.6e6 || cr > 1.2e6 {
		t.Fatalf("CR baseline off calibration: %.0f ops/s", cr)
	}
}

func TestWriteOnlyThroughputUnchanged(t *testing.T) {
	run := func(h bool) float64 {
		c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: h, Seed: 5})
		rep := c.RunLoad(LoadSpec{
			Mode: Closed, Clients: 192, Duration: 30 * time.Millisecond,
			Warmup: 5 * time.Millisecond, WriteRatio: 1, Keys: 100000,
		})
		return rep.Throughput
	}
	cr, harmonia := run(false), run(true)
	ratio := harmonia / cr
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("write path changed by Harmonia: CR=%.0f Harmonia=%.0f", cr, harmonia)
	}
}

func TestSwitchFailoverRestoresService(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true,
		RecordHistory: true, Seed: 9,
	})
	spec := quickSpec()
	spec.Duration = 60 * time.Millisecond
	spec.Clients = 4
	spec.Keys = 48
	spec.WriteRatio = 0.2

	// Inject failure mid-run.
	p := c.Play(Script{Loads: []LoadSpec{spec}, Steps: []Step{
		{15 * time.Millisecond, "StopSwitch", func(c *Cluster) error { c.StopSwitch(); return nil }},
		{25 * time.Millisecond, "ReactivateSwitch", func(c *Cluster) error { return c.ReactivateSwitch() }},
	}})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if p.Reports[0].Ops == 0 {
		t.Fatal("no ops at all")
	}
	// New epoch active and serving fast reads again.
	if c.GroupScheduler(0).Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", c.GroupScheduler(0).Epoch())
	}
	if !c.GroupScheduler(0).Ready() {
		t.Fatal("replacement switch never became ready")
	}
	c.RunFor(20 * time.Millisecond)
	res := c.CheckLinearizability()
	if !res.Decided || !res.Ok {
		t.Fatalf("failover violated linearizability: %+v", res)
	}
}

func TestOldEpochFastReadsRefusedAfterFailover(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Seed: 9})
	c.StopSwitch()
	c.ReactivateSwitch()
	c.RunFor(5 * time.Millisecond) // agreement completes
	// Hand-craft an old-epoch fast read straight to a replica.
	pkt := &wire.Packet{
		Op: wire.OpRead, ObjID: wire.HashKey("obj00000001"), Key: "obj00000001",
		Flags: wire.FlagFastPath, LastCommitted: wire.Seq{Epoch: 1, N: 999},
		ClientID: 1, ReqID: 12345,
	}
	c.net.Send(clientBase, replicaBase+1, pkt)
	c.RunFor(5 * time.Millisecond)
	// The read must have been forwarded to the normal path, not
	// answered locally — observable via scheduler stats after it
	// passed back through the switch... it goes straight to the tail.
	// Simplest check: the packet reached the tail as FlagForwarded,
	// meaning the lease gate fired. We verify via replica counters.
	if _, _, leaseRejected := c.groups[0].replicas[1].ShimCounters(); leaseRejected == 0 {
		t.Fatal("old-epoch fast read was not refused by the lease gate")
	}
}

func TestCrashBackupKeepsServing(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			c := New(Config{Protocol: p, Replicas: 3, UseHarmonia: p != CRAQ, Seed: 21})
			crash := 2 // last replica: chain/CRAQ tail, pb backup, vr+nopaxos follower
			if err := c.CrashReplicaIn(0, crash); err != nil {
				t.Fatal(err)
			}
			spec := quickSpec()
			spec.Duration = 30 * time.Millisecond
			rep := c.RunLoad(spec)
			if rep.Ops == 0 {
				t.Fatal("no ops after crash")
			}
			if rep.Writes == 0 {
				t.Fatal("writes stalled after crash")
			}
		})
	}
}

func TestVRLeaderCrashTriggersViewChange(t *testing.T) {
	c := New(Config{Protocol: VR, Replicas: 3, UseHarmonia: true, Seed: 23, RecordHistory: true})
	if err := c.CrashReplicaIn(0, 0); err != nil {
		t.Fatal(err)
	}
	c.RunFor(100 * time.Millisecond) // view change timers fire
	spec := quickSpec()
	spec.Duration = 8 * time.Millisecond
	spec.Clients = 4
	spec.Keys = 16
	rep := c.RunLoad(spec)
	if rep.Writes == 0 {
		t.Fatal("writes never resumed after leader crash")
	}
	c.RunFor(20 * time.Millisecond)
	res := c.CheckLinearizability()
	if !res.Decided || !res.Ok {
		t.Fatalf("leader failover violated linearizability: %+v", res)
	}
}

// TestCrashMidBroadcastKeepsMessageOwnership crashes replicas while
// the group is loaded, so every kind of recycled message is somewhere
// on its way: queued at the victim (lost with its queue), in service
// there (abandoned), on the link (dropped on arrival), and — when the
// victim is the VR leader — part of a broadcast whose other records
// were delivered. The CRAQ victim also loses version queries and the
// reads they carry. The ownership rule says the lost records are never
// recycled, and the packets they carry are released. Under -race the
// free lists' guard turns a record recycled twice, or written after it
// was recycled, into a panic; in every build the survivors must keep
// committing, the history must stay linearizable, which a resurrected
// prepare or ack would break, and no packet may leak (checkPackets).
func TestCrashMidBroadcastKeepsMessageOwnership(t *testing.T) {
	for _, tc := range []struct {
		p       Protocol
		n       int
		victims []int // crashed 5 ms, 45 ms, … into the run
	}{
		{VR, 5, []int{3, 0}}, // a backup, then the leader
		{Chain, 3, []int{1}}, // the middle node: propagates down, acks up
		{CRAQ, 3, []int{1}},  // the same, with commit acks and version queries
	} {
		t.Run(tc.p.String(), func(t *testing.T) {
			c := New(Config{Protocol: tc.p, Replicas: tc.n, UseHarmonia: tc.p != CRAQ, Seed: 5, RecordHistory: true})
			c.Preload(4096)
			queued := 0           // messages waiting at a victim when it went down
			var dirtyReads uint64 // version queries a CRAQ victim sent before it went down
			var crashes []Step
			for k, victim := range tc.victims {
				crashes = append(crashes, Step{time.Duration(5+40*k) * time.Millisecond, "CrashReplicaIn", func(c *Cluster) error {
					queued += c.net.Node(c.groupAddr(0, victim)).QueueLen()
					if r, ok := c.groups[0].nodes[victim].(*chain.Replica); ok {
						dirtyReads += r.DirtyReads
					}
					return c.CrashReplicaIn(0, victim)
				}})
			}
			p := c.Play(Script{Loads: []LoadSpec{{
				Mode: Closed, Clients: 64, Duration: 120 * time.Millisecond,
				Warmup: time.Millisecond, WriteRatio: 0.5, Keys: 4096, Bucket: 10 * time.Millisecond,
			}}, Steps: crashes, Settle: 20 * time.Millisecond})
			if err := p.Err(); err != nil {
				t.Fatal(err)
			}
			rep := p.Reports[0]
			if queued == 0 {
				t.Fatal("no victim had a message queued when it crashed; the test meant to lose some")
			}
			if tc.p == CRAQ && dirtyReads == 0 {
				t.Fatal("the CRAQ victim sent no version query before it crashed")
			}
			for _, victim := range tc.victims {
				if c.net.Node(c.groupAddr(0, victim)).Dropped == 0 {
					t.Fatalf("replica %d dropped no message", victim)
				}
			}
			pts := rep.Series.Points() // ends at the last bucket that completed anything
			if last := pts[len(pts)-1].Start; last < 90*time.Millisecond || rep.Writes == 0 {
				t.Fatalf("the group stopped committing after the crashes: last completion in the bucket at %v, %d writes", last, rep.Writes)
			}
			if res := c.CheckLinearizability(); !res.Decided || !res.Ok {
				t.Fatalf("history after the crashes: %+v", res)
			}
			checkPackets(t, c)
		})
	}
}

func TestCrashPrimaryRejected(t *testing.T) {
	c := New(Config{Protocol: PB, Replicas: 3, Seed: 1})
	if err := c.CrashReplicaIn(0, 0); err == nil {
		t.Fatal("PB primary crash should be rejected (needs external config service)")
	}
}

func TestPreloadVisibleToReads(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Seed: 1, RecordHistory: true})
	c.Preload(10)
	spec := quickSpec()
	spec.WriteRatio = 0
	spec.Keys = 10
	spec.Clients = 4
	spec.Duration = 5 * time.Millisecond
	rep := c.RunLoad(spec)
	if rep.Ops == 0 {
		t.Fatal("no reads")
	}
	c.RunFor(10 * time.Millisecond)
	res := c.CheckLinearizability()
	if !res.Decided || !res.Ok {
		t.Fatalf("preloaded reads inconsistent: %+v", res)
	}
}

func TestOpenLoopLatencyRisesWithLoad(t *testing.T) {
	lat := func(rate float64) time.Duration {
		c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: false, Seed: 31})
		rep := c.RunLoad(LoadSpec{
			Mode: Open, Rate: rate, Duration: 30 * time.Millisecond,
			Warmup: 5 * time.Millisecond, WriteRatio: 0, Keys: 10000,
		})
		if rep.Ops == 0 {
			t.Fatalf("open loop at %v op/s completed nothing", rate)
		}
		return rep.Latency.Mean()
	}
	low := lat(0.1e6)
	high := lat(0.85e6) // near CR's single-server read capacity
	if high <= low {
		t.Fatalf("latency did not rise near saturation: low=%v high=%v", low, high)
	}
}

func TestSmallDirtySetDropsWritesUnderLoad(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true,
		Stages: 1, SlotsPerStage: 4, Seed: 17,
	})
	spec := quickSpec()
	spec.WriteRatio = 0.5
	spec.Clients = 32
	spec.Keys = 1000
	rep := c.RunLoad(spec)
	if c.GroupScheduler(0).Stats.WritesDropped == 0 {
		t.Fatal("tiny dirty set never dropped a write")
	}
	// Drops are no longer silent: the switch's FlagDropped reply drives
	// an immediate reissue, counted distinctly from timeout retries.
	if rep.Dropped == 0 {
		t.Fatal("dropped writes never surfaced to the clients")
	}
	if rep.Ops == 0 || rep.Writes == 0 {
		t.Fatalf("cluster stalled under write drops: %+v", rep)
	}
}

// buildLaggardVR builds a 3-replica Harmonia(VR) cluster where replica
// 2's inbound replica links are slow, so it chronically lags the
// commit point — the §3 read-behind scenario. EagerCompletions makes
// the switch's commit stamp run ahead of the laggard (the normal
// delayed-completion policy would otherwise wait for it), which is
// precisely the situation the §7.3 replica-side check exists for.
func buildLaggardVR(seed int64, disableCheck bool) *Cluster {
	c := New(Config{
		Protocol: VR, Replicas: 3, UseHarmonia: true,
		EagerCompletions:  true,
		DisableReadChecks: disableCheck, RecordHistory: true, Seed: seed,
	})
	slow := simnet.LinkConfig{Latency: 300 * time.Microsecond}
	c.net.SetLink(replicaBase, replicaBase+2, slow)
	c.net.SetLink(replicaBase+1, replicaBase+2, slow)
	return c
}

func laggardSpec() LoadSpec {
	return LoadSpec{
		Mode: Closed, Clients: 4, Duration: 6 * time.Millisecond,
		Warmup: time.Millisecond, WriteRatio: 0.3, Keys: 3,
	}
}

func TestVisibilityCheckProtectsLaggingReplica(t *testing.T) {
	// With the §7.3 check in place, the chronically lagging replica
	// rejects stale fast reads and the history stays linearizable.
	c := buildLaggardVR(1, false)
	c.RunLoad(laggardSpec())
	c.RunFor(10 * time.Millisecond)
	var rejected uint64
	for _, h := range c.groups[0].replicas {
		_, rej, _ := h.ShimCounters()
		rejected += rej
	}
	if rejected == 0 {
		t.Fatal("lagging replica never exercised the visibility check")
	}
	res := c.CheckLinearizability()
	if !res.Decided {
		t.Fatalf("undecided: %s", res.Reason)
	}
	if !res.Ok {
		t.Fatalf("protected run violated linearizability: %s", res.Reason)
	}
}

func TestAblationNoReadCheckViolatesLinearizability(t *testing.T) {
	// With the §7 replica-side check disabled, the dirty set alone
	// cannot prevent stale fast-path reads (§5.2's argument): the
	// lagging replica serves them and the checker catches the
	// anomaly.
	violated := false
	for seed := int64(1); seed <= 4 && !violated; seed++ {
		c := buildLaggardVR(seed, true)
		c.RunLoad(laggardSpec())
		c.RunFor(10 * time.Millisecond)
		var unsafeServed uint64
		for _, h := range c.groups[0].replicas {
			unsafeServed += h.(baseHandle).UnsafeServed
		}
		if unsafeServed == 0 {
			continue // this seed never hit the race; try another
		}
		res := c.CheckLinearizability()
		if res.Decided && !res.Ok {
			violated = true
		}
	}
	if !violated {
		t.Fatal("ablated fast-read check never produced a detectable anomaly; " +
			"either the checker or the ablation is broken")
	}
}

func TestSchedulerStatsAccumulate(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Seed: 1})
	c.RunLoad(quickSpec())
	st := c.GroupScheduler(0).Stats
	if st.Writes == 0 || st.Completions == 0 {
		t.Fatalf("write path stats empty: %+v", st)
	}
}
