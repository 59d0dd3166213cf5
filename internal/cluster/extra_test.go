package cluster

import (
	"bytes"
	"testing"
	"time"

	"harmonia/internal/simnet"
	"harmonia/internal/workload"
)

func TestSyncClientBasics(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Seed: 1})
	s := c.NewSyncClient()
	if err := s.Set("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("k1")
	if err != nil || !ok || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := s.Get("absent"); ok {
		t.Fatal("phantom key")
	}
	if err := s.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("k1"); ok {
		t.Fatal("delete ignored")
	}
}

func TestSyncClientTimesOutWhenSwitchDown(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Seed: 1})
	c.StopSwitch()
	s := c.NewSyncClient()
	if err := s.Set("k", []byte("v")); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// Recovery: the same client works after reactivation.
	c.ReactivateSwitch()
	c.RunFor(5 * time.Millisecond)
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatalf("post-recovery Set: %v", err)
	}
}

func TestSyncClientRetriesThroughTransientLoss(t *testing.T) {
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true, Seed: 3,
		DropProb: 0.3, // heavy loss on the packet path
	})
	s := c.NewSyncClient()
	for i := 0; i < 20; i++ {
		if err := s.Set(workload.KeyName(i), []byte{byte(i)}); err != nil {
			t.Fatalf("Set %d under loss: %v", i, err)
		}
	}
	for i := 0; i < 20; i++ {
		v, ok, err := s.Get(workload.KeyName(i))
		if err != nil || !ok || v[0] != byte(i) {
			t.Fatalf("Get %d under loss: %q %v %v", i, v, ok, err)
		}
	}
}

func TestZipfWorkloadRuns(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Seed: 5})
	rep := c.RunLoad(LoadSpec{
		Mode: Closed, Clients: 32, Duration: 15 * time.Millisecond,
		Warmup: 2 * time.Millisecond, WriteRatio: 0.1, Keys: 1000, Dist: Zipf09,
	})
	if rep.Ops == 0 {
		t.Fatal("zipf workload completed nothing")
	}
	// Skew means contended objects: some reads must have hit the
	// dirty set.
	if c.GroupScheduler(0).Stats.DirtyHits == 0 {
		t.Fatal("no dirty hits under zipf-0.9 with writes")
	}
}

func TestTwoReplicaGroups(t *testing.T) {
	for _, p := range []Protocol{PB, Chain, CRAQ} {
		t.Run(p.String(), func(t *testing.T) {
			c := New(Config{Protocol: p, Replicas: 2, UseHarmonia: p != CRAQ, Seed: 7})
			rep := c.RunLoad(quickSpec())
			if rep.Ops == 0 {
				t.Fatal("no ops")
			}
		})
	}
}

func TestFiveReplicaQuorumProtocols(t *testing.T) {
	for _, p := range []Protocol{VR, NOPaxos} {
		t.Run(p.String(), func(t *testing.T) {
			c := New(Config{
				Protocol: p, Replicas: 5, UseHarmonia: true,
				RecordHistory: true, Seed: 7,
			})
			spec := quickSpec()
			spec.Clients = 6
			spec.Keys = 16
			spec.Duration = 8 * time.Millisecond
			spec.WriteRatio = 0.25
			rep := c.RunLoad(spec)
			if rep.Ops == 0 {
				t.Fatal("no ops")
			}
			c.RunFor(15 * time.Millisecond)
			verify(t, c, Played{})
		})
	}
}

func TestLinearizabilityUnderDuplication(t *testing.T) {
	// Duplicate every packet with 20% probability: at-most-once
	// machinery must hold the history together.
	for _, p := range []Protocol{Chain, VR, NOPaxos} {
		t.Run(p.String(), func(t *testing.T) {
			c := New(Config{
				Protocol: p, Replicas: 3, UseHarmonia: true,
				RecordHistory: true, Seed: 17,
			})
			// Duplication on the client packet paths only (TCP-like
			// replica channels don't duplicate).
			dup := simnet.LinkConfig{Latency: 5 * time.Microsecond, DupProb: 0.2}
			for r := 0; r < 3; r++ {
				c.net.SetLinkBoth(switchAddr, c.GroupReplicaAddr(0, r), dup)
			}
			spec := quickSpec()
			spec.Clients = 6
			spec.Keys = 12
			spec.Duration = 8 * time.Millisecond
			spec.WriteRatio = 0.3
			c.RunLoad(spec)
			c.RunFor(15 * time.Millisecond)
			verify(t, c, Played{})
		})
	}
}

func TestSchedulerEpochSurvivesMultipleFailovers(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Seed: 21, RecordHistory: true})
	s := c.NewSyncClient()
	for round := 0; round < 3; round++ {
		if err := s.Set("k", nil); err != nil {
			t.Fatalf("round %d Set: %v", round, err)
		}
		c.StopSwitch()
		c.ReactivateSwitch()
		c.RunFor(5 * time.Millisecond)
	}
	if got := c.GroupScheduler(0).Epoch(); got != 4 {
		t.Fatalf("epoch = %d after 3 failovers, want 4", got)
	}
	// Fast path re-enabled after a write completes in the new epoch.
	if err := s.Set("k2", nil); err != nil {
		t.Fatal(err)
	}
	if !c.GroupScheduler(0).Ready() {
		t.Fatal("switch not ready after new-epoch write")
	}
	verify(t, c, Played{})
}

func TestCrashedReplicaReceivesNoFastReads(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Seed: 9})
	if err := c.CrashReplicaIn(0, 1); err != nil {
		t.Fatal(err)
	}
	crashed := c.net.Node(c.GroupReplicaAddr(0, 1))
	before := crashed.Delivered // priming traffic pre-crash
	spec := quickSpec()
	spec.WriteRatio = 0
	c.RunLoad(spec)
	if crashed.Delivered != before {
		t.Fatalf("crashed replica processed %d messages post-crash", crashed.Delivered-before)
	}
}

func TestProtocolString(t *testing.T) {
	if PB.String() != "PB" || Chain.String() != "CR" || CRAQ.String() != "CRAQ" ||
		VR.String() != "VR" || NOPaxos.String() != "NOPaxos" {
		t.Fatal("protocol names wrong")
	}
	if Protocol(42).String() == "" {
		t.Fatal("unknown protocol name empty")
	}
}

func TestRunLoadsEmpty(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, Seed: 1})
	if out := c.RunLoads(nil); out != nil {
		t.Fatal("empty RunLoads returned reports")
	}
}

func TestMixedLoadGroupsIsolateStats(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Seed: 13})
	reps := c.RunLoads([]LoadSpec{
		{Mode: Closed, Clients: 32, Duration: 10 * time.Millisecond, Warmup: 2 * time.Millisecond,
			WriteRatio: 0, Keys: 1000},
		{Mode: Open, Rate: 50000, Duration: 10 * time.Millisecond, Warmup: 2 * time.Millisecond,
			WriteRatio: 1, Keys: 1000},
	})
	if reps[0].Writes != 0 {
		t.Fatalf("read group recorded %d writes", reps[0].Writes)
	}
	if reps[1].Reads != 0 {
		t.Fatalf("write group recorded %d reads", reps[1].Reads)
	}
	if reps[0].Reads == 0 || reps[1].Writes == 0 {
		t.Fatal("groups idle")
	}
	// Open-loop write rate should land near the offered 50k/s.
	if r := reps[1].WriteThroughput; r < 30000 || r > 70000 {
		t.Fatalf("open-loop write rate %f, want ≈50k", r)
	}
}

func TestDirtyReadsGoToNormalPath(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Seed: 3})
	// One hot key, 50% writes: reads frequently race writes.
	spec := LoadSpec{
		Mode: Closed, Clients: 16, Duration: 10 * time.Millisecond,
		Warmup: time.Millisecond, WriteRatio: 0.5, Keys: 1,
	}
	c.RunLoad(spec)
	st := c.GroupScheduler(0).Stats
	if st.DirtyHits == 0 {
		t.Fatal("hot-key workload produced no dirty hits")
	}
}

func TestSwitchStatsDirtySetDrainsWhenIdle(t *testing.T) {
	c := New(Config{Protocol: Chain, Replicas: 3, UseHarmonia: true, Seed: 3})
	c.RunLoad(quickSpec())
	c.RunFor(20 * time.Millisecond) // all completions land
	if n := c.GroupScheduler(0).DirtyCount(); n != 0 {
		t.Fatalf("dirty set holds %d entries at quiescence", n)
	}
}
