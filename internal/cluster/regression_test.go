package cluster

import (
	"testing"
	"time"

	"harmonia/internal/metrics"
	"harmonia/internal/rebalance"
	"harmonia/internal/workload"
)

// bucketCounts returns the completions of each of the first n buckets
// of a series (Points omits empty trailing buckets; they count zero).
func bucketCounts(ts *metrics.TimeSeries, bucket time.Duration, n int) []uint64 {
	out := make([]uint64, n)
	for _, p := range ts.Points() {
		if i := int(p.Start / bucket); i < n {
			out[i] = p.Count
		}
	}
	return out
}

// TestReorderDoesNotWedgeClients: with reordering on the client ↔
// switch ↔ replica path, a write can reach a protocol's write entry
// behind a later-sequenced one. The order guard discards it and its
// client retries the same request under a fresh sequence number; an
// entry that recorded the request as in progress before discarding it
// suppressed every such retry, and closed-loop clients wedged one by
// one until completions decayed to a few percent of the first bucket.
func TestReorderDoesNotWedgeClients(t *testing.T) {
	t.Parallel()
	const bucket = 20 * time.Millisecond
	for _, p := range allProtocols() {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			c := New(Config{
				Protocol: p, Replicas: 3, UseHarmonia: p != CRAQ, RecordHistory: true,
				ReorderProb: 0.05, ReorderDelay: 20 * time.Microsecond, Seed: 1,
			})
			rep := c.RunLoad(LoadSpec{
				Mode: Closed, Clients: 64, Duration: 5 * bucket, WriteRatio: 0.2, Keys: 1024, Bucket: bucket,
			})
			counts := bucketCounts(rep.Series, bucket, 5)
			t.Logf("completions per %v bucket: %v", bucket, counts)
			if counts[4] < counts[0]/2 {
				t.Fatalf("completions per %v bucket %v: the last fell below half the first", bucket, counts)
			}
			c.RunFor(20 * time.Millisecond)
			if res := c.CheckLinearizabilityGroup(0); !res.Decided || !res.Ok {
				t.Fatalf("history under reordering: %+v", res)
			}
		})
	}
}

// TestHotKeyDemoteWithSpreadReadInFlight is the benchmark's
// reconfig_chaos schedule at seed 31, full window, with the promoted
// key homed on group 2 instead of group 0: after 16 of group 2's slots
// moved to group 3, the key is promoted onto group 3 and demoted 10 ms
// later. A spread read routed to the holder just before the demotion
// (invoked at 60.980 ms, demoted at 61.000 ms) arrived after it, and a
// demotion that dropped the holder's copy at once had it answer
// not-found for a live key.
func TestHotKeyDemoteWithSpreadReadInFlight(t *testing.T) {
	t.Parallel()
	const (
		window = 120 * time.Millisecond
		warm   = 5 * time.Millisecond
		keys   = 50000
	)
	c := New(Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 4, Switches: 2,
		RecordHistory: true, HotKeys: true,
		HotKey:   rebalance.HotKeyConfig{CoolRounds: 1 << 20},
		DropProb: 0.01, Seed: 31,
	})
	c.Preload(keys)
	var hot string
	for i := 0; hot == ""; i++ {
		if k := workload.KeyName(i); c.GroupOf(k) == 2 {
			hot = k
		}
	}
	var slots []int // 16 of group 2's slots
	for slot, g := range c.SlotTable() {
		if g == 2 && len(slots) < 16 {
			slots = append(slots, slot)
		}
	}
	at := func(frac float64) time.Duration { return warm + time.Duration(frac*float64(window)) }
	p := c.Play(Script{
		Loads: []LoadSpec{
			{
				Mode: Closed, Clients: 1024, Duration: window, Warmup: warm,
				WriteRatio: 0.2, Keys: keys, Dist: Uniform, PinGroups: true,
			},
			{Mode: Closed, Clients: 64, WriteRatio: 0.2, Keys: keys, Dist: Uniform},
		},
		Steps: []Step{
			{at(0.10), Migrate{slots, 3}},
			{at(0.20), Promote{hot}},
			{at(0.30), Demote{hot}},
			{at(0.35), CrashSwitch{1}},
			{at(0.45), ReactivateSwitch{[]int{1}}},
			{at(0.60), AddGroup{GroupSpec{Protocol: Chain, Replicas: 3}}},
			{at(0.80), CrashReplica{0, 1}},
		},
		Settle: 30 * time.Millisecond,
	})
	if err := p.Err(); err != nil {
		t.Error(err)
	}
	if res := c.CheckLinearizabilityKey(hot); !res.Decided || !res.Ok {
		t.Fatalf("promoted key %s: %+v", hot, res)
	}
	for g := 0; g < c.Groups(); g++ {
		if res := c.CheckLinearizabilityGroup(g); !res.Decided || !res.Ok {
			t.Fatalf("group %d: %+v", g, res)
		}
	}
	verify(t, c, p)
}

// TestLinkJitterKeepsReplicaChannelsFIFO: Config.LinkJitter also
// varies the delay of the replica ↔ replica channels, which the
// protocols rely on being FIFO. Reordered there, a PB backup discarded
// an out-of-order update yet acknowledged the next one, so the primary
// committed writes the backup never applied, and a chain successor
// discarded reordered propagations.
func TestLinkJitterKeepsReplicaChannelsFIFO(t *testing.T) {
	for _, p := range []Protocol{PB, Chain} {
		t.Run(p.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				c := New(Config{
					Protocol: p, Replicas: 3, UseHarmonia: true, RecordHistory: true,
					LinkJitter: 30 * time.Microsecond, Seed: seed,
				})
				c.RunLoad(LoadSpec{
					Mode: Closed, Clients: 16, Duration: 10 * time.Millisecond, WriteRatio: 0.3, Keys: 200,
				})
				c.RunFor(10 * time.Millisecond)
				if res := c.CheckLinearizability(); !res.Decided || !res.Ok {
					t.Fatalf("seed %d: %+v", seed, res)
				}
			}
		})
	}
}

// TestCRAQSurvivesSwitchReplacement: CRAQ takes no fast reads, but the
// switch still sequences its writes, so a replacement switch's §5.3
// agreement needs CRAQ's replicas to acknowledge the revocation, and
// CRAQ's order guard must admit the new switch's per-epoch counter,
// which starts over.
func TestCRAQSurvivesSwitchReplacement(t *testing.T) {
	const bucket = 20 * time.Millisecond
	c := New(Config{Protocol: CRAQ, Replicas: 3, Seed: 1})
	p := c.Play(Script{
		Loads: []LoadSpec{{Mode: Closed, Clients: 64, Duration: 5 * bucket, WriteRatio: 0.2, Keys: 1024, Bucket: bucket}},
		Steps: []Step{
			{20 * time.Millisecond, CrashSwitch{0}},
			{30 * time.Millisecond, ReactivateSwitch{}},
		},
	})
	if err := p.Err(); err != nil {
		t.Error(err)
	}
	counts := bucketCounts(p.Reports[0].Series, bucket, 5)
	t.Logf("completions per %v bucket: %v", bucket, counts)
	if counts[4] < counts[0]/2 {
		t.Fatalf("completions per %v bucket %v: service did not come back after the replacement", bucket, counts)
	}
}
