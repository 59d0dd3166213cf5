package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"harmonia/internal/lincheck"
	"harmonia/internal/protocol/nopaxos"
	"harmonia/internal/protocol/vr"
	"harmonia/internal/trace"
)

// TestDeterministicRuns: the same configuration and seed give the same
// run, exactly — the load report (every histogram bucket and series
// point included), the recorded history and the flight recorder's
// event log. The PB, chain and CRAQ rows take each write through the
// shared write gate under loss or reordering; the CRAQ row also moves
// slots to and from PB, so CRAQ's store-backed state transfer is inside
// the comparison. The rack row arms every control-plane feature and drives
// a scripted migrate → AddGroup → RespecGroup under load, so the
// paths that walk Go maps on their way to scheduling events (state
// transfer, client-table merge, the rebalancer's batches, the hot-key
// manager) are all inside the comparison. The two write-heavy quorum
// rows drop client and multicast traffic and lose a backup on the way,
// so retried writes, NOPaxos gap fills out of a trimmed log and the
// trim point moving off a dead member are inside it too; the log
// windows the run ends with are compared like everything else. The
// jittered row gives almost every delivery a delay of its own, so the
// engine runs with more lanes in flight than its delay table holds; a
// table that was ever iterated would show here.
func TestDeterministicRuns(t *testing.T) {
	type outcome struct {
		played  Played // the load's report and the step log
		history []lincheck.Op
		events  []trace.Event
		windows []int // every replica's log window at the end
	}
	crashBackup := []Step{{9 * time.Millisecond, CrashReplica{0, 2}}}
	migrate := func(at time.Duration, from int) Step {
		return Step{at, Func{fmt.Sprintf("migrate %d→%d", from, 1-from), func(c *Cluster) error {
			_, err := c.StartBatchMigration(c.slotsOf(from)[:8], 1-from)
			return err
		}}}
	}
	rackCfg, rackSpec, rackSteps := controlPlaneRack(64)
	writeHeavy := LoadSpec{
		Mode: Closed, Clients: 32, Duration: 20 * time.Millisecond, Warmup: 2 * time.Millisecond,
		WriteRatio: 0.5, Keys: 256, Dist: Zipf09,
	}
	crowded := writeHeavy // enough in flight to outnumber the delay table
	crowded.Clients = 128
	cases := []struct {
		name   string
		cfg    Config
		spec   LoadSpec
		steps  []Step            // every one of which must be admitted
		events []trace.EventKind // flight-recorder events the run must contain
	}{
		{
			name: "vr single group",
			cfg:  Config{Protocol: VR, Replicas: 3, UseHarmonia: true, RecordHistory: true, Seed: 99},
			spec: quickSpec(),
		},
		{
			name:  "vr write-heavy over lossy links, a backup crashes",
			cfg:   Config{Protocol: VR, Replicas: 5, UseHarmonia: true, RecordHistory: true, DropProb: 0.01, Seed: 7},
			spec:  writeHeavy,
			steps: crashBackup,
		},
		{
			name:  "nopaxos write-heavy over lossy links, a follower crashes",
			cfg:   Config{Protocol: NOPaxos, Replicas: 5, UseHarmonia: true, RecordHistory: true, DropProb: 0.01, Seed: 8},
			spec:  writeHeavy,
			steps: crashBackup,
		},
		{
			name:  "pb write-heavy over lossy links, a backup crashes",
			cfg:   Config{Protocol: PB, Replicas: 3, UseHarmonia: true, RecordHistory: true, DropProb: 0.01, Seed: 9},
			spec:  writeHeavy,
			steps: crashBackup,
		},
		{
			name: "chain write-heavy over reordering links, the tail crashes",
			cfg: Config{
				Protocol: Chain, Replicas: 3, UseHarmonia: true, RecordHistory: true,
				ReorderProb: 0.05, ReorderDelay: 20 * time.Microsecond, Seed: 10,
			},
			spec:  writeHeavy,
			steps: crashBackup,
		},
		{
			name: "vr write-heavy over jittered and reordering links",
			cfg: Config{
				Protocol: VR, Replicas: 5, UseHarmonia: true, RecordHistory: true, LinkJitter: 3 * time.Microsecond,
				ReorderProb: 0.05, ReorderDelay: 20 * time.Microsecond, Seed: 12,
			},
			spec: crowded,
		},
		{
			name: "craq beside pb, batch migrations both ways",
			cfg: Config{
				UseHarmonia: true, GroupSpecs: []GroupSpec{{Protocol: CRAQ, Replicas: 3}, {Protocol: PB, Replicas: 3}},
				RecordHistory: true, DropProb: 0.01, Seed: 11,
			},
			spec:   writeHeavy,
			steps:  []Step{migrate(3*time.Millisecond, 0), migrate(9*time.Millisecond, 1)},
			events: []trace.EventKind{trace.EvMigrationFlip},
		},
		{
			name:   "rack with the control plane armed",
			cfg:    rackCfg,
			spec:   rackSpec,
			steps:  rackSteps,
			events: []trace.EventKind{trace.EvMigrationFlip, trace.EvTopoEpoch, trace.EvRebalanceTick, trace.EvHotPromote, trace.EvHotRefresh},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() outcome {
				c := New(tc.cfg)
				// The settle lets the steps' handoffs finish.
				p := c.Play(Script{Loads: []LoadSpec{tc.spec}, Steps: tc.steps, Settle: 10 * time.Millisecond})
				return outcome{p, c.History(), c.Events(), logWindows(c)}
			}
			a, b := run(), run()
			if rep := a.played.Reports[0]; rep.Ops == 0 || len(a.history) == 0 {
				t.Fatalf("nothing ran: %d ops, %d history entries", rep.Ops, len(a.history))
			}
			// The comparison is only worth its name if the control plane
			// actually ran: every step fired and admitted, and the
			// rebalancer and hot-key manager both acted.
			if len(a.played.Log) != len(tc.steps) {
				t.Fatalf("%d of %d steps fired: %+v", len(a.played.Log), len(tc.steps), a.played.Log)
			}
			if err := a.played.Err(); err != nil {
				t.Fatal(err)
			}
			seen := make(map[trace.EventKind]bool)
			for _, e := range a.events {
				seen[e.Kind] = true
			}
			for _, k := range tc.events {
				if !seen[k] {
					t.Fatalf("no %v event: the run did not exercise that path", k)
				}
			}
			if !reflect.DeepEqual(a.played.Log, b.played.Log) {
				t.Errorf("step logs differ:\n%+v\n%+v", a.played.Log, b.played.Log)
			}
			if ra, rb := a.played.Reports[0], b.played.Reports[0]; !reflect.DeepEqual(ra, rb) {
				t.Errorf("reports differ: %d ops / %d retries vs %d / %d", ra.Ops, ra.Retries, rb.Ops, rb.Retries)
			}
			if !reflect.DeepEqual(a.history, b.history) {
				t.Errorf("histories differ (%d vs %d ops)", len(a.history), len(b.history))
			}
			if !reflect.DeepEqual(a.events, b.events) {
				t.Errorf("flight-recorder logs differ (%d vs %d events)", len(a.events), len(b.events))
			}
			if !reflect.DeepEqual(a.windows, b.windows) {
				t.Errorf("log windows differ: %v vs %v", a.windows, b.windows)
			}
		})
	}
}

// logWindows lists the log window of every VR and NOPaxos replica, in
// group and replica order.
func logWindows(c *Cluster) []int {
	var out []int
	for _, grp := range c.groups {
		for _, n := range grp.nodes {
			switch r := n.(type) {
			case *vr.Replica:
				out = append(out, r.LogWindow())
			case *nopaxos.Replica:
				out = append(out, r.LogWindow())
			}
		}
	}
	return out
}

// TestLogWindowIndependentOfRunLength: a write_quorum-shaped run twice
// as long holds no more log. While it runs, the five windows together
// stay within what the clients can have in flight; once it has settled
// they are the same length — what a replica keeps is a function of the
// load, not of how long it has been running.
func TestLogWindowIndependentOfRunLength(t *testing.T) {
	const clients, replicas = 64, 5
	run := func(d time.Duration) (widest, atEnd int, writes uint64) {
		c := New(Config{Protocol: VR, Replicas: replicas, UseHarmonia: true, Seed: 3})
		sum := func() (n int) {
			for _, w := range logWindows(c) {
				n += w
			}
			return n
		}
		var sample func()
		sample = func() {
			widest = max(widest, sum())
			c.Engine().After(100*time.Microsecond, sample)
		}
		sample()
		rep := c.RunLoad(LoadSpec{
			Mode: Closed, Clients: clients, Duration: d, Warmup: time.Millisecond,
			WriteRatio: 0.5, Keys: 1000, Dist: Zipf09,
		})
		c.RunFor(15 * time.Millisecond) // heartbeats carry the last trim point
		return widest, sum(), rep.Writes
	}
	w1, end1, n1 := run(10 * time.Millisecond)
	w2, end2, n2 := run(20 * time.Millisecond)
	t.Logf("T: %d writes, widest %d, %d at the end; 2T: %d writes, widest %d, %d at the end", n1, w1, end1, n2, w2, end2)
	if n1 < 1000 || n2 < 2*n1*9/10 {
		t.Fatalf("%d writes in T, %d in 2T: the runs did not scale", n1, n2)
	}
	if end1 != end2 {
		t.Fatalf("%d log entries held after T, %d after 2T", end1, end2)
	}
	// A write is in five logs, and retries can add a few entries per
	// client on top of the one op each has outstanding.
	if limit := replicas * clients * 2; w1 > limit || w2 > limit {
		t.Fatalf("widest summed window %d (T) and %d (2T), want at most %d", w1, w2, limit)
	}
}

// controlPlaneRack is the determinism test's rack row: a 2-switch,
// 4-group chain rack with every control-plane feature armed, under a
// closed zipf-1.2 load over keys keys and a scripted migrate →
// AddGroup → RespecGroup.
func controlPlaneRack(keys int) (Config, LoadSpec, []Step) {
	cfg := Config{
		Protocol: Chain, Replicas: 3, UseHarmonia: true, Groups: 4, Switches: 2,
		AutoRebalance: true, HotKeys: true, Trace: trace.Config{SampleEvery: 4},
		RecordHistory: true, DropProb: 0.01, Seed: 5,
	}
	spec := LoadSpec{
		Mode: Closed, Clients: 32, Duration: 24 * time.Millisecond, Warmup: 2 * time.Millisecond,
		WriteRatio: 0.1, Keys: keys, Dist: Zipf12,
	}
	steps := []Step{
		{3 * time.Millisecond, Func{"migrate", func(c *Cluster) error { _, err := c.StartBatchMigration([]int{c.slotsOf(0)[0]}, 1); return err }}},
		{8 * time.Millisecond, AddGroup{GroupSpec{Protocol: Chain, Replicas: 3}}},
		{15 * time.Millisecond, RespecGroup{2, GroupSpec{Protocol: VR, Replicas: 3}}},
	}
	return cfg, spec, steps
}
