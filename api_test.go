// Table-driven coverage for the public Config surface plus a smoke
// test that a short Run populates every Report and SwitchStats field.
package harmonia

import (
	"fmt"
	"math"
	"testing"
	"time"

	"harmonia/internal/cluster"
)

// checkConfig holds one configuration to the single rule set: New and
// cluster.Config.Validate must agree on the verdict, New's error must
// be Validate's error (nothing is rejected in this package), and the
// same invalid config handed straight to cluster.New must panic with
// it instead of being clamped into shape.
func checkConfig(t *testing.T, cfg Config, wantErr bool) *Cluster {
	t.Helper()
	c, err := New(cfg)
	verr := cfg.internal().Validate()
	if (err != nil) != wantErr || (verr != nil) != wantErr {
		t.Fatalf("config %+v: New err = %v, Validate err = %v, wantErr %v", cfg, err, verr, wantErr)
	}
	if !wantErr {
		return c
	}
	if want := "harmonia: " + verr.Error(); err.Error() != want {
		t.Fatalf("New rejected with %q, want the Validate error %q", err, want)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatalf("cluster.New accepted a config Validate rejects (%v)", verr)
		} else if perr, ok := r.(error); !ok || perr.Error() != verr.Error() {
			t.Fatalf("cluster.New panicked with %v, want the Validate error %v", r, verr)
		}
	}()
	cluster.New(cfg.internal())
	return nil
}

func TestConfigValidationTable(t *testing.T) {
	chain2 := Config{Protocol: ChainReplication, Groups: 2}
	policy := func(rp RebalancePolicy) Config {
		cfg := chain2
		cfg.RebalancePolicy = rp
		return cfg
	}
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"defaults", Config{}, false},
		{"chain harmonia", Config{Protocol: ChainReplication, Replicas: 3, UseHarmonia: true}, false},
		{"vr pair", Config{Protocol: ViewstampedReplication, Replicas: 2}, false},
		{"sharded", Config{Protocol: ChainReplication, Groups: 4, UseHarmonia: true}, false},
		{"max groups", Config{Protocol: ChainReplication, Groups: MaxGroups}, false},
		{"protocol below range", Config{Protocol: Protocol(-1)}, true},
		{"protocol above range", Config{Protocol: Protocol(99)}, true},
		{"craq with harmonia", Config{Protocol: CRAQ, UseHarmonia: true}, true},
		{"negative replicas", Config{Replicas: -1}, true},
		{"vr singleton", Config{Protocol: ViewstampedReplication, Replicas: 1}, true},
		{"group larger than its address window", Config{Protocol: ChainReplication, Replicas: 65}, true},
		{"negative stages", Config{Stages: -1}, true},
		{"negative slots", Config{SlotsPerStage: -5}, true},
		{"negative groups", Config{Groups: -1}, true},
		{"too many groups", Config{Groups: MaxGroups + 1}, true},
		{"multi-switch", Config{Protocol: ChainReplication, Groups: 4, Switches: 2, UseHarmonia: true}, false},
		{"max switches", Config{Protocol: ChainReplication, Groups: MaxSwitches, Switches: MaxSwitches}, false},
		{"negative switches", Config{Switches: -1}, true},
		{"too many switches", Config{Groups: 16, Switches: MaxSwitches + 1}, true},
		{"more switches than groups", Config{Groups: 2, Switches: 4}, true},
		{"switches without groups", Config{Switches: 4}, true},
		{"a switch with more groups than slots", Config{Groups: 255, Switches: 7}, true},
		{"tuned policy", policy(RebalancePolicy{Threshold: 1.3, Hysteresis: 0.1, Interval: time.Millisecond, MaxSlotsPerRound: 4}), false},
		{"negative threshold", policy(RebalancePolicy{Threshold: -1}), true},
		{"negative hysteresis", policy(RebalancePolicy{Hysteresis: -0.1}), true},
		{"negative interval", policy(RebalancePolicy{Interval: -time.Second}), true},
		{"negative round size", policy(RebalancePolicy{MaxSlotsPerRound: -4}), true},
		{"hysteresis at the threshold", policy(RebalancePolicy{Threshold: 1.2, Hysteresis: 1.2}), true},
		// Threshold left to its default: a hysteresis at or above it
		// must still be rejected.
		{"hysteresis above the default threshold", policy(RebalancePolicy{Hysteresis: 1.6}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkConfig(t, tc.cfg, tc.wantErr) })
	}
}

func TestReportAndSwitchStatsPopulated(t *testing.T) {
	c, err := New(Config{Protocol: ChainReplication, Replicas: 3, UseHarmonia: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Run(LoadSpec{
		Clients: 32, Duration: 15 * time.Millisecond, Warmup: 2 * time.Millisecond,
		WriteRatio: 0.1, Keys: 2000,
	})
	if rep.Ops == 0 || rep.Reads == 0 || rep.Writes == 0 {
		t.Fatalf("counts empty: %+v", rep)
	}
	if rep.Ops != rep.Reads+rep.Writes {
		t.Fatalf("ops %d != reads %d + writes %d", rep.Ops, rep.Reads, rep.Writes)
	}
	if rep.Throughput <= 0 || rep.ReadThroughput <= 0 || rep.WriteThroughput <= 0 {
		t.Fatalf("throughputs empty: %+v", rep)
	}
	if rep.MeanLatency <= 0 || rep.P50Latency <= 0 || rep.P99Latency < rep.P50Latency {
		t.Fatalf("latency stats inconsistent: %+v", rep)
	}
	if len(rep.GroupOps) != 1 || rep.GroupOps[0] != rep.Ops {
		t.Fatalf("single-group GroupOps wrong: %v vs ops %d", rep.GroupOps, rep.Ops)
	}
	st := c.SwitchStats()
	if st.Writes == 0 || st.FastReads == 0 || st.Completions == 0 {
		t.Fatalf("switch stats empty: %+v", st)
	}
	if st.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", st.Epoch)
	}
	if c.Groups() != 1 {
		t.Fatalf("Groups() = %d, want 1", c.Groups())
	}
}

// TestRackStatsPublicSurface drives a small multi-switch rack through
// a crash + replacement via the public API and checks the RackStats
// view: shard shapes, switch routing, independent epochs, and the
// agreement bill scoped to the replaced switch's own groups.
func TestRackStatsPublicSurface(t *testing.T) {
	c, err := New(Config{
		Protocol: ChainReplication, Replicas: 3, UseHarmonia: true,
		Groups: 4, Switches: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Switches() != 2 {
		t.Fatalf("Switches() = %d", c.Switches())
	}
	rs := c.RackStats()
	if len(rs.Switches) != 2 {
		t.Fatalf("RackStats has %d switches", len(rs.Switches))
	}
	if n := rs.Switches[0].OwnedSlots + rs.Switches[1].OwnedSlots; n != NumSlots {
		t.Fatalf("owned slots sum to %d, want %d", n, NumSlots)
	}
	for slot := 0; slot < NumSlots; slot++ {
		sw := c.SwitchOf(slot)
		if sw != 0 && sw != 1 {
			t.Fatalf("slot %d on switch %d", slot, sw)
		}
	}
	for g := 0; g < 4; g++ {
		if sw := c.SwitchOfGroup(g); sw != g/2 {
			t.Fatalf("group %d hosted on switch %d, want %d", g, sw, g/2)
		}
	}

	cl := c.Client()
	if err := cl.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashSwitch(1); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashSwitch(9); err == nil {
		t.Fatal("CrashSwitch(9) accepted an out-of-range switch")
	}
	if err := c.ReactivateSwitch(9); err == nil {
		t.Fatal("ReactivateSwitch(9) accepted an out-of-range switch")
	}
	c.AdvanceTime(time.Millisecond)
	if err := c.ReactivateSwitch(1); err != nil {
		t.Fatal(err)
	}
	c.AdvanceTime(10 * time.Millisecond)

	rs = c.RackStats()
	if rs.Switches[0].Epoch != 1 || rs.Switches[1].Epoch != 2 {
		t.Fatalf("epochs = %d, %d; want 1, 2 (independent domains)",
			rs.Switches[0].Epoch, rs.Switches[1].Epoch)
	}
	if rs.Switches[1].Replacements != 1 {
		t.Fatalf("replacements = %d", rs.Switches[1].Replacements)
	}
	// 2 groups × 3 live replicas on switch 1: 6 revokes + 6 acks.
	if rs.Switches[1].AgreementAcks != 6 || rs.Switches[1].AgreementMsgs != 12 {
		t.Fatalf("agreement bill = %d msgs / %d acks, want 12 / 6",
			rs.Switches[1].AgreementMsgs, rs.Switches[1].AgreementAcks)
	}
	if rs.Switches[0].AgreementMsgs != 0 {
		t.Fatal("replacing switch 1 billed switch 0")
	}
	if rs.Switches[1].LastAgreementLatency <= 0 {
		t.Fatal("agreement latency not recorded")
	}
	if v, ok, err := cl.Get("k"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after replacement = %q %v %v", v, ok, err)
	}
}

func TestGroupSpecConfigValidation(t *testing.T) {
	cr7 := GroupSpec{Protocol: ChainReplication, Replicas: 7}
	np3 := GroupSpec{Protocol: NOPaxos, Replicas: 3}
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"hetero pair", Config{UseHarmonia: true, GroupSpecs: []GroupSpec{cr7, np3}}, false},
		{"craq group in harmonia cluster", Config{UseHarmonia: true,
			GroupSpecs: []GroupSpec{cr7, {Protocol: CRAQ, Replicas: 3}}}, false},
		{"groups agrees with specs", Config{Groups: 2, GroupSpecs: []GroupSpec{cr7, np3}}, false},
		{"groups disagrees with specs", Config{Groups: 3, GroupSpecs: []GroupSpec{cr7, np3}}, true},
		{"spec protocol below range", Config{GroupSpecs: []GroupSpec{{Protocol: Protocol(-1)}}}, true},
		{"spec protocol above range", Config{GroupSpecs: []GroupSpec{{Protocol: Protocol(9)}}}, true},
		{"spec negative replicas", Config{GroupSpecs: []GroupSpec{{Protocol: ChainReplication, Replicas: -2}}}, true},
		{"spec vr singleton", Config{GroupSpecs: []GroupSpec{{Protocol: ViewstampedReplication, Replicas: 1}}}, true},
		{"spec vr inherits singleton default", Config{Replicas: 1,
			GroupSpecs: []GroupSpec{{Protocol: ViewstampedReplication}}}, true},
		{"spec negative weight", Config{GroupSpecs: []GroupSpec{{Protocol: ChainReplication, Weight: -1}}}, true},
		{"spec NaN weight", Config{GroupSpecs: []GroupSpec{{Protocol: ChainReplication, Weight: math.NaN()}}}, true},
		{"spec infinite weight", Config{GroupSpecs: []GroupSpec{{Protocol: ChainReplication, Weight: math.Inf(1)}}}, true},
		{"spec larger than its address window", Config{GroupSpecs: []GroupSpec{{Protocol: ChainReplication, Replicas: 65}}}, true},
		{"more specs than groups allowed", Config{GroupSpecs: make([]GroupSpec, MaxGroups+1)}, true},
		{"explicit weights", Config{GroupSpecs: []GroupSpec{
			{Protocol: ChainReplication, Weight: 5}, {Protocol: ChainReplication, Weight: 1}}}, false},
		// Derived weights are absolute service rates; explicit ones are
		// user-scale ratios. Half-specified weights would compare the
		// two scales, so the mixture is rejected.
		{"mixed explicit and derived weights", Config{GroupSpecs: []GroupSpec{
			{Protocol: ChainReplication, Replicas: 7, Weight: 5}, {Protocol: NOPaxos, Replicas: 3}}}, true},
		{"weighted multi-switch", Config{UseHarmonia: true, Switches: 2,
			GroupSpecs: []GroupSpec{cr7, np3, np3}}, false},
		{"more switches than specs", Config{Switches: 3, GroupSpecs: []GroupSpec{cr7, np3}}, true},
		// The cluster-wide CRAQ+Harmonia rejection applies to uniform
		// clusters only; per-group CRAQ just runs unassisted.
		{"uniform craq harmonia still rejected", Config{Protocol: CRAQ, UseHarmonia: true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if c := checkConfig(t, tc.cfg, tc.wantErr); c != nil && c.Groups() <= 0 {
				t.Fatal("no groups assembled")
			}
		})
	}
}

func TestGroupSpecEffectiveSpecsAndWeights(t *testing.T) {
	c, err := New(Config{
		UseHarmonia: true,
		GroupSpecs: []GroupSpec{
			{Protocol: ChainReplication, Replicas: 7},
			{Protocol: NOPaxos}, // inherits Replicas default 3
			{Protocol: CRAQ, Replicas: 3},
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	specs := c.GroupSpecs()
	if len(specs) != 3 {
		t.Fatalf("GroupSpecs() len = %d", len(specs))
	}
	if specs[0].Protocol != ChainReplication || specs[0].Replicas != 7 {
		t.Fatalf("spec 0 = %+v", specs[0])
	}
	if specs[1].Protocol != NOPaxos || specs[1].Replicas != 3 {
		t.Fatalf("spec 1 did not inherit the default size: %+v", specs[1])
	}
	w := c.GroupWeights()
	if len(w) != 3 || !(w[0] > w[1]) {
		t.Fatalf("weights %v do not favor the 7-replica group", w)
	}
	for _, x := range w {
		if !(x > 0) {
			t.Fatalf("non-positive derived weight in %v", w)
		}
	}
	// A uniform cluster reports uniform specs.
	u, err := New(Config{Protocol: ChainReplication, Groups: 2, UseHarmonia: true})
	if err != nil {
		t.Fatalf("New uniform: %v", err)
	}
	us := u.GroupSpecs()
	if us[0] != us[1] {
		t.Fatalf("uniform cluster reports unequal specs: %+v", us)
	}
}

func TestGroupSpecHeteroEndToEnd(t *testing.T) {
	c, err := New(Config{
		UseHarmonia: true,
		GroupSpecs: []GroupSpec{
			{Protocol: ChainReplication, Replicas: 7},
			{Protocol: NOPaxos, Replicas: 3},
		},
		RecordHistory: true, Seed: 7,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cl := c.Client()
	seen := make(map[int]bool)
	for i := 0; i < 48; i++ {
		key := fmt.Sprintf("user:%03d", i)
		if err := cl.Set(key, nil); err != nil {
			t.Fatalf("Set: %v", err)
		}
		if _, ok, err := cl.Get(key); err != nil || !ok {
			t.Fatalf("Get(%s): %v %v", key, ok, err)
		}
		seen[c.GroupOf(key)] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("groups hit: %v", seen)
	}
	// Per-group failure-injection bounds follow the specs.
	if err := c.CrashReplicaInGroup(1, 5); err == nil {
		t.Fatal("replica 5 of the 3-replica group accepted")
	}
	if err := c.CrashReplicaInGroup(0, 5); err != nil {
		t.Fatalf("crash replica 5 of the 7-replica group: %v", err)
	}
	for g := 0; g < c.Groups(); g++ {
		if res := c.CheckLinearizabilityGroup(g); !res.Decided || !res.Ok {
			t.Fatalf("group %d: %+v", g, res)
		}
	}
}
