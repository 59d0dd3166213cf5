package cluster

import (
	"fmt"
	"math"
	"time"

	"harmonia/internal/rack"
	"harmonia/internal/rebalance"
	"harmonia/internal/trace"
	"harmonia/internal/workload"
)

// Configuration has one path: Config.Validate is the only code that
// rejects a shape, Config.resolve the only code that writes a default,
// and New runs both. What the paper fixes is not configurable at all —
// it is the calibration below.

// Paper calibration. Every figure this reproduction regenerates is
// taken at these values, and no experiment varies them.
const (
	// §9.1: one storage server runs 8 Redis shards (one worker each)
	// and serves 0.92 MQPS of reads or 0.80 MQPS of writes, so one
	// worker spends serverWorkers/rate on each operation.
	serverWorkers = 8
	serverShards  = 8
	readCost      = 8695 * time.Nanosecond // 8 / 0.92 MQPS, truncated to the nanosecond
	writeCost     = 10 * time.Microsecond  // 8 / 0.80 MQPS
	// controlCost is a replica's service time for a protocol control
	// message (lease grant, view change, sync).
	controlCost = 2 * time.Microsecond
	// §9.1: servers and the switch share one rack; a hop is 5µs.
	linkLatency = 5 * time.Microsecond
	// §5.3: the controller renews fast-read leases at half-life.
	leaseDuration = 50 * time.Millisecond
	// retryTimeout is how long a client waits before resending.
	retryTimeout = 2 * time.Millisecond
	// dropBackoff bounds the random delay before a client reissues a
	// write the switch dropped because its dirty set was full.
	dropBackoff = time.Microsecond
	// §7.3: the NOPaxos leader synchronizes the replicas this often.
	syncEvery = time.Millisecond
	// §5.2: each scheduler partition sweeps its stray dirty entries
	// this often (strays accumulate when WRITE-COMPLETIONs are lost and
	// the object is never read again, out of the read-path cleanup's
	// reach). DisableLazyCleanup turns the sweep off too.
	sweepInterval = 10 * time.Millisecond
	// §9.1: the default operation mix is 5% writes — the operating
	// point the derived capacity weights are calibrated at.
	defaultWriteRatio = 0.05
)

// Defaults of the options that stay settable: §9.1's three replicas
// and §8's 3-stage × 64K-slot dirty set.
const (
	defaultReplicas      = 3
	defaultStages        = 3
	defaultSlotsPerStage = 64000
)

// Protocol selects the replication protocol running on the replicas
// (§7 of the paper; CRAQ, the protocol-level baseline of §9.5, runs as
// chain replication's apportioned-read mode).
type Protocol int

// The supported protocols.
const (
	PB Protocol = iota
	Chain
	CRAQ
	VR
	NOPaxos
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case PB:
		return "PB"
	case Chain:
		return "CR"
	case CRAQ:
		return "CRAQ"
	case VR:
		return "VR"
	case NOPaxos:
		return "NOPaxos"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// GroupSpec describes one replica group of a heterogeneous cluster
// (Config.GroupSpecs, AddGroup, RespecGroup).
type GroupSpec struct {
	// Protocol is this group's replication protocol. Each spec names
	// its protocol explicitly (the zero value is primary-backup, as in
	// Config). A CRAQ group is always the protocol-level baseline: a
	// chain that serves reads at every node, it runs without switch
	// assistance even in a UseHarmonia cluster, and the two coexist in
	// one rack.
	Protocol Protocol
	// Replicas is this group's size (0 inherits Config.Replicas).
	Replicas int
	// Weight is the group's relative capacity — the number the
	// weighted slot-shard layout, the rebalancer's per-capacity-unit
	// thresholds, and the pinned client pool's split all normalize by.
	// 0 derives it from the group's calibrated service rate
	// (workload.ServiceRate at the paper's default 5% write ratio), so
	// a 7-replica fast-read group automatically outweighs a 3-replica
	// one. Only ratios between groups matter — which is why Weight
	// must be set on every spec or on none: derived weights are
	// absolute service rates (millions of ops/s), a scale explicit
	// ratios like 5:1 cannot meaningfully mix with, so the mixture is
	// rejected instead of silently inverting the intended split.
	Weight float64
}

// ResolvedSpec is a group's spec as assembled: Replicas and Weight
// defaulted, plus what resolution derived from the cluster around it.
type ResolvedSpec struct {
	GroupSpec
	// Harmonia reports whether the group's scheduler partition runs
	// in-network conflict detection: the cluster's UseHarmonia, except
	// for CRAQ groups.
	Harmonia bool
	// Workers is the server model's worker count per replica, the
	// number a replica node's utilization is normalized by.
	Workers int
}

// Config parameterizes a cluster. The zero value of every optional
// field selects its default.
type Config struct {
	// Protocol, Replicas (default 3, the paper's) and UseHarmonia
	// describe every group of a uniform cluster; UseHarmonia false
	// runs the unmodified protocol as a baseline.
	Protocol    Protocol
	Replicas    int
	UseHarmonia bool

	// Groups shards the key space across this many replica groups
	// (§6.1). Each group runs its own protocol instance over Replicas
	// members and its own scheduler partition. Default 1: the classic
	// single-group rack; at most MaxGroups.
	Groups int

	// GroupSpecs, when non-nil, makes the cluster heterogeneous: one
	// spec per group, overriding Protocol/Replicas per shard. Groups
	// must then be zero or len(GroupSpecs). Nil keeps the uniform
	// behavior — every group a copy of the cluster-wide settings,
	// bit-compatible with the pre-spec layout, routing, and load split.
	GroupSpecs []GroupSpec

	// Switches spreads the groups across this many switch front-ends,
	// each a failure domain of its own: a contiguous shard of the
	// routing slots, an independent epoch counter, an independent lease
	// domain, and its own heat registers. Rebooting one switch stalls
	// only its groups. Default 1: the classic single-switch rack; at
	// most MaxSwitches, and never more than the group count (every
	// switch hosts at least one group).
	Switches int

	// Switch dirty-set sizing (defaults: 3 × 64000, the prototype's).
	// Each group's partition gets a table of this size.
	Stages        int
	SlotsPerStage int

	// Perturbations of the client↔switch↔replica packet path (default:
	// lossless, in order, no jitter). LinkJitter also varies the delay of
	// the replica↔replica and controller channels, which stay FIFO.
	LinkJitter   time.Duration
	DropProb     float64
	ReorderProb  float64
	ReorderDelay time.Duration

	// Ablations.
	DisableReadChecks  bool // replicas skip the §7 fast-read check (unsafe)
	DisableLazyCleanup bool // stray dirty entries never reclaimed
	EagerCompletions   bool // VR: completions at commit, not after COMMIT-ACKs

	// AutoRebalance arms the autonomous rebalancer: a control loop
	// that samples the front-end's per-slot heat counters every policy
	// interval (decaying them afterwards, so they track a recent
	// window), plans moves under the threshold/hysteresis/cost model
	// of internal/rebalance, and executes them as batch slot
	// migrations — no offline workload knowledge involved.
	AutoRebalance bool

	// Rebalance tunes the rebalancer policy; zero fields select the
	// package defaults. Ignored unless AutoRebalance is set.
	Rebalance rebalance.Config

	// HotKeys arms per-key hot replication: when a switch domain's
	// rebalancer trigger fires but the round plans nothing (the
	// indivisible-hot-slot case batch migration cannot fix), the
	// slot's dominant key is promoted to a replicated set spanning
	// 2–4 groups of the domain. The switch then round-robins the
	// key's clean reads across home + holders and invalidates the
	// holder copies on every write, Hermes-style; the cluster
	// refreshes them from the home group as writes commit. Automatic
	// promotion needs AutoRebalance (the stuck signal comes from the
	// rebalancer's policy); PromoteKey/DemoteKey work regardless.
	HotKeys bool

	// HotKey tunes the promotion/demotion policy; zero fields select
	// the package defaults. Ignored unless HotKeys is set.
	HotKey rebalance.HotKeyConfig

	// RecordHistory captures every operation for linearizability
	// checking (costs memory; off for throughput runs).
	RecordHistory bool

	// Trace configures sampled per-op span tracing (internal/trace).
	// The zero value leaves tracing off, which keeps every guarded
	// fast path allocation-free; SampleEvery = N traces one op in N
	// and folds completed spans into the per-phase latency breakdown.
	// The control-plane flight recorder is independent of this knob —
	// it is always on (a bounded ring of fixed-size events costs
	// nothing on the data path).
	Trace trace.Config

	// Seed makes runs reproducible (default 1).
	Seed int64
}

// Validate reports why the configuration cannot be assembled, or nil.
// It is the whole rule set: the public API returns its error, New
// panics with it, and AddGroup/RespecGroup hold a runtime spec to the
// same per-spec checks.
func (c Config) Validate() error {
	if c.Replicas < 0 {
		return fmt.Errorf("cluster: invalid replica count %d", c.Replicas)
	}
	if c.Stages < 0 || c.SlotsPerStage < 0 {
		return fmt.Errorf("cluster: invalid dirty-set shape %d×%d", c.Stages, c.SlotsPerStage)
	}
	if c.Groups < 0 || c.Groups > MaxGroups {
		return fmt.Errorf("cluster: invalid group count %d (max %d)", c.Groups, MaxGroups)
	}
	if c.Switches < 0 || c.Switches > MaxSwitches {
		return fmt.Errorf("cluster: invalid switch count %d (max %d)", c.Switches, MaxSwitches)
	}
	if n := len(c.GroupSpecs); n == 0 {
		// Uniform cluster: the cluster-wide protocol is what every
		// group runs. With GroupSpecs each spec names its own, and a
		// CRAQ group simply runs unassisted.
		if c.Protocol == CRAQ && c.UseHarmonia {
			return fmt.Errorf("cluster: CRAQ is the protocol-level baseline and does not take switch assistance")
		}
	} else {
		if n > MaxGroups {
			return fmt.Errorf("cluster: %d group specs (max %d)", n, MaxGroups)
		}
		if c.Groups != 0 && c.Groups != n {
			return fmt.Errorf("cluster: Groups %d disagrees with %d group specs (set one or make them equal)", c.Groups, n)
		}
		explicit := 0
		for _, gs := range c.GroupSpecs {
			if gs.Weight > 0 {
				explicit++
			}
		}
		if explicit != 0 && explicit != n {
			return fmt.Errorf("cluster: %d of %d group specs set Weight — set it on every spec or on none (derived and explicit weights do not share a scale)", explicit, n)
		}
	}
	if err := c.Rebalance.Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	// The remaining rules are about effective values — a group's
	// inherited size, the rack shape its weights select — so they are
	// checked on this copy once resolved, not by re-deriving defaults
	// (resolve replaces zeros only: what is out of range stays so).
	specs := c.resolve()
	for g, sp := range specs {
		if err := sp.validate(); err != nil {
			return fmt.Errorf("cluster: group %d: %w", g, err)
		}
	}
	if err := rack.ValidateWeights(c.Switches, weightsOf(specs)); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// weightsOf lists the specs' capacity weights in group order.
func weightsOf(specs []ResolvedSpec) []float64 {
	out := make([]float64, len(specs))
	for g, sp := range specs {
		out[g] = sp.Weight
	}
	return out
}

// validate is the per-spec rule set, applied once the spec inherited
// its defaults — at assembly and to every spec AddGroup/RespecGroup
// are handed.
func (sp ResolvedSpec) validate() error {
	if sp.Protocol < PB || sp.Protocol > NOPaxos {
		return fmt.Errorf("unknown protocol %d", sp.Protocol)
	}
	if sp.Replicas < 0 || (sp.Replicas == 1 && sp.Protocol == VR) {
		return fmt.Errorf("invalid replica count %d for %v", sp.Replicas, sp.Protocol)
	}
	if sp.Replicas > int(incStride) {
		return fmt.Errorf("group size %d exceeds the per-incarnation address window %d", sp.Replicas, incStride)
	}
	if sp.Weight < 0 || math.IsNaN(sp.Weight) || math.IsInf(sp.Weight, 0) {
		return fmt.Errorf("invalid capacity weight %v", sp.Weight)
	}
	return nil
}

// resolve writes every default into c and returns the per-group specs
// the cluster assembles with. A uniform cluster synthesizes one spec
// per group from the cluster-wide fields, so every downstream layer
// reads specs unconditionally; c.GroupSpecs is replaced, never written
// through. Only zero values are replaced: anything out of range stays
// as it is, for Validate to reject.
func (c *Config) resolve() []ResolvedSpec {
	if c.Replicas == 0 {
		c.Replicas = defaultReplicas
	}
	if len(c.GroupSpecs) > 0 {
		c.Groups = len(c.GroupSpecs)
	}
	if c.Groups == 0 {
		c.Groups = 1
	}
	if c.Switches == 0 {
		c.Switches = 1
	}
	if c.Stages == 0 {
		c.Stages = defaultStages
	}
	if c.SlotsPerStage == 0 {
		c.SlotsPerStage = defaultSlotsPerStage
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Rebalance, c.HotKey = c.Rebalance.Filled(), c.HotKey.Filled()
	specs := make([]GroupSpec, c.Groups)
	resolved := make([]ResolvedSpec, c.Groups)
	for g := range specs {
		gs := GroupSpec{Protocol: c.Protocol}
		if len(c.GroupSpecs) > 0 {
			gs = c.GroupSpecs[g]
		}
		resolved[g] = c.resolveSpec(gs)
		specs[g] = resolved[g].GroupSpec
	}
	c.GroupSpecs = specs
	return resolved
}

// resolveSpec defaults one group spec against the resolved
// cluster-wide fields — shared with AddGroup/RespecGroup, so a group
// added at runtime is defaulted by exactly the assembly-time rules. An
// unset weight derives from one server's calibrated per-class rate:
// reads spread across the group under Harmonia fast reads or CRAQ's
// per-replica clean reads, writes always load every member.
func (c *Config) resolveSpec(gs GroupSpec) ResolvedSpec {
	if gs.Replicas == 0 {
		gs.Replicas = c.Replicas
	}
	sp := ResolvedSpec{GroupSpec: gs, Harmonia: c.UseHarmonia && gs.Protocol != CRAQ, Workers: serverWorkers}
	if sp.Weight == 0 {
		readRate := float64(serverWorkers) / readCost.Seconds()
		writeRate := float64(serverWorkers) / writeCost.Seconds()
		spread := sp.Harmonia || sp.Protocol == CRAQ
		sp.Weight = workload.ServiceRate(sp.Replicas, spread, defaultWriteRatio, readRate, writeRate)
	}
	return sp
}
