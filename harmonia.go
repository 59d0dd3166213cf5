// Package harmonia is a reproduction of "Harmonia: Near-Linear
// Scalability for Replicated Storage with In-Network Conflict
// Detection" (Zhu et al., VLDB 2019).
//
// Harmonia makes replicated-storage reads scale nearly linearly with
// the number of replicas without giving up linearizability: a
// programmable switch on the data path tracks the set of objects with
// in-flight writes (the dirty set) plus a last-committed point, sends
// reads of uncontended objects to a single random replica, and lets
// the replica validate the read locally against the stamped commit
// point.
//
// This package is the public face of the reproduction: it assembles a
// fully simulated rack (calibrated discrete-event simulation of
// servers, links, and the switch data plane program) running one of
// five replication protocols — primary-backup, chain replication,
// CRAQ, Viewstamped Replication, or NOPaxos — with or without Harmonia
// assistance, and exposes clients, load generation, failure injection,
// and linearizability checking.
//
// Quick start:
//
//	c, err := harmonia.New(harmonia.Config{
//		Protocol:    harmonia.ChainReplication,
//		Replicas:    3,
//		UseHarmonia: true,
//	})
//	...
//	cl := c.Client()
//	_ = cl.Set("user:42", []byte("hello"))
//	v, ok, _ := cl.Get("user:42")
package harmonia

import (
	"fmt"
	"io"
	"time"

	"harmonia/internal/cluster"
	"harmonia/internal/core"
	"harmonia/internal/dataplane"
	"harmonia/internal/lincheck"
	"harmonia/internal/metrics"
	"harmonia/internal/rebalance"
	"harmonia/internal/trace"
	"harmonia/internal/wire"
)

// Protocol selects the replication protocol running on the replicas.
type Protocol = cluster.Protocol

// The supported protocols (§7 of the paper; CRAQ is the protocol-level
// baseline of §9.5).
const (
	PrimaryBackup          = cluster.PB
	ChainReplication       = cluster.Chain
	CRAQ                   = cluster.CRAQ
	ViewstampedReplication = cluster.VR
	NOPaxos                = cluster.NOPaxos
)

// Config describes the cluster to build. The zero value of every
// optional field selects the paper's default (3 replicas, a 3-stage ×
// 64K-slot dirty set). The server and network calibration — 8-shard
// servers at 0.92/0.80 MQPS reads/writes, 5µs links — is not
// configurable: it is what the paper's numbers are taken at.
type Config struct {
	// Protocol is the replication protocol.
	Protocol Protocol
	// Replicas is the group size (default 3, the paper's default).
	Replicas int
	// UseHarmonia enables in-network conflict detection; false runs
	// the unmodified protocol as a baseline.
	UseHarmonia bool

	// Groups shards the key space across this many replica groups
	// (§6.1): each group runs its own protocol instance over Replicas
	// members and its own scheduler partition (sequence number, dirty
	// set, last-committed point). Aggregate throughput scales with the
	// group count because groups share nothing but the switch ASIC.
	// Default 1, the classic single-group rack; at most MaxGroups.
	Groups int

	// GroupSpecs makes the cluster heterogeneous: one spec per replica
	// group, each naming its own protocol, size, and relative capacity
	// weight, so a hot 7-replica Harmonia(CR) shard can run next to
	// cold 3-replica NOPaxos shards in one rack. When set, Groups must
	// be zero or equal to len(GroupSpecs). Slot shards, the autonomous
	// rebalancer's thresholds, and pinned load generation all follow
	// the groups' capacity weights, and slots migrate between groups of
	// different protocols exactly as between uniform ones.
	//
	// Nil keeps today's uniform behavior — every group a copy of
	// Protocol/Replicas — bit-compatible with the pre-spec layout,
	// routing, and load split.
	GroupSpecs []GroupSpec

	// Switches spreads the groups across this many switch front-ends —
	// a multi-switch rack. Each switch owns a contiguous shard of the
	// NumSlots routing slots and is an independent failure domain: its
	// own §5.3 epoch counter, its own lease domain, its own heat
	// registers. Crashing or replacing one switch stalls only the slots
	// it owns, and the controller's replacement agreement runs per
	// (switch, group) pair, so its cost scales with groups-per-switch
	// rather than rack size. Slots migrate across switch boundaries
	// with MigrateSlot/MigrateSlots exactly as within one switch.
	// Default 1, the classic single-switch rack; at most MaxSwitches,
	// and never more than Groups (every switch hosts at least one
	// group).
	Switches int

	// Stages and SlotsPerStage size the switch's dirty-set hash table.
	Stages, SlotsPerStage int

	// DropProb / ReorderProb / ReorderDelay / LinkJitter perturb the
	// client↔switch↔replica packet path (replica↔replica channels
	// model TCP: LinkJitter varies their delay, and they stay reliable
	// and in order).
	DropProb     float64
	ReorderProb  float64
	ReorderDelay time.Duration
	LinkJitter   time.Duration

	// AutoRebalance arms the autonomous rebalancer: the switch
	// front-end's per-slot heat counters (register arrays, the §4–5
	// trick applied to load) feed a control loop that detects
	// per-group imbalance and migrates batches of hot slots on its own
	// — thresholds, hysteresis, a move-cost veto, and a cool-down keep
	// it from thrashing. No offline workload knowledge is involved.
	AutoRebalance bool

	// RebalancePolicy tunes the rebalancer; zero fields select the
	// defaults (trigger at 1.5× the fair share, re-arm below 1.25×,
	// sample every 1ms of simulated time, ≤8 slots per round).
	RebalancePolicy RebalancePolicy

	// HotKeys arms per-key hot replication: when the rebalancer
	// detects an overloaded slot it cannot split (a single key
	// dominates it), the controller promotes that key to a replicated
	// set spanning up to three extra groups on the same switch. The
	// switch round-robins clean reads of a promoted key across the
	// holders; writes keep going to the home group and piggyback a
	// switch-driven invalidation marking the other copies stale until
	// refreshed. Automatic promotion requires AutoRebalance (the heat
	// machinery drives detection); manual PromoteKey works either way.
	HotKeys bool

	// RecordHistory captures all operations for CheckLinearizability.
	RecordHistory bool

	// Trace arms sampled per-operation span tracing: one op in
	// Trace.SampleEvery rides a pooled span record from client enqueue
	// through switch sequencing, per-replica queue/service, retries,
	// and completion, and the completed spans fold into
	// Report.LatencyBreakdown. The zero value leaves tracing off, which
	// keeps the guarded fast paths allocation-free. The control-plane
	// flight recorder (Events, WriteChromeTrace) is always on and does
	// not depend on this knob.
	Trace TraceConfig

	// Seed makes runs reproducible (default 1).
	Seed int64
}

// TraceConfig sizes the span sampler (Config.Trace).
type TraceConfig = trace.Config

// GroupSpec describes one replica group of a heterogeneous cluster
// (Config.GroupSpecs): its protocol, its size (0 inherits
// Config.Replicas) and its capacity weight (0 derives it from the
// group's calibrated service rate; set it on every spec or on none).
type GroupSpec = cluster.GroupSpec

// RebalancePolicy tunes the autonomous rebalancer's control loop. All
// thresholds are measured per capacity unit: each group's load is
// normalized by its capacity weight before comparison, so on a
// heterogeneous cluster a 7-replica group legitimately carries more
// raw load than a 3-replica one without tripping the trigger. On a
// uniform cluster every weight is equal and the ratios reduce to the
// classic per-group readings.
type RebalancePolicy struct {
	// Threshold is the per-capacity-unit load ratio that triggers a
	// rebalancing round (default 1.5: the hottest group carries ≥1.5×
	// its capacity-weighted fair share).
	Threshold float64
	// Hysteresis widens the re-arm band: after a round fires, no new
	// round triggers until imbalance falls below Threshold−Hysteresis
	// (default 0.25). This is what prevents ping-pong when two groups
	// oscillate around the threshold.
	Hysteresis float64
	// Interval is the sampling cadence, which is also the heat
	// counters' EWMA decay period (default 1ms of simulated time).
	Interval time.Duration
	// MaxSlotsPerRound bounds one round's batch migration (default 8).
	MaxSlotsPerRound int
}

// MaxGroups bounds Config.Groups.
const MaxGroups = cluster.MaxGroups

// MaxSwitches bounds Config.Switches.
const MaxSwitches = cluster.MaxSwitches

// Cluster is an assembled simulated rack.
type Cluster struct {
	c *cluster.Cluster
}

// New builds and primes a cluster. What makes a configuration valid,
// and what its zero fields default to, is decided in internal/cluster.
func New(cfg Config) (*Cluster, error) {
	ccfg := cfg.internal()
	if err := ccfg.Validate(); err != nil {
		return nil, prefixed(err)
	}
	return &Cluster{c: cluster.New(ccfg)}, nil
}

// internal spells cfg out as the cluster package's configuration.
func (cfg Config) internal() cluster.Config {
	return cluster.Config{
		Protocol:      cfg.Protocol,
		Replicas:      cfg.Replicas,
		UseHarmonia:   cfg.UseHarmonia,
		Groups:        cfg.Groups,
		GroupSpecs:    cfg.GroupSpecs,
		Switches:      cfg.Switches,
		Stages:        cfg.Stages,
		SlotsPerStage: cfg.SlotsPerStage,
		DropProb:      cfg.DropProb,
		ReorderProb:   cfg.ReorderProb,
		ReorderDelay:  cfg.ReorderDelay,
		LinkJitter:    cfg.LinkJitter,
		AutoRebalance: cfg.AutoRebalance,
		HotKeys:       cfg.HotKeys,
		Rebalance: rebalance.Config{
			Threshold:        cfg.RebalancePolicy.Threshold,
			Hysteresis:       cfg.RebalancePolicy.Hysteresis,
			Interval:         cfg.RebalancePolicy.Interval,
			MaxSlotsPerRound: cfg.RebalancePolicy.MaxSlotsPerRound,
		},
		RecordHistory: cfg.RecordHistory,
		Trace:         cfg.Trace,
		Seed:          cfg.Seed,
	}
}

// Client returns a synchronous client. Each call registers a new
// client identity; operations advance the simulation until the reply
// arrives.
func (cl *Cluster) Client() *Client {
	return &Client{s: cl.c.NewSyncClient()}
}

// Client issues synchronous operations against the cluster.
type Client struct {
	s *cluster.SyncClient
}

// Get reads a key. found reports whether the key exists.
func (c *Client) Get(key string) (value []byte, found bool, err error) { return c.s.Get(key) }

// Set writes a key.
func (c *Client) Set(key string, value []byte) error { return c.s.Set(key, value) }

// Delete removes a key.
func (c *Client) Delete(key string) error { return c.s.Delete(key) }

// Dist selects a key popularity distribution for load generation.
type Dist = cluster.Dist

// Distributions from the paper's methodology (§9.1), plus the
// heavy-tailed variant the rebalancing experiments use.
const (
	Uniform = cluster.Uniform
	Zipf09  = cluster.Zipf09 // zipfian, θ = 0.9
	Zipf12  = cluster.Zipf12 // zipfian, θ = 1.2 (heavy-tailed hot spot)
)

// LoadSpec describes a load-generation run.
type LoadSpec struct {
	// Closed-loop clients (default 64). When Rate > 0 the run is
	// open-loop Poisson instead and Clients is ignored.
	Clients int
	Rate    float64 // ops/second, open loop

	Duration time.Duration // measurement window (default 50ms)
	Warmup   time.Duration

	WriteRatio float64 // fraction of writes (paper default 0.05)
	Keys       int     // key-space size (default 100k)
	Dist       Dist

	// PinGroups shards load generation the way the data is sharded.
	// Closed loop: Clients are split across the replica groups by
	// capacity weight and each sub-pool draws keys only from its
	// group's slice of the key space, so shards saturate
	// independently; per-group completions land in Report.GroupOps.
	// Open loop: each Poisson arrival draws a group by weight first,
	// then a shard-local key, and the offered split lands in
	// Report.GroupOffered. Ignored for single-group clusters.
	PinGroups bool

	// Bucket > 0 additionally collects a completion-rate time series
	// (the Fig. 10 visualization).
	Bucket time.Duration
}

// Report summarizes a load run.
type Report struct {
	Ops             uint64
	Reads, Writes   uint64
	Throughput      float64 // ops/second
	ReadThroughput  float64
	WriteThroughput float64
	MeanLatency     time.Duration
	P50Latency      time.Duration
	P99Latency      time.Duration
	Retries         uint64
	// Dropped counts writes the switch rejected with FlagDropped
	// replies (dirty set full), each reissued within a microsecond by
	// the client — distinct from the timeout-driven Retries.
	Dropped uint64
	// Rebalances counts slot moves the autonomous rebalancer completed
	// during the measurement window (0 unless Config.AutoRebalance).
	Rebalances uint64
	Series     []SeriesPoint
	// GroupOps counts completed operations per replica group (index =
	// group). Always length Config.Groups; a single-group cluster puts
	// everything in GroupOps[0].
	GroupOps []uint64
	// GroupOffered counts operations issued per replica group during
	// the measurement window by a sharded (PinGroups) open-loop run —
	// the offered-load split before completions. Nil otherwise.
	GroupOffered []uint64
	// LatencyBreakdown decomposes the sampled ops' end-to-end latency
	// into the five trace phases — queue (replica scheduler wait),
	// service (modeled per-op CPU), network (links, switch traversal,
	// unstamped replication legs), retry (loss-driven resend gaps),
	// and frozen-stall (resend gaps from migration freezes and switch
	// replacement agreements) — overall and per group/switch. The five
	// phase sums reconcile exactly with the traced ops' end-to-end
	// latency (a telescoping identity of the stamps). Nil unless
	// Config.Trace armed sampling.
	LatencyBreakdown *LatencyBreakdown
}

// LatencyBreakdown is a run's phase decomposition (see
// Report.LatencyBreakdown).
type LatencyBreakdown = cluster.LatencyBreakdown

// PhaseBreakdown is one latency decomposition: a LatencyHistogram per
// phase, with each phase's boundaries documented on its field.
type PhaseBreakdown = cluster.PhaseBreakdown

// SeriesPoint is one time-series bucket.
type SeriesPoint struct {
	Start time.Duration
	Rate  float64 // completions per second
}

// Run executes a load specification.
func (cl *Cluster) Run(spec LoadSpec) Report {
	mode := cluster.Closed
	if spec.Rate > 0 {
		mode = cluster.Open
	}
	rep := cl.c.RunLoad(cluster.LoadSpec{
		Mode:       mode,
		Clients:    spec.Clients,
		Rate:       spec.Rate,
		Duration:   spec.Duration,
		Warmup:     spec.Warmup,
		WriteRatio: spec.WriteRatio,
		Keys:       spec.Keys,
		Dist:       spec.Dist,
		PinGroups:  spec.PinGroups,
		Bucket:     spec.Bucket,
	})
	out := Report{
		Ops: rep.Ops, Reads: rep.Reads, Writes: rep.Writes,
		Throughput:       rep.Throughput,
		ReadThroughput:   rep.ReadThroughput,
		WriteThroughput:  rep.WriteThroughput,
		MeanLatency:      rep.Latency.Mean(),
		P50Latency:       rep.Latency.Quantile(0.5),
		P99Latency:       rep.Latency.Quantile(0.99),
		Retries:          rep.Retries,
		Dropped:          rep.Dropped,
		Rebalances:       rep.Rebalances,
		GroupOps:         rep.GroupOps,
		GroupOffered:     rep.GroupOffered,
		LatencyBreakdown: rep.LatencyBreakdown,
	}
	if rep.Series != nil {
		for _, p := range rep.Series.Points() {
			out.Series = append(out.Series, SeriesPoint{Start: p.Start, Rate: p.Rate})
		}
	}
	return out
}

// Preload installs n objects across the replicas before measurement.
// It warms a cluster before any load: each group's objects are built
// once, in its first replica, and copied table by table to the others.
func (cl *Cluster) Preload(n int) { cl.c.Preload(n) }

// AdvanceTime runs the simulation for d without client load.
func (cl *Cluster) AdvanceTime(d time.Duration) { cl.c.RunFor(d) }

// StopSwitch halts every switch in the rack — for a single-switch
// cluster, exactly the paper's §9.6 failure experiment. Multi-switch
// racks crash one failure domain at a time with CrashSwitch.
func (cl *Cluster) StopSwitch() { cl.c.StopSwitch() }

// CrashSwitch fails switch s: its front-end stops forwarding for the
// groups it hosts, while every other switch's slot shard keeps serving
// — including fast-path reads — undisturbed.
func (cl *Cluster) CrashSwitch(s int) error { return cl.c.CrashSwitch(s) }

// ReactivateSwitch boots replacement switches — the listed ones, or
// every switch when called with no arguments — each with a fresh epoch
// in its own epoch domain and empty register state, and runs the §5.3
// revoke/ack agreement per (switch, group) pair before the replacement
// may serve. Replacing one switch of a multi-switch rack stalls only
// its own slot shard; the agreement's message count scales with the
// groups that switch hosts, not with rack size (see RackStats). An
// out-of-range index is an error and nothing is reactivated.
func (cl *Cluster) ReactivateSwitch(switches ...int) error {
	return cl.c.ReactivateSwitch(switches...)
}

// CrashReplica fails replica i of group 0 and reconfigures the
// protocol around it where supported — the whole story for
// single-group clusters. Sharded clusters use CrashReplicaInGroup.
func (cl *Cluster) CrashReplica(i int) error { return cl.c.CrashReplicaIn(0, i) }

// CrashReplicaInGroup fails replica i of group g. Only that group
// reconfigures; the other shards keep serving undisturbed. Bounds and
// protocol capabilities are per group: on a heterogeneous cluster i
// runs to that group's own replica count, and reconfiguration support
// follows that group's protocol.
func (cl *Cluster) CrashReplicaInGroup(g, i int) error { return cl.c.CrashReplicaIn(g, i) }

// Groups returns the replica-group count.
func (cl *Cluster) Groups() int { return cl.c.Groups() }

// GroupSpecs returns the effective per-group specs the cluster
// assembled with — protocol, replica count, and capacity weight, with
// every default and derived weight resolved. A cluster built without
// Config.GroupSpecs reports one uniform spec per group.
func (cl *Cluster) GroupSpecs() []GroupSpec {
	return append([]GroupSpec(nil), cl.c.Config().GroupSpecs...)
}

// GroupWeights returns the effective per-group capacity weights — the
// vector the weighted slot layout, the rebalancer's thresholds, and
// PinGroups load generation normalize by. Only the ratios between
// entries are meaningful.
func (cl *Cluster) GroupWeights() []float64 { return cl.c.GroupWeights() }

// Switches returns the switch front-end count.
func (cl *Cluster) Switches() int { return cl.c.Switches() }

// SwitchOf returns the switch front-end currently serving slot, per
// the rack's slot → switch map (the map clients consult to pick a
// front-end; cross-switch migrations update it at the flip).
func (cl *Cluster) SwitchOf(slot int) int { return cl.c.SwitchOf(slot) }

// SwitchOfGroup returns the switch hosting group g's scheduler
// partition. Groups never change switches; slots do.
func (cl *Cluster) SwitchOfGroup(g int) int { return cl.c.SwitchOfGroup(g) }

// SwitchDomainStats describes one switch front-end's failure domain:
// its epoch, what it owns, and the cost of its §5.3 agreements.
type SwitchDomainStats struct {
	// Epoch is the switch's current incarnation ID. Replacing a switch
	// bumps only its own epoch.
	Epoch uint32
	// Groups lists the replica groups hosted on this switch.
	Groups []int
	// OwnedSlots counts the routing slots this front-end serves.
	OwnedSlots int
	// Replacements counts completed §5.3 switch replacements.
	Replacements uint64
	// AgreementMsgs is the total §5.3 agreement message count (revokes
	// sent + acks received) across this switch's replacements — it
	// scales with the live replicas of the groups the switch hosts
	// (heterogeneous groups bill their actual sizes), never with rack
	// size.
	AgreementMsgs uint64
	// AgreementAcks is the acks-received share of AgreementMsgs: per
	// replacement, exactly one ack per live replica of each hosted
	// group — on a heterogeneous rack, the sum of those groups' own
	// replica counts, not a uniform groups×replicas product.
	AgreementAcks uint64
	// LastAgreementLatency is the most recent replacement's agreement
	// duration (first revoke to last group's completion).
	LastAgreementLatency time.Duration
	// StalledOps counts client operations dropped because a hosted
	// group's partition was still booting mid-replacement.
	StalledOps uint64
	// MisroutedDrops counts packets that arrived for a slot this
	// front-end does not own (stale maps, in-flight cross-switch
	// flips).
	MisroutedDrops uint64
	// FrozenDrops counts packets dropped on this front-end's frozen
	// (mid-migration) slots.
	FrozenDrops uint64
}

// RackStats reports the per-switch failure-domain statistics.
type RackStats struct {
	Switches []SwitchDomainStats
}

// RackStats snapshots every switch domain's epoch, ownership, and
// §5.3 agreement cost counters.
func (cl *Cluster) RackStats() RackStats {
	r := cl.c.Rack()
	out := RackStats{Switches: make([]SwitchDomainStats, r.Switches())}
	for s := 0; s < r.Switches(); s++ {
		f := r.Front(s)
		st := r.Stats(s)
		out.Switches[s] = SwitchDomainStats{
			Epoch:                r.Epoch(s),
			Groups:               r.GroupsOf(s),
			OwnedSlots:           f.OwnedSlots(),
			Replacements:         st.Replacements,
			AgreementMsgs:        st.AgreementMsgs(),
			AgreementAcks:        st.AcksReceived,
			LastAgreementLatency: st.LastAgreementLatency,
			StalledOps:           f.Stats.StalledDrops,
			MisroutedDrops:       f.Stats.MisroutedDrops,
			FrozenDrops:          f.Stats.FrozenDrops,
		}
	}
	return out
}

// GroupOf returns the replica group that currently owns key, per the
// switch front-end's slot table — the routing authority the clients
// follow.
func (cl *Cluster) GroupOf(key string) int { return cl.c.GroupOf(key) }

// NumSlots is the fixed routing-slot count: every key hashes to one of
// these slots, and the switch front-end maps each slot to the replica
// group serving it. Slots are the unit of online rebalancing.
const NumSlots = wire.NumSlots

// SlotOfKey returns key's routing slot.
func (cl *Cluster) SlotOfKey(key string) int { return cl.c.SlotOfKey(key) }

// SlotTable returns a copy of the switch front-end's slot → group
// table. Index s holds the group currently serving slot s.
func (cl *Cluster) SlotTable() []int { return cl.c.SlotTable() }

// MigrateSlot moves one routing slot to another replica group online
// — the §5.3 handoff applied to a slot: the front-end freezes the
// slot (its requests are dropped and retried by clients, as with a
// booting switch), the source group drains until its dirty set holds
// nothing for the slot, the slot's objects are copied to the
// destination replicas, and the route flips before the slot thaws.
// The call drives the simulation until the handoff completes; load
// started concurrently (via Engine timers or between Run calls) keeps
// being served throughout, except for the frozen slot's own keys.
func (cl *Cluster) MigrateSlot(slot, toGroup int) error { return cl.c.MigrateSlot(slot, toGroup) }

// MigrateSlots moves a set of routing slots to toGroup as batch
// handoffs: the slots are grouped by their current owner and each
// owner's share pays ONE freeze window, one drain, one bulk copy, and
// one route flip — amortizing the per-slot costs MigrateSlot pays
// individually. Slots already owned by toGroup are no-op successes.
func (cl *Cluster) MigrateSlots(slots []int, toGroup int) error {
	return cl.c.MigrateSlots(slots, toGroup)
}

// SwapSlots exchanges two slot sets between their owning groups (each
// set must be non-empty and uniformly owned, with distinct owners), so
// a hot slot can trade places with a cold one without changing either
// group's slot occupancy. Both directions run as concurrent batch
// handoffs.
func (cl *Cluster) SwapSlots(slotsA, slotsB []int) error {
	return cl.c.SwapSlots(slotsA, slotsB)
}

// --- Elastic membership ---
//
// The rack's topology — which groups exist, their weights, and which
// group serves each slot — is a live, epoch-versioned object. The four
// operations below mutate it at runtime; each bumps the topology epoch
// exactly once per membership revision, and every epoch-keyed consumer
// (the rebalancer's thresholds, PinGroups load splits, routing) picks
// the new membership up on its next epoch check. Group IDs are stable
// and never reused: a retired group's ID stays retired forever, so
// per-group statistics and histories remain valid across scale-in.

// AddGroup grows the cluster by one replica group built from spec
// (zero fields inherit the cluster-wide settings, exactly as at
// assembly) and returns its ID. The group is placed on the alive
// switch with the most heat per capacity unit, and then seeded a
// weight-fair share of the slot space through ordinary online slot
// migrations — heat-aware, so the new group relieves the rack's hot
// spot first. The call drives the simulation until the seeding
// settles; the largest-remainder re-apportionment guarantees every
// live group keeps at least one slot and all slots stay owned.
// Explicit vs derived capacity weights must match the cluster's boot
// scale (the same all-or-none rule New enforces).
func (cl *Cluster) AddGroup(spec GroupSpec) (int, error) {
	g, err := cl.c.AddGroupWait(spec)
	return g, prefixed(err)
}

// prefixed marks an internal package's error as this package's.
func prefixed(err error) error {
	if err != nil {
		return fmt.Errorf("harmonia: %w", err)
	}
	return nil
}

// RemoveGroup retires group g: its slots are evacuated online to the
// remaining live groups (apportioned by capacity weight), its
// at-most-once client tables travel with them — so a retried write
// whose reply was lost replays at the destination instead of
// re-executing — and once evacuated the group leaves through the §5.3
// revoke/ack agreement: no member can serve a fast read past
// retirement. The call drives the simulation until the retirement
// completes; on failure (a batch could not drain) the group keeps its
// remaining slots and stays live.
func (cl *Cluster) RemoveGroup(g int) error { return prefixed(cl.c.RemoveGroup(g)) }

// RespecGroup replaces live group g's member set with one built from
// spec — a different protocol, replica count, or calibration — without
// moving any of its slots. The swap is staged: every slot of the group
// freezes, the scheduler partition drains, the old members acknowledge
// lease revocation (§5.3), the group's objects and client table copy
// into the fresh member set, and service resumes at the same switch
// epoch with the sequence space continued. Clients only observe the
// freeze window — the group's identity, slots, and routing are
// untouched.
func (cl *Cluster) RespecGroup(g int, spec GroupSpec) error {
	return prefixed(cl.c.RespecGroup(g, spec))
}

// ReassignDeadSwitch batch-migrates a permanently dead switch's entire
// slot shard to the surviving switches' live groups. Unlike
// ReactivateSwitch (which boots a replacement for the SAME switch),
// this declares the switch unrecoverable: its groups' replica stores —
// which hold every committed write — are max-merged per slot, the
// recovered objects install on weight-apportioned surviving groups,
// the victims' client tables merge into every destination, and the
// victims retire through the revoke agreement. Afterwards every slot
// is served again and the dead switch hosts nothing.
func (cl *Cluster) ReassignDeadSwitch(s int) error { return prefixed(cl.c.ReassignDeadSwitch(s)) }

// TopologyEpoch returns the rack topology's membership revision
// counter. It moves exactly once per membership change (group added,
// retired, or re-weighted) and never on per-slot route flips, so
// consumers can cache derived state keyed by it.
func (cl *Cluster) TopologyEpoch() uint64 { return cl.c.Rack().TopoEpoch() }

// GroupLive reports whether group g currently serves traffic (false
// once retired; group IDs are never reused).
func (cl *Cluster) GroupLive(g int) bool { return cl.c.Rack().Live(g) }

// LiveGroups returns the IDs of the groups currently serving traffic,
// in ID order.
func (cl *Cluster) LiveGroups() []int { return cl.c.Rack().LiveGroups() }

// SlotHeat is one routing slot's recent operation counters, sampled
// from the switch front-end's per-slot register arrays. With the
// rebalancer's periodic EWMA decay the counters track a recent window;
// without it they accumulate since boot.
type SlotHeat = core.SlotHeat

// SlotHeat returns a copy of the per-slot heat counters — the signal
// the autonomous rebalancer ranks slots by, exposed for inspection and
// for custom placement tooling.
func (cl *Cluster) SlotHeat() []SlotHeat { return cl.c.SlotHeat() }

// Rebalances returns the total slot moves the autonomous rebalancer
// has completed over the cluster's lifetime (0 unless
// Config.AutoRebalance).
func (cl *Cluster) Rebalances() uint64 { return cl.c.Rebalances() }

// SwitchStats reports the scheduler's decision counters.
type SwitchStats struct {
	Writes          uint64 // writes sequenced
	WritesDropped   uint64 // dirty set full (clients got FlagDropped replies)
	FastReads       uint64 // single-replica reads
	NormalReads     uint64 // reads on the protocol path
	DirtyHits       uint64 // reads that found their object contended
	Completions     uint64 // write-completions processed
	StaleCompletion uint64 // completions ignored (older switch epoch)
	LazyCleanups    uint64 // stray dirty entries reclaimed on the read path
	ForwardedReads  uint64 // replica-rejected fast reads sent down the normal path
	SweptStale      uint64 // stray dirty entries reclaimed by the periodic sweep
	FrozenDrops     uint64 // client packets dropped on migrating (frozen) slots; aggregate view only
	DirtySetSize    int    // current contended-object count
	Epoch           uint32 // active switch incarnation
}

// SwitchStats snapshots the switch's counters summed over every
// scheduler partition (for a single-group cluster this is exactly
// group 0's view), plus the front-end's own counters — FrozenDrops
// happens before any partition is chosen, so it appears only here.
func (cl *Cluster) SwitchStats() SwitchStats {
	var out SwitchStats
	for g := 0; g < cl.c.Groups(); g++ {
		st := cl.GroupSwitchStats(g)
		out.Writes += st.Writes
		out.WritesDropped += st.WritesDropped
		out.FastReads += st.FastReads
		out.NormalReads += st.NormalReads
		out.DirtyHits += st.DirtyHits
		out.Completions += st.Completions
		out.StaleCompletion += st.StaleCompletion
		out.LazyCleanups += st.LazyCleanups
		out.ForwardedReads += st.ForwardedReads
		out.SweptStale += st.SweptStale
		out.DirtySetSize += st.DirtySetSize
		if g == 0 {
			out.Epoch = st.Epoch
		}
	}
	for s := 0; s < cl.c.Switches(); s++ {
		out.FrozenDrops += cl.c.FrontendOf(s).Stats.FrozenDrops
	}
	return out
}

// GroupSwitchStats snapshots group g's scheduler partition. A retired
// group has no partition anymore and reads as all-zero counters.
func (cl *Cluster) GroupSwitchStats(g int) SwitchStats {
	s := cl.c.GroupScheduler(g)
	if s == nil {
		return SwitchStats{}
	}
	st := s.Stats
	return SwitchStats{
		Writes: st.Writes, WritesDropped: st.WritesDropped,
		FastReads: st.FastReads, NormalReads: st.NormalReads,
		DirtyHits: st.DirtyHits, Completions: st.Completions,
		StaleCompletion: st.StaleCompletion, LazyCleanups: st.LazyCleanups,
		ForwardedReads: st.ForwardedReads, SweptStale: st.SweptStale,
		DirtySetSize: s.DirtyCount(), Epoch: s.Epoch(),
	}
}

// CheckResult is the linearizability verdict over the recorded
// history: Ok is meaningful only when Decided; Key and Reason name the
// violation (the smallest failing key) or the limit. Only a key with a
// delete (or a repeated write value) can leave a verdict undecided: it
// is the one kind of key checked by a bounded search, and the load
// generators issue no deletes.
type CheckResult = lincheck.Result

// CheckLinearizability verifies the recorded history (requires
// Config.RecordHistory). Mixing Client.Set with explicit values and
// history checking is unsupported; the load generators always use
// checkable values.
func (cl *Cluster) CheckLinearizability() CheckResult {
	return cl.c.CheckLinearizability()
}

// CheckLinearizabilityGroup verifies group g's slice of the recorded
// history. The key space is partitioned and linearizability is
// compositional, so sharded runs are checked shard by shard — each
// verdict stands on its own.
func (cl *Cluster) CheckLinearizabilityGroup(g int) CheckResult {
	return cl.c.CheckLinearizabilityGroup(g)
}

// CheckLinearizabilityKey verifies the slice of the recorded history
// touching a single key. A promoted hot key's reads are served by
// several groups, so neither the whole-history nor the per-group
// verdict isolates it; this checks that one replicated register on
// its own.
func (cl *Cluster) CheckLinearizabilityKey(key string) CheckResult {
	return cl.c.CheckLinearizabilityKey(key)
}

// History returns the recorded operations (for custom analysis).
func (cl *Cluster) History() []lincheck.Op { return cl.c.History() }

// HotKeyInfo describes one promoted key's replication state as the
// switch front-end sees it.
type HotKeyInfo struct {
	// Holders are the extra groups serving clean reads of the key
	// (the home group is not listed).
	Holders []int
	// Stale counts holders whose copy is invalidated by an
	// un-refreshed write; reads serialize at the home group while
	// it is nonzero.
	Stale int
	// WriteGen is the per-key write version the refresh protocol
	// matches against.
	WriteGen uint64
}

// PromoteKey replicates key's object across extra holder groups for
// read spreading (requires Config.HotKeys). With no explicit holders
// the controller picks the heaviest live groups on the key's switch.
func (cl *Cluster) PromoteKey(key string, holders ...int) error {
	return cl.c.PromoteKey(key, holders...)
}

// DemoteKey collapses a promoted key back to its home group. It
// reports whether the key was promoted.
func (cl *Cluster) DemoteKey(key string) bool { return cl.c.DemoteKey(key) }

// KeyPromoted reports whether key is currently hot-replicated, and if
// so its holder set and refresh state.
func (cl *Cluster) KeyPromoted(key string) (HotKeyInfo, bool) {
	hk, ok := cl.c.KeyPromoted(key)
	if !ok {
		return HotKeyInfo{}, false
	}
	info := HotKeyInfo{Stale: hk.InvalidCount(), WriteGen: hk.WriteGen}
	for _, h := range hk.Holders {
		info.Holders = append(info.Holders, int(h))
	}
	return info, ok
}

// HotKeyCount returns the number of currently promoted keys.
func (cl *Cluster) HotKeyCount() int { return cl.c.HotKeyCount() }

// HotKeyStats returns lifetime hot-key promotion and demotion counts.
func (cl *Cluster) HotKeyStats() (promotions, demotions uint64) {
	return cl.c.HotKeyStats()
}

// LatencyHistogram re-exports the metrics type for Report consumers
// needing more than the three quantiles.
type LatencyHistogram = metrics.Histogram

// Event is one control-plane flight-recorder entry: a timestamped,
// fixed-size record of a slot migration edge, a rebalancer tick or
// veto, a hot-key lifecycle step, a topology epoch bump, a §5.3
// agreement round, or a switch crash/reactivation.
type Event = trace.Event

// EventKind labels a flight-recorder event.
type EventKind = trace.EventKind

// Events returns the control-plane flight recorder's contents, oldest
// first. The recorder is always on and bounded: once full, each new
// event overwrites the oldest and DroppedEvents counts the loss.
func (cl *Cluster) Events() []Event { return cl.c.Events() }

// DroppedEvents reports how many flight-recorder events were
// overwritten before being read.
func (cl *Cluster) DroppedEvents() uint64 { return cl.c.DroppedEvents() }

// WriteChromeTrace dumps the flight recorder as Chrome trace_event
// JSON, openable in chrome://tracing or https://ui.perfetto.dev:
// migrations and hot-key promotions render as duration pairs, the
// rest as instant markers, one track per switch.
func (cl *Cluster) WriteChromeTrace(w io.Writer) error { return cl.c.WriteChromeTrace(w) }

// ResourceModel re-exports the §6.2 switch-memory model.
type ResourceModel = dataplane.ResourceModel

// PaperResourceExample returns the §6.2 worked example (n=3, m=64000,
// u=50%, t=1ms, w=5%).
func PaperResourceExample() ResourceModel { return dataplane.PaperExample() }
