// Package cluster assembles a complete simulated Harmonia rack: one or
// more switch front-ends (each an independent epoch/lease domain owning
// a shard of the routing slots, coordinated by internal/rack), the
// in-switch request schedulers partitioned across the replica groups,
// the protocol instances running on the replicas, a rack-level
// controller for the §5.3 lease/failover agreements, and
// load-generating clients. It is the substrate every end-to-end test,
// example, and benchmark runs on.
package cluster

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"harmonia/internal/core"
	"harmonia/internal/protocol"
	"harmonia/internal/protocol/chain"
	"harmonia/internal/protocol/nopaxos"
	"harmonia/internal/protocol/pb"
	"harmonia/internal/protocol/vr"
	"harmonia/internal/rack"
	"harmonia/internal/rebalance"
	"harmonia/internal/sim"
	"harmonia/internal/simnet"
	"harmonia/internal/store"
	"harmonia/internal/trace"
	"harmonia/internal/wire"
	"harmonia/internal/workload"
)

// Node addressing scheme. Switch 0 keeps the historical address 1;
// additional switches of a multi-switch rack sit at 3..9 (between the
// controller and the replica windows). Each replica group owns a
// groupStride-wide window of the replica address space; clients sit
// far above it.
const (
	switchAddr     simnet.NodeID = 1
	controllerAddr simnet.NodeID = 2
	replicaBase    simnet.NodeID = 10
	groupStride    simnet.NodeID = 1024
	clientBase     simnet.NodeID = 1 << 20
)

// MaxGroups bounds Config.Groups so replica addresses never collide
// with the client address space.
const MaxGroups = 256

// MaxSwitches bounds Config.Switches (rack.MaxSwitches re-exported so
// the address block 3..9 always suffices).
const MaxSwitches = rack.MaxSwitches

// switchAddrOf returns the network address of switch s's front-end.
func switchAddrOf(s int) simnet.NodeID {
	if s == 0 {
		return switchAddr
	}
	return controllerAddr + simnet.NodeID(s) // 3..9 for switches 1..7
}

// incStride carves each group's groupStride-wide address window into
// incarnation sub-windows: a membership respec replaces the whole
// member set, and the simulated network's node IDs are permanent
// (simnet.AddNode rejects reuse), so each new set lives at the next
// sub-window. 16 incarnations × up to 64 replicas per group.
const incStride simnet.NodeID = 64

// maxIncarnations bounds how many times one group can be respec'd.
const maxIncarnations = int(groupStride / incStride)

// groupIncReplicaAddr returns the network address of replica i of
// group g's incarnation inc.
func groupIncReplicaAddr(g, inc, i int) simnet.NodeID {
	return replicaBase + simnet.NodeID(g)*groupStride + simnet.NodeID(inc)*incStride + simnet.NodeID(i)
}

// ReplicaHandle is the cluster's view of one protocol replica's state
// — everything but message delivery, which goes to the protocol
// replica itself. The state-transfer path (transfer.go) is written
// against it, and unit-tested on fakes of it.
type ReplicaHandle interface {
	// Store is the replica's store, which Preload fills directly
	// before the replica serves any traffic.
	Store() *store.Store
	// ExtractSlot copies the replica's live objects in one routing
	// slot (migration source side).
	ExtractSlot(slot int) map[wire.ObjectID]store.Object
	// InstallSlot installs migrated objects (migration destination
	// side), already neutered to epoch 0 (see collect).
	InstallSlot(objs map[wire.ObjectID]store.Object)
	// DropSlot removes the slot's objects (migration source cleanup).
	DropSlot(slot int) int
	// Reserve makes room for n more objects in one routing slot, so a
	// whole-slot install sizes the slot's table once.
	Reserve(slot, n int)
	// ExportClients copies the replica's at-most-once client table,
	// one reference per kept reply; MergeClients installs exported
	// records (newer request per client wins). Why the table travels
	// with the objects: see collect.
	ExportClients() map[uint32]protocol.ClientRecord
	MergeClients(recs map[uint32]protocol.ClientRecord)
	// SlotCounts returns the replica's per-slot live-object counters,
	// maintained incrementally at install/drop/write time — the
	// occupancy signal the rebalancer's ObjectCost veto samples without
	// scanning any store.
	SlotCounts() []int
	// GetObject reads one live object's committed state — the hot-key
	// refresh path, which copies a single promoted key instead of a
	// whole slot.
	GetObject(id wire.ObjectID) (store.Object, bool)
	// ShimCounters returns the fast-path shim's served / rejected /
	// lease-rejected read counts (zero for CRAQ, which takes no fast
	// reads).
	ShimCounters() (served, rejected, leaseRejected uint64)
	// HeldPackets returns the packet references the replica holds: its
	// windows, its cached replies and whatever else its protocol keeps.
	HeldPackets() int
}

// replicaGroup is one replica group: a partition of the key space with
// its own protocol instance, size, calibration, and scheduler state
// behind the shared switch.
type replicaGroup struct {
	idx      int
	spec     ResolvedSpec
	n        int // group size (== spec.Replicas)
	inc      int // membership incarnation (bumped by RespecGroup)
	sched    *core.Scheduler
	replicas []ReplicaHandle
	nodes    []replicaNode // the protocol replicas, as registered with the network

	// leaseGen invalidates the self-renewing lease-grant chain: the
	// controller's periodic re-grant closure captures the generation it
	// was started under and stops silently once it is stale. Respec and
	// retirement bump it, so an old member set's chain can never keep
	// re-granting leases to nodes that left the group.
	leaseGen uint64

	// reconfig is the group's latest removal or respec, in flight until
	// it is Done: such a group takes no new slots (checkDest).
	reconfig *Reconfig
}

// addrs lists the group's CURRENT member addresses in index order.
func (g *replicaGroup) addrs() []simnet.NodeID {
	out := make([]simnet.NodeID, g.n)
	for i := range out {
		out[i] = groupIncReplicaAddr(g.idx, g.inc, i)
	}
	return out
}

// Cluster is an assembled simulated rack.
type Cluster struct {
	cfg Config
	eng *sim.Engine
	net *simnet.Network
	// msgs holds the protocols' message free lists and pkts the packet
	// pool: one set per cluster, because records and packets cross
	// nodes but never engines.
	msgs *protocol.MsgPool
	pkts wire.Pool

	rack   *rack.Rack
	groups []*replicaGroup
	// retired keeps the replaced member sets, which still hold packets.
	retired []ReplicaHandle

	ctl *controller

	clients uint32 // virtual clients registered, the newest one's ID
	hist    *recorder

	valueCtr int64

	// replacing tracks an in-flight switch replacement per switch: the
	// groups still mid-agreement and the revocation start time, from
	// which the rack's agreement-latency stat is recorded.
	replacing []*switchReplacement

	// migrations tracks in-flight slot handoffs by slot.
	migrations map[int]*Migration
	// flushCtr numbers the drain protocol's flush writes.
	flushCtr uint64

	// policies is the autonomous rebalancer, one control loop per
	// switch domain (nil unless AutoRebalance). Each loop samples only
	// its own front-end's heat registers and plans moves only among its
	// own groups, so the rebalancer can never ping-pong a slot across
	// switch boundaries.
	policies []*rebalance.Policy
	// rebalanced counts slot moves completed by the rebalancer.
	rebalanced uint64

	// opFree pools completed in-flight op records and varena carves
	// their id-coded write payloads — the client-side halves of the
	// zero-allocation data path (key tables are process-global).
	opFree sim.FreeList[opState]
	varena valueArena

	// weightsExplicit records whether the boot config set every group's
	// capacity weight by hand. Elastic AddGroup/RespecGroup must stay on
	// the same scale: explicit ratios and derived absolute service
	// rates cannot meaningfully mix (the same rule the public API
	// enforces at assembly).
	weightsExplicit bool

	// Hot-key replication state (nil map unless Config.HotKeys):
	// promoted keys by object ID, plus a promotion-order slice so the
	// lifecycle tick iterates deterministically under the seeded
	// simulation. Counters feed the public stats.
	hotKeys          map[wire.ObjectID]*hotKeyEntry
	hotKeyOrder      []wire.ObjectID
	hotKeyPromotions uint64
	hotKeyDemotions  uint64

	// tracer samples per-op spans (nil unless Config.Trace arms it);
	// rec is the always-on control-plane flight recorder. hist above
	// is the unrelated linearizability op recorder.
	tracer *trace.Tracer
	rec    *trace.Recorder
}

// switchReplacement is one in-flight §5.3 switch replacement.
type switchReplacement struct {
	remaining int // owned groups whose agreement is still pending
	start     sim.Time
}

// New assembles and primes a cluster. An invalid configuration is a
// programming error here and panics with the Config.Validate error;
// callers holding outside input validate first (the public API does).
func New(cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Whether weights are on the operator's explicit-ratio scale or the
	// derived service-rate scale is only visible BEFORE defaulting
	// (resolve overwrites zero weights); elastic reconfiguration needs
	// it to hold new specs to the same scale.
	weightsExplicit := len(cfg.GroupSpecs) > 0 && cfg.GroupSpecs[0].Weight > 0
	specs := cfg.resolve()
	c := &Cluster{
		weightsExplicit: weightsExplicit,
		cfg:             cfg,
		eng:             sim.NewEngine(cfg.Seed),
		msgs:            protocol.NewMsgPool(),
		hist:            newRecorder(),
		migrations:      make(map[int]*Migration),
		replacing:       make([]*switchReplacement, cfg.Switches),
	}
	c.net = simnet.New(c.eng, simnet.LinkConfig{
		Latency: linkLatency, Jitter: cfg.LinkJitter,
		DropProb: cfg.DropProb, ReorderProb: cfg.ReorderProb, ReorderDelay: cfg.ReorderDelay,
	})

	// Observability: the flight recorder is unconditional (control-plane
	// events are rare and the ring is bounded); the span tracer exists
	// only when sampling is armed, so an untraced cluster pays exactly
	// one nil check per guarded site.
	now := func() sim.Time { return c.eng.Now() }
	c.rec = trace.NewRecorder(0, now)
	c.tracer = trace.NewTracer(cfg.Trace, now)
	if c.tracer != nil {
		c.net.SetTracer((*netTracer)(c))
	}

	// Switches: line-rate nodes, each hosting the scheduler partitions
	// of its owned groups behind its hashing front-end. The rack layer
	// owns the slot → switch map and the per-switch epochs; shard sizes
	// and boot-time slot shares follow the groups' capacity weights
	// (uniform specs reproduce the historical even layout exactly).
	c.rack = rack.NewWeighted(cfg.Switches, weightsOf(specs))
	c.rack.SetRecorder(c.rec)
	for s := 0; s < cfg.Switches; s++ {
		f := c.rack.Front(s)
		c.net.AddNode(switchAddrOf(s), f, simnet.ProcConfig{Workers: 0})
		c.installFrontHooks(f, s)
	}

	// Controller.
	c.ctl = newController(c)
	c.net.AddNode(controllerAddr, c.ctl, simnet.ProcConfig{Workers: 0})

	// Replica groups: scheduler partition + protocol instance each,
	// installed on the group's owning switch.
	c.groups = make([]*replicaGroup, cfg.Groups)
	for g := 0; g < cfg.Groups; g++ {
		grp := &replicaGroup{idx: g, spec: specs[g], n: specs[g].Replicas}
		c.groups[g] = grp
		grp.sched = c.newScheduler(g, c.rack.Epoch(c.rack.SwitchOfGroup(g)))
		c.rack.SetGroup(g, grp.sched)
		c.buildGroupReplicas(grp)
	}

	// Replica↔replica and controller channels model TCP: reliable and
	// FIFO (chain replication and primary-backup are only correct
	// under reliable inter-replica channels — a write lost mid-chain
	// forever would break the commit-order-equals-sequence-order
	// invariant the §7.2 check relies on). Loss and reordering apply
	// to the client↔switch↔replica packet path, which is where
	// Harmonia's own recovery mechanisms (client retries, stray
	// dirty-set entries, OUM gap handling) operate. Groups never talk
	// to each other: the key space is partitioned.
	for _, grp := range c.groups {
		c.linkGroup(grp)
	}

	// Initial leases and one priming write per group so every
	// scheduler partition becomes ready. Leases are granted per
	// (switch, group) pair: each group's lease names its own switch's
	// epoch.
	for _, grp := range c.groups {
		c.ctl.grantGroupLeases(grp.idx, c.rack.Epoch(c.rack.SwitchOfGroup(grp.idx)))
	}
	c.startSweeps()
	c.prime()
	if cfg.AutoRebalance {
		c.startRebalancer()
	}
	if cfg.HotKeys {
		c.startHotKeys()
	}
	return c
}

// installFrontHooks wires switch s's front-end into the observability
// layer: traced-packet drops stamp the op's span so the coming client
// retry is attributed to the stall that caused it, and hot-key
// invalidations land in the flight recorder. Hooks live on the
// Frontend, which survives Reboot, so switch replacement keeps them.
func (c *Cluster) installFrontHooks(f *core.Frontend, s int) {
	f.SetHotInvalidateHook(func(id wire.ObjectID, gen uint64) {
		c.rec.Emit(trace.Event{
			Kind: trace.EvHotInvalidate, Switch: int16(s), Group: -1, Slot: -1,
			Arg: uint64(id), Arg2: gen,
		})
	})
	if c.tracer == nil {
		return
	}
	node := int32(switchAddrOf(s))
	f.SetDropHook(func(pkt *wire.Packet, reason core.DropReason) {
		switch reason {
		case core.DropMisrouted:
			// A stale route, not a stall: the retry is an ordinary
			// reissue, so leave the frozen-stall flag alone.
			c.tracer.Stamp(pkt.Span, trace.HopDrop, node, trace.PhaseNetwork)
		default: // frozen slot or stalled group
			c.tracer.StampDrop(pkt.Span, node)
		}
	})
}

// netTracer adapts simnet's delivery hooks onto span stamps. It is the
// Cluster itself under another method set: the adapter needs the
// address map and the tracer, nothing else, and a separate struct
// would be one more pointer chase on the per-packet path. Installed
// only when tracing is armed; untraced packets (Span == 0) return
// after two compares.
type netTracer Cluster

func (t *netTracer) PacketArrive(node simnet.NodeID, msg simnet.Message) {
	pkt, ok := msg.(*wire.Packet)
	if !ok || pkt.Span == 0 {
		return
	}
	kind := trace.HopSwitchArrive
	if node >= clientBase {
		kind = trace.HopClientArrive
	} else if node >= replicaBase {
		kind = trace.HopReplicaArrive
	}
	(*Cluster)(t).tracer.Stamp(pkt.Span, kind, int32(node), trace.PhaseNetwork)
}

func (t *netTracer) PacketServe(node simnet.NodeID, msg simnet.Message) {
	pkt, ok := msg.(*wire.Packet)
	if !ok || pkt.Span == 0 {
		return
	}
	(*Cluster)(t).tracer.Stamp(pkt.Span, trace.HopReplicaServe, int32(node), trace.PhaseQueue)
}

func (t *netTracer) PacketDone(node simnet.NodeID, msg simnet.Message) {
	pkt, ok := msg.(*wire.Packet)
	if !ok || pkt.Span == 0 {
		return
	}
	(*Cluster)(t).tracer.Stamp(pkt.Span, trace.HopReplicaDone, int32(node), trace.PhaseService)
}

// Events returns the control-plane flight recorder's contents, oldest
// first. The ring is bounded (trace.DefaultEventCapacity); once full,
// each new event overwrites the oldest and DroppedEvents counts the
// loss, so a long run keeps the most recent window.
func (c *Cluster) Events() []trace.Event { return c.rec.Events() }

// DroppedEvents reports how many flight-recorder events were
// overwritten before being read.
func (c *Cluster) DroppedEvents() uint64 { return c.rec.DroppedEvents() }

// WriteChromeTrace dumps the flight recorder as Chrome trace_event
// JSON (load via chrome://tracing or https://ui.perfetto.dev).
func (c *Cluster) WriteChromeTrace(w io.Writer) error { return c.rec.WriteChromeTrace(w) }

// startRebalancer arms the autonomous rebalancing loop, one policy
// instance per switch domain: every interval each loop samples its own
// front-end's heat registers and routing table, asks its policy for a
// batch of moves among its own groups, starts them as non-blocking
// batch migrations (so the loop never stalls the simulation), and then
// decays the heat counters — the EWMA round that keeps the sample
// tracking recent traffic. Confining each loop to one switch domain is
// what makes the rebalancer rack-aware: moves stay behind one
// front-end, so slots can never ping-pong across switch boundaries
// (cross-switch migration stays an explicit operation).
func (c *Cluster) startRebalancer() {
	now := func() time.Duration { return time.Duration(c.eng.Now()) }
	c.policies = make([]*rebalance.Policy, c.rack.Switches())
	for s := range c.policies {
		c.policies[s] = rebalance.New(c.cfg.Rebalance, now)
		c.policies[s].SetRecorder(c.rec, s)
	}
	c.every(c.cfg.Rebalance.Interval, func() bool {
		c.rebalanceTick()
		return true
	})
}

// every runs fn once per interval of simulated time, for as long as it
// returns true.
func (c *Cluster) every(iv time.Duration, fn func() (again bool)) {
	var tick func()
	tick = func() {
		if fn() {
			c.eng.After(iv, tick)
		}
	}
	c.eng.After(iv, tick)
}

// domainWeights returns switch s's plan weights, indexed by group ID:
// each live group's capacity weight, and 0 — not in the plan — for
// retired groups and every group hosted on another switch. The
// policy's thresholds are per capacity unit, so a 7-replica group is
// entitled to proportionally more of its domain's load than a
// 3-replica neighbor before the loop calls it hot.
func (c *Cluster) domainWeights(s int) []float64 {
	topo := c.rack.Topo()
	w := topo.LiveWeights()
	for g := range w {
		if topo.SwitchOfGroup(g) != s {
			w[g] = 0
		}
	}
	return w
}

// rebalanceTick runs one control-loop round across every switch
// domain.
func (c *Cluster) rebalanceTick() {
	// Per-slot object counts come from the incrementally maintained
	// store counters (sampled at one live replica of each owning group
	// — any live member works, the objects are replicated), so the
	// ObjectCost veto operates online: a slot dense with objects needs
	// a larger projected gain before the policy will pay its bulk copy.
	// The sampling is memoized per tick and pulled only by domains
	// whose policy could actually fire this tick (armed, out of
	// cooldown, enough heat) — gated ticks and single-group domains
	// cost nothing.
	var heat [wire.NumSlots]core.SlotHeat
	c.rack.SlotHeatInto(heat[:])
	table := c.rack.SlotTable()
	counts := make(map[int][]int, len(c.groups))
	countsOf := func(g int) []int {
		cnt, ok := counts[g]
		if !ok {
			cnt = c.slotCountsOf(g)
			counts[g] = cnt
		}
		return cnt
	}
	// Slots still mid-handoff from a previous round are reported busy
	// so the policy plans around them (and does not burn its trigger
	// on a round that could start nothing).
	busy := func(slot int) bool {
		_, b := c.migrations[slot]
		return b || c.rack.Frozen(slot)
	}
	for s, policy := range c.policies {
		c.rebalanceSwitch(s, policy, heat[:], table, countsOf, busy)
	}
	c.rack.DecayHeat()
}

// rebalanceSwitch runs one switch domain's planning round over the
// rack-wide heat sample and slot table: groups on other switches weigh
// 0, so the policy's hottest/coolest search can only ever pick groups
// behind this front-end.
func (c *Cluster) rebalanceSwitch(s int, policy *rebalance.Policy, heat []core.SlotHeat, table []int, countsOf func(int) []int, busy func(int) bool) {
	if len(c.rack.GroupsOf(s)) < 2 {
		return // a single-group domain has nothing to balance
	}
	w := c.domainWeights(s)
	var total uint64
	for slot, g := range table {
		if w[g] > 0 {
			total += heat[slot].Total()
		}
	}
	// Object counts are sampled only when this tick could fire a round
	// — the policy's own gates (disarmed, cooling down, too little
	// heat) would discard them unread. Heat is always passed: PlanRound
	// needs it to re-arm the trigger on calm readings.
	var objects []int
	if policy.Ready() && total >= policy.Config().MinOps {
		objects = make([]int, wire.NumSlots)
		for slot, g := range table {
			if w[g] > 0 {
				objects[slot] = countsOf(g)[slot]
			}
		}
	}
	round := policy.PlanRound(heat, table, objects, w, busy)
	if round.Empty() && c.cfg.HotKeys {
		// A fired-but-empty tick is the indivisible hot spot: batch
		// migration gave up, so try replicating the slot's dominant
		// key instead.
		c.maybePromoteHot(s, policy, c.rack.Front(s))
	}
	// Group the moves into batches by (source, destination) pair,
	// preserving plan order so runs stay deterministic.
	type pair struct{ from, to int }
	var order []pair
	batches := make(map[pair][]int)
	for _, mv := range round.Moves {
		p := pair{mv.From, mv.To}
		if _, ok := batches[p]; !ok {
			order = append(order, p)
		}
		batches[p] = append(batches[p], mv.Slot)
	}
	for _, p := range order {
		m, err := c.StartBatchMigration(batches[p], p.to)
		if err != nil {
			continue // e.g. a route changed under us; next tick re-plans
		}
		m.auto = true
	}
	// Swap rounds — planned when a one-way drain was occupancy-vetoed —
	// run as the usual concurrent two-way batch handoffs.
	for _, sw := range round.Swaps {
		ma, mb, err := c.StartSwapSlots([]int{sw.SlotA}, []int{sw.SlotB})
		if err != nil {
			continue // a route changed under us; next tick re-plans
		}
		ma.auto = true
		mb.auto = true
	}
}

// slotCountsOf samples group g's per-slot object counters from its
// first LIVE replica: a crashed member's counters froze at crash time
// and would feed the cost model stale occupancy. With every member
// down (nothing the cost model says matters then — the group cannot
// serve a handoff anyway) replica 0's frozen counters stand in.
func (c *Cluster) slotCountsOf(g int) []int {
	grp := c.groups[g]
	for i, r := range grp.replicas {
		if !c.net.IsDown(c.groupAddr(g, i)) {
			return r.SlotCounts()
		}
	}
	return grp.replicas[0].SlotCounts()
}

// groupAddr returns the network address of replica i of group g's
// CURRENT member set (the live incarnation).
func (c *Cluster) groupAddr(g, i int) simnet.NodeID {
	return groupIncReplicaAddr(g, c.groups[g].inc, i)
}

// SlotHeat returns the rack-wide per-slot heat sample, each slot read
// from its owning switch front-end's registers.
func (c *Cluster) SlotHeat() []core.SlotHeat { return c.rack.SlotHeat() }

// Rebalances returns the total slot moves completed by the autonomous
// rebalancer over the cluster's lifetime.
func (c *Cluster) Rebalances() uint64 { return c.rebalanced }

// linkGroup models the group's replica↔replica and controller channels
// as TCP: reliable and FIFO (see New). Factored out so elastic
// AddGroup/RespecGroup wire new member sets identically.
func (c *Cluster) linkGroup(grp *replicaGroup) {
	reliable := simnet.LinkConfig{Latency: linkLatency, Jitter: c.cfg.LinkJitter}
	addrs := grp.addrs()
	for i, a := range addrs {
		for _, b := range addrs[i+1:] {
			c.net.SetLinkBoth(a, b, reliable)
		}
		c.net.SetLinkBoth(a, controllerAddr, reliable)
	}
}

// startSweeps arms the periodic §5.2 stray-entry sweep, one recurring
// timer per scheduler partition.
func (c *Cluster) startSweeps() {
	for _, grp := range c.groups {
		c.startSweep(grp)
	}
}

// startSweep arms one group's sweep timer. The closure re-reads
// grp.sched each tick so the sweep follows a replacement switch's (or
// a respec's) new scheduler, and dies with the group: a retired
// group's nil scheduler ends the chain.
func (c *Cluster) startSweep(grp *replicaGroup) {
	if c.cfg.DisableLazyCleanup {
		return
	}
	c.every(sweepInterval, func() bool {
		if !c.rack.Live(grp.idx) {
			return false
		}
		if s := grp.sched; s != nil && s.DirtyCount() > 0 {
			s.SweepStale()
		}
		return true
	})
}

// LivePackets returns the references out on the cluster's packet
// pool. At quiescence each is held by a replica — current, crashed or
// of a replaced member set (HeldPackets); anything more leaked.
func (c *Cluster) LivePackets() int { return c.pkts.Live() }

// Engine exposes the simulation engine (tests and harnesses).
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Network exposes the simulated network (tests).
func (c *Cluster) Network() *simnet.Network { return c.net }

// GroupScheduler exposes group g's active scheduler partition.
func (c *Cluster) GroupScheduler(g int) *core.Scheduler { return c.groups[g].sched }

// Groups returns the replica-group count.
func (c *Cluster) Groups() int { return len(c.groups) }

// SpecOf returns group g's effective (defaulted) spec.
func (c *Cluster) SpecOf(g int) ResolvedSpec { return c.groups[g].spec }

// GroupWeights returns the LIVE per-group capacity weights from the
// topology — the vector the slot layout, the rebalancer, and the
// pinned load split normalize by. Retired groups read exactly 0, which
// every consumer treats as "never pick this group".
func (c *Cluster) GroupWeights() []float64 { return c.rack.Topo().LiveWeights() }

// Switches returns the switch front-end count.
func (c *Cluster) Switches() int { return c.rack.Switches() }

// FrontendOf exposes switch s's front-end.
func (c *Cluster) FrontendOf(s int) *core.Frontend { return c.rack.Front(s) }

// Rack exposes the multi-switch coordination layer (tests and stats).
func (c *Cluster) Rack() *rack.Rack { return c.rack }

// SwitchOf returns the switch front-end currently serving slot.
func (c *Cluster) SwitchOf(slot int) int { return c.rack.SwitchOfSlot(slot) }

// SwitchOfGroup returns the switch hosting group g.
func (c *Cluster) SwitchOfGroup(g int) int { return c.rack.SwitchOfGroup(g) }

// routeObj returns the group currently serving id, per the rack's
// slot table — the routing authority.
func (c *Cluster) routeObj(id wire.ObjectID) int { return c.rack.RouteObj(id) }

// switchAddrForObj returns the network address of the switch front-end
// currently serving id's slot — the address clients (and the harness's
// own control writes) dial. The lookup models the client-side slot →
// switch map; the front-ends enforce it in-network, dropping packets
// for slots they do not own.
func (c *Cluster) switchAddrForObj(id wire.ObjectID) simnet.NodeID {
	return switchAddrOf(c.rack.SwitchOfObj(id))
}

// GroupOf returns the replica group that currently owns key.
func (c *Cluster) GroupOf(key string) int {
	return c.routeObj(wire.HashKey(key))
}

// SlotOfKey returns key's routing slot.
func (c *Cluster) SlotOfKey(key string) int {
	return wire.SlotOf(wire.HashKey(key))
}

// SlotTable returns a copy of the rack-wide slot → group table.
func (c *Cluster) SlotTable() []int { return c.rack.SlotTable() }

// SlotSwitchTable returns a copy of the rack's slot → switch map.
func (c *Cluster) SlotSwitchTable() []int { return c.rack.SlotSwitchTable() }

// Config returns the effective configuration.
func (c *Cluster) Config() Config { return c.cfg }

func (c *Cluster) newScheduler(g int, epoch uint32) *core.Scheduler {
	grp := c.groups[g]
	addrs := grp.addrs()
	swAddr := switchAddrOf(c.rack.SwitchOfGroup(g))
	// Normal-path entry points: member 0 (head, primary or boot-time
	// leader) takes every protocol's writes, and its reads too — except
	// a chain's, which go to the tail. CRAQ reads pick random members.
	readDst := addrs[0]
	if grp.spec.Protocol == Chain {
		readDst = addrs[len(addrs)-1]
	}
	sched := core.New(core.Config{
		Epoch:              epoch,
		Stages:             c.cfg.Stages,
		SlotsPerStage:      c.cfg.SlotsPerStage,
		Replicas:           addrs,
		WriteDst:           addrs[0],
		ReadDst:            readDst,
		MulticastWrites:    grp.spec.Protocol == NOPaxos,
		ClientBase:         clientBase,
		DisableFastReads:   !grp.spec.Harmonia,
		RandomReads:        grp.spec.Protocol == CRAQ,
		DisableLazyCleanup: c.cfg.DisableLazyCleanup,
	}, core.SenderFunc(func(to simnet.NodeID, pkt *wire.Packet) {
		c.net.Send(swAddr, to, pkt)
	}))
	sched.SetPackets(&c.pkts)
	if c.tracer != nil {
		// Every scheduler — boot, elastic add, or §5.3 replacement —
		// stamps traced writes at sequencing time.
		sched.SetTraceHook(func(pkt *wire.Packet) {
			c.tracer.Stamp(pkt.Span, trace.HopSwitchSeq, int32(swAddr), trace.PhaseQueue)
		})
	}
	return sched
}

// replicaEnv adapts the network to protocol.Env. Each replica's
// client-facing packets (replies, write-completions) go through its
// group's owning switch — the fixed home of the group's scheduler
// partition.
type replicaEnv struct {
	c  *Cluster
	id simnet.NodeID
	sw simnet.NodeID
}

func (e *replicaEnv) ID() simnet.NodeID { return e.id }
func (e *replicaEnv) Send(to simnet.NodeID, msg any) {
	e.c.net.Send(e.id, to, msg)
}
func (e *replicaEnv) SendSwitch(pkt *wire.Packet) {
	e.c.net.Send(e.id, e.sw, pkt)
}
func (e *replicaEnv) After(d time.Duration, fn func()) sim.Timer { return e.c.eng.After(d, fn) }
func (e *replicaEnv) Now() sim.Time                              { return e.c.eng.Now() }
func (e *replicaEnv) Rand() *rand.Rand                           { return e.c.eng.Rand() }
func (e *replicaEnv) Msgs() *protocol.MsgPool                    { return e.c.msgs }
func (e *replicaEnv) Packets() *wire.Pool                        { return &e.c.pkts }

// buildGroupReplicas constructs one group's protocol replica set per
// its spec and registers the nodes with the group's calibrated
// processor model — heterogeneous clusters run different protocols,
// group sizes, and server calibrations side by side.
func (c *Cluster) buildGroupReplicas(grp *replicaGroup) {
	addrs := grp.addrs()
	swAddr := switchAddrOf(c.rack.SwitchOfGroup(grp.idx))
	proc := simnet.ProcConfig{Workers: serverWorkers, Cost: serviceCost}

	c.retired = append(c.retired, grp.replicas...)
	grp.replicas = make([]ReplicaHandle, grp.n)
	grp.nodes = make([]replicaNode, grp.n)
	for i := range grp.nodes {
		env := &replicaEnv{c, addrs[i], swAddr}
		g := protocol.GroupConfig{ID: grp.idx, Replicas: addrs, Self: i, F: (grp.n - 1) / 2}
		grp.nodes[i], grp.replicas[i] = c.newReplica(grp.spec.Protocol, env, g)
		c.net.AddNode(addrs[i], grp.nodes[i], proc)
	}
}

// serviceCost is the calibrated server model: what one worker spends
// on a message of each class.
func serviceCost(msg simnet.Message) time.Duration {
	switch protocol.ClassOf(msg) {
	case protocol.CostRead:
		return readCost
	case protocol.CostWrite:
		return writeCost
	default:
		return controlCost
	}
}

// newReplica constructs one protocol replica and the handle onto its
// state.
func (c *Cluster) newReplica(p Protocol, env *replicaEnv, g protocol.GroupConfig) (replicaNode, ReplicaHandle) {
	var node replicaNode
	var base *protocol.Base
	switch p {
	case PB:
		r := pb.New(env, g, serverShards)
		node, base = r, r.Base
	case Chain, CRAQ:
		r := chain.NewMode(env, g, serverShards, p == CRAQ)
		node, base = r, r.Base
	case VR:
		opts := vr.DefaultOptions()
		opts.EagerCompletions = c.cfg.EagerCompletions
		r := vr.New(env, g, serverShards, opts)
		r.OnViewChange = c.viewChangeHook(g.ID)
		node, base = r, r.Base
	case NOPaxos:
		r := nopaxos.New(env, g, serverShards, nopaxos.Options{SyncEvery: syncEvery})
		node, base = r, r.Base
	default:
		panic("cluster: unknown protocol")
	}
	base.DisableCheck = c.cfg.DisableReadChecks
	return node, baseHandle{base, node}
}

// viewChangeHook retargets group g's scheduler partition at a new VR
// leader. The hook is bound to the incarnation it was built for: after
// a membership respec the old set's view changes must not retarget the
// new set's scheduler.
func (c *Cluster) viewChangeHook(g int) func(view uint64, leader int) {
	inc := c.groups[g].inc
	return func(view uint64, leader int) {
		grp := c.groups[g]
		if grp.inc != inc || grp.sched == nil {
			return
		}
		dst := groupIncReplicaAddr(g, inc, leader)
		grp.sched.SetTargets(dst, dst)
	}
}

// primeKey returns a key owned by group g. Single-group clusters keep
// the historical "__prime__" key; sharded ones search a deterministic
// suffix until the route lands in the right partition.
func (c *Cluster) primeKey(g int) string {
	if len(c.groups) == 1 {
		return "__prime__"
	}
	k, ok := c.keyInGroup(g, fmt.Sprintf("__prime__%d_", g), false)
	if !ok {
		// At boot the default striping guarantees every group owns
		// slots (MaxGroups == wire.NumSlots), so the search cannot
		// fail there.
		panic(fmt.Sprintf("cluster: no prime key for group %d", g))
	}
	return k
}

// keyInGroup searches the deterministic key family prefix0, prefix1, …
// for one the front-end currently routes to group g through a slot
// that is not frozen. Used for priming writes and for the drain's
// flush writes, which must not land in a slot mid-migration — the
// front-end drops its packets. The search is bounded: a group can
// legitimately own no eligible slot (every slot migrated away, or its
// remaining slots all frozen), in which case ok is false. allowFrozen
// lifts the exclusion for the forced flush of a whole-group drain,
// whose write carries wire.FlagFlush and may pass the freeze.
func (c *Cluster) keyInGroup(g int, prefix string, allowFrozen bool) (key string, ok bool) {
	// ~16 deterministic probes per slot of the table: ample to hit
	// every eligible slot, while still terminating when none exists.
	for t := 0; t < 16*wire.NumSlots; t++ {
		k := fmt.Sprintf("%s%d", prefix, t)
		id := wire.HashKey(k)
		if c.routeObj(id) == g && (allowFrozen || !c.rack.Frozen(wire.SlotOf(id))) {
			return k, true
		}
	}
	return "", false
}

// prime issues one write per group end-to-end so every scheduler
// partition observes its first WRITE-COMPLETION and enables
// single-replica reads (§5.3 applies to cold boots exactly as to
// replacements).
func (c *Cluster) prime() {
	for g := range c.groups {
		c.controlWrite(g, c.primeKey(g), 0, uint64(g+1))
	}
	// Drive the writes (and for NOPaxos, a sync round) to completion.
	c.eng.RunFor(20 * time.Millisecond)
}

// controlWrite sends one control-plane write to group g under the
// priming client identity (ClientID 0): primes, and the drain's flush
// writes, which take request IDs from a range of their own.
func (c *Cluster) controlWrite(g int, key string, flags wire.Flags, reqID uint64) {
	pkt := c.pkts.New()
	pkt.Op, pkt.Flags, pkt.ObjID = wire.OpWrite, flags, wire.HashKey(key)
	pkt.Group, pkt.ReqID, pkt.Value = uint16(g), reqID, []byte{1}
	c.net.Send(clientBase, c.switchAddrForObj(pkt.ObjID), pkt)
}

// Preload installs n objects into their owning groups without going
// through the protocol, and records them for history seeding. It warms
// a cluster before any load: each group's first member is built object
// by object, and every other member gets a copy of its tables of the
// slots the keys fall in (a member that already differed from the first
// in such a slot ends as its copy).
func (c *Cluster) Preload(n int) {
	ids := keyTab(n)
	// Size every member's slot table once, up front, slot by slot: a slot
	// belongs to one group, so a count per slot is a count per (group,
	// slot).
	var perSlot [wire.NumSlots]int
	for _, id := range ids {
		perSlot[wire.SlotOf(id)]++
	}
	for slot, k := range perSlot {
		for _, r := range c.groups[c.rack.RouteOf(slot)].replicas {
			r.Store().Reserve(slot, k)
		}
	}
	for i, id := range ids {
		c.valueCtr++
		seq := wire.Seq{N: uint64(i + 1)} // epoch 0: precedes every sequenced write
		c.groups[c.routeObj(id)].replicas[0].Store().Seed(id, c.varena.encode(c.valueCtr), seq)
		if c.cfg.RecordHistory {
			c.hist.preload(id, c.valueCtr)
		}
	}
	// Slot-major, so each source table is read once while it is in cache.
	for slot, k := range perSlot {
		if k == 0 {
			continue
		}
		members := c.groups[c.rack.RouteOf(slot)].replicas
		for _, r := range members[1:] {
			r.Store().CopySlot(members[0].Store(), slot)
		}
	}
}

// ownedKeyIDs partitions the object IDs of the workload's keys [0, keys)
// by owning group, each shard in key order — the load generator's view
// of the shard map — carved from one array, each shard sized by a
// counting pass.
func (c *Cluster) ownedKeyIDs(keys int) [][]wire.ObjectID {
	ids := keyTab(keys)
	n := make([]int, len(c.groups))
	for _, id := range ids {
		n[c.routeObj(id)]++
	}
	out, all := make([][]wire.ObjectID, len(c.groups)), make([]wire.ObjectID, keys)
	for g := range out {
		out[g], all = all[:0:n[g]], all[n[g]:]
	}
	for _, id := range ids {
		g := c.routeObj(id)
		out[g] = append(out[g], id)
	}
	return out
}

// RunFor advances simulated time.
func (c *Cluster) RunFor(d time.Duration) { c.eng.RunFor(d) }

// --- failure injection ---

// CrashSwitch fails switch s: its front-end stops forwarding entirely
// for every group it hosts, while the rest of the rack's switches keep
// serving their own slot shards undisturbed.
func (c *Cluster) CrashSwitch(s int) error {
	if s < 0 || s >= c.rack.Switches() {
		return fmt.Errorf("cluster: switch %d out of range", s)
	}
	c.net.SetDown(switchAddrOf(s), true)
	c.rec.Emit(trace.Event{Kind: trace.EvSwitchCrash, Switch: int16(s), Group: -1, Slot: -1})
	return nil
}

// StopSwitch halts every switch in the rack (for the single-switch
// rack this is exactly §9.6's experiment: all traffic blackholed).
func (c *Cluster) StopSwitch() {
	for s := 0; s < c.rack.Switches(); s++ {
		_ = c.CrashSwitch(s) // s is in range: cannot fail
	}
}

// ReactivateSwitch brings up replacement switches — the listed ones,
// or every switch when called with no arguments — each with a fresh
// epoch in ITS OWN epoch domain and empty register state, then runs
// the §5.3 agreement per (switch, group) pair: a group's replicas
// revoke the old lease before the new switch may forward that group's
// writes, and its fast-path reads resume only after the first
// new-epoch WRITE-COMPLETION reaches the partition. Groups recover
// independently — a slow group does not hold back the rest of the
// rack — and switches recover independently: replacing one switch
// bumps one epoch and stalls only the slots it owns, so the
// agreement's message count scales with groups-per-switch, not rack
// size. The rack records the per-switch agreement message counts and
// latency.
func (c *Cluster) ReactivateSwitch(switches ...int) error {
	if len(switches) == 0 {
		switches = make([]int, c.rack.Switches())
		for s := range switches {
			switches[s] = s
		}
	}
	for _, s := range switches {
		// Reject the whole call before touching anything: a typo'd
		// index must not silently leave a crashed switch down (the
		// paired CrashSwitch errors the same way).
		if s < 0 || s >= c.rack.Switches() {
			return fmt.Errorf("cluster: switch %d out of range", s)
		}
	}
	seen := make(map[int]bool, len(switches))
	for _, s := range switches {
		// Dedup: ReactivateSwitch(1, 1) must start ONE replacement, not
		// two racing agreements over the same groups.
		if !seen[s] {
			seen[s] = true
			c.reactivateOneSwitch(s)
		}
	}
	return nil
}

// reactivateOneSwitch replaces switch s (§5.3 scoped to one epoch
// domain).
func (c *Cluster) reactivateOneSwitch(s int) {
	c.net.SetDown(switchAddrOf(s), false)
	epoch := c.rack.BumpEpoch(s)
	c.rec.Emit(trace.Event{
		Kind: trace.EvSwitchReactivate, Switch: int16(s), Group: -1, Slot: -1,
		Arg: uint64(epoch),
	})
	c.rack.Front(s).Reboot() // booting: drops traffic until agreement done
	owned := c.rack.GroupsOf(s)
	rep := &switchReplacement{remaining: len(owned), start: c.eng.Now()}
	c.replacing[s] = rep
	for _, g := range owned {
		grp := c.groups[g]
		c.ctl.revokeThen(grp.idx, epoch-1, func() {
			if epoch != c.rack.Epoch(s) {
				// A newer replacement of this switch superseded us while
				// our agreement was in flight. Installing this scheduler
				// now would stamp fast reads with a stale epoch the
				// replicas' newer leases reject forever — the newer
				// replacement's own agreement installs the right one.
				return
			}
			// The replacement scheduler is built HERE, at agreement
			// completion, not when the replacement started: the group
			// may have reconfigured in between (a replica crash, a VR
			// view change), and those repairs land on the old scheduler.
			// Seeding from it carries the current fast-path set and
			// normal-path targets over — an eagerly built scheduler
			// would resurrect boot-time targets, including dead nodes.
			next := c.newScheduler(grp.idx, epoch)
			if old := grp.sched; old != nil {
				next.SetReplicas(old.Replicas())
				next.SetTargets(old.Targets())
			}
			c.rack.SetGroup(grp.idx, next)
			grp.sched = next
			c.ctl.grantGroupLeases(grp.idx, epoch)
			rep.remaining--
			if rep.remaining == 0 && c.replacing[s] == rep {
				c.replacing[s] = nil
				c.rack.NoteReplacement(s, time.Duration(c.eng.Now()-rep.start))
			}
		})
	}
}

// CrashReplicaIn fails replica i of group g: its node drops all
// traffic and the group's protocol instance reconfigures around it
// where supported (§5.3 server failures). The switch stops scheduling
// that group's fast-path reads to it; other groups are untouched.
func (c *Cluster) CrashReplicaIn(g, i int) error {
	if g < 0 || g >= len(c.groups) {
		return fmt.Errorf("cluster: group %d out of range", g)
	}
	grp := c.groups[g]
	if !c.rack.Live(g) {
		return fmt.Errorf("cluster: group %d is retired", g)
	}
	if i < 0 || i >= grp.n {
		// Bounds are per GROUP: a heterogeneous cluster's replica
		// indices run to that group's own size, not a cluster-wide one.
		return fmt.Errorf("cluster: replica %d out of range for group %d (size %d)", i, g, grp.n)
	}
	addr := c.groupAddr(g, i)
	// Unsupported reconfigurations are rejected BEFORE any state
	// changes: an error here must mean "nothing happened", not "the
	// replica is dead but the protocol was never told".
	if i == 0 && grp.spec.Protocol == PB {
		return fmt.Errorf("cluster: primary failover requires an external configuration service (not modeled)")
	}
	if i == 0 && grp.spec.Protocol == NOPaxos {
		return fmt.Errorf("cluster: NOPaxos leader failover (view change) not modeled")
	}
	if c.net.IsDown(addr) {
		// Idempotent: re-crashing a dead replica must not reconfigure
		// the protocol again or re-credit a pending revocation's ack
		// quorum (it was only counted as live once).
		return nil
	}
	c.net.SetDown(addr, true)
	c.ctl.replicaDown(g, i)
	if grp.sched != nil {
		grp.sched.RemoveReplica(addr)
	}
	// Survivors reconfigure around the dead member. A VR leader's
	// successor comes from its view change, which retargets the switch
	// through OnViewChange.
	for j, n := range grp.nodes {
		if j != i {
			n.RemoveMember(i)
		}
	}
	if p := grp.spec.Protocol; p == Chain || p == CRAQ {
		// A chain's writes enter at its first live member and commit at
		// its last.
		var live []simnet.NodeID
		for j := range grp.n {
			if a := c.groupAddr(g, j); !c.net.IsDown(a) {
				live = append(live, a)
			}
		}
		if len(live) > 0 {
			grp.sched.SetTargets(live[0], live[len(live)-1])
		}
	}
	return nil
}

// SwitchAddrOf returns switch s's network address (experiment hooks).
func (c *Cluster) SwitchAddrOf(s int) simnet.NodeID { return switchAddrOf(s) }

// GroupReplicaAddr returns replica i of group g's network address (the
// current member set's).
func (c *Cluster) GroupReplicaAddr(g, i int) simnet.NodeID { return c.groupAddr(g, i) }

// ShimStats sums the replicas' fast-path shim counters across all
// groups.
func (c *Cluster) ShimStats() (served, rejected, leaseRejected uint64) {
	for _, grp := range c.groups {
		for _, r := range grp.replicas {
			s, rj, l := r.ShimCounters()
			served, rejected, leaseRejected = served+s, rejected+rj, leaseRejected+l
		}
	}
	return
}

// --- small helpers ---

// ktabs caches the key tables per key-space size. A table is a pure
// function of n, so the cache is process-global: a figure sweep that
// builds a fresh cluster per rate point reuses one table instead of
// re-rendering and re-hashing the whole key space every time.
var (
	ktabMu sync.Mutex
	ktabs  = make(map[int][]wire.ObjectID)
)

// keyTab returns the (cached) object IDs of the dense generator key
// space [0, n): ids[i] = wire.HashKey(workload.KeyName(i)), so choosing
// a key is one slice load instead of a fmt.Sprintf plus a hash. A name
// lives only long enough to be hashed: the load generator sends IDs.
// Callers must not write to the table.
func keyTab(n int) []wire.ObjectID {
	ktabMu.Lock()
	defer ktabMu.Unlock()
	if ids, ok := ktabs[n]; ok {
		return ids
	}
	ids := make([]wire.ObjectID, n)
	for i := range ids {
		ids[i] = wire.HashKey(workload.KeyName(i))
	}
	ktabs[n] = ids
	return ids
}

// valueArena carves the 8-byte id-coded write payloads out of
// append-only chunks. Payload bytes are never recycled — stores,
// cached replies, and history records alias them indefinitely, the
// same rule wire.Packet.Value lives by — so the arena only appends,
// and one chunk allocation amortizes over thousands of writes.
type valueArena struct {
	chunk []byte
}

const valueArenaChunk = 64 * 1024

// encode appends one id-coded value and returns its 8-byte slice.
func (a *valueArena) encode(id int64) []byte {
	if cap(a.chunk)-len(a.chunk) < 8 {
		a.chunk = make([]byte, 0, valueArenaChunk)
	}
	n := len(a.chunk)
	a.chunk = a.chunk[:n+8]
	b := a.chunk[n : n+8 : n+8]
	for k := 0; k < 8; k++ {
		b[k] = byte(uint64(id) >> (8 * k))
	}
	return b
}

func decodeValue(b []byte) int64 {
	if len(b) < 8 {
		return 0
	}
	var v uint64
	for k := 0; k < 8; k++ {
		v |= uint64(b[k]) << (8 * k)
	}
	return int64(v)
}
