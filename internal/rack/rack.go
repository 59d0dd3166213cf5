// Package rack is the multi-switch coordination layer: it instantiates
// several switch front-ends over one set of replica groups and keeps
// the rack-wide picture consistent while each front-end stays an
// independent failure domain.
//
// One front-end per switch owns
//
//   - a contiguous shard of the wire.NumSlots routing slots (the
//     slot → switch map lives here, in the rack),
//   - its own epoch counter — the §5.3 switch-incarnation ID, bumped
//     only when THIS switch is replaced, so rebooting one switch stalls
//     only the groups it hosts (the Cheap Recovery argument: the
//     recovery unit shrinks as the rack grows),
//   - its own lease domain (the controller grants and revokes fast-read
//     leases per (switch, group) pair), and
//   - its own heat registers, counting only the slots it serves.
//
// Replica groups are partitioned across the switches in contiguous
// blocks; a group's scheduler partition lives on its owning switch and
// never moves. What does move is slots: a cross-switch migration flips
// a slot's route to a group on another switch, and the rack transfers
// front-end ownership with the route — freeze on the source front-end,
// drain, copy, flip here, thaw on the destination.
//
// The rack also accumulates the per-switch §5.3 agreement statistics
// (revokes sent, acks received, replacement latency) that the
// controller reports: the measure of how the control plane's agreement
// cost grows with the rack. The package is pure coordination state over
// internal/core front-ends; the cluster wires it to the simulated
// network and drives the agreements.
package rack

import (
	"fmt"
	"math"
	"time"

	"harmonia/internal/core"
	"harmonia/internal/trace"
	"harmonia/internal/wire"
	"harmonia/internal/workload"
)

// MaxSwitches bounds the front-end count: the rack's switch IDs share
// the address space below the replica windows, and a slot shard must
// stay large enough to stripe its groups over.
const MaxSwitches = 8

// SwitchStats counts one switch domain's control-plane events.
type SwitchStats struct {
	// Replacements counts completed §5.3 switch replacements (every
	// owned group revoked and re-granted).
	Replacements uint64
	// RevokesSent and AcksReceived count the agreement's messages: one
	// revoke per live replica of each owned group, one ack back. Their
	// sum is the replacement's total agreement-message cost, which
	// scales with groups-per-switch — not with rack size.
	RevokesSent  uint64
	AcksReceived uint64
	// LastAgreementLatency is the duration of the most recent
	// replacement's agreement: from the first revoke until the last
	// owned group's ack quorum completed.
	LastAgreementLatency time.Duration
}

// AgreementMsgs is the total §5.3 message count (revokes + acks).
func (s SwitchStats) AgreementMsgs() uint64 { return s.RevokesSent + s.AcksReceived }

// Topology is the rack's epoch-versioned membership and layout value:
// which groups exist, which are live, their capacity weights, which
// switch hosts each group, and which group and switch serve each
// routing slot. It is the single indirection every layer reads —
// cluster assembly, switch front-ends (whose tables mirror it),
// the rebalancer's per-tick weights, and client routing — so elastic
// reconfiguration is one mutation here plus the §5.3 agreement, not a
// crawl over per-layer copies.
//
// The epoch counts MEMBERSHIP revisions: group add/retire, weight or
// spec changes. Per-slot route flips do not bump it — migrations are
// steady state and consumers that cache (client splits) only need to
// recompute when the group set or weights change.
// Reads are plain array/slice loads with no locking or allocation: the
// simulation is single-threaded per event, and the client hot path
// (RouteObj, SwitchOfObj) must stay 0 allocs/op.
type Topology struct {
	epoch     uint64
	groupSw   []int     // group → hosting switch (fixed for the group's lifetime)
	weights   []float64 // capacity weights; 0 for retired groups
	live      []bool    // false once retired — IDs are never reused
	slotGroup [wire.NumSlots]int
	slotSw    [wire.NumSlots]int
}

// Epoch returns the membership revision counter. Consumers cache
// derived state (client splits) keyed by this value
// and recompute only when it moves.
func (t *Topology) Epoch() uint64 { return t.epoch }

// Groups returns the total group count, retired groups included
// (group IDs are stable and never reused).
func (t *Topology) Groups() int { return len(t.groupSw) }

// Live reports whether group g currently serves traffic.
func (t *Topology) Live(g int) bool { return g >= 0 && g < len(t.live) && t.live[g] }

// LiveGroups returns the live group IDs in index order.
func (t *Topology) LiveGroups() []int {
	var out []int
	for g, l := range t.live {
		if l {
			out = append(out, g)
		}
	}
	return out
}

// Weight returns group g's capacity weight (0 once retired).
func (t *Topology) Weight(g int) float64 { return t.weights[g] }

// LiveWeights returns a fresh weight vector indexed by group ID, with
// retired groups at exactly 0 — the form workload.Apportion and the
// weighted-index draw treat as "never pick this group".
func (t *Topology) LiveWeights() []float64 {
	out := make([]float64, len(t.weights))
	for g, l := range t.live {
		if l {
			out[g] = t.weights[g]
		}
	}
	return out
}

// SwitchOfGroup returns the switch hosting group g.
func (t *Topology) SwitchOfGroup(g int) int { return t.groupSw[g] }

// RouteOf returns the group currently serving slot — a single array
// load, the one indirection on every routing decision.
func (t *Topology) RouteOf(slot int) int { return t.slotGroup[slot] }

// RouteObj returns the group currently serving id's slot.
func (t *Topology) RouteObj(id wire.ObjectID) int { return t.slotGroup[wire.SlotOf(id)] }

// SwitchOfSlot returns the switch currently serving slot.
func (t *Topology) SwitchOfSlot(slot int) int { return t.slotSw[slot] }

// SwitchOfObj returns the switch currently serving id's slot.
func (t *Topology) SwitchOfObj(id wire.ObjectID) int { return t.slotSw[wire.SlotOf(id)] }

// Rack coordinates S switch front-ends over N replica groups.
type Rack struct {
	fronts []*core.Frontend
	topo   Topology
	epochs []uint32
	stats  []SwitchStats

	// rec, when set, is the control-plane flight recorder membership
	// revisions and §5.3 agreement completions are reported to.
	rec *trace.Recorder
}

// SetRecorder points the rack at the control-plane flight recorder.
func (r *Rack) SetRecorder(rec *trace.Recorder) { r.rec = rec }

// noteTopoEpoch reports a membership revision to the flight recorder,
// labeled with the group whose add/retire/respec caused it.
func (r *Rack) noteTopoEpoch(g int) {
	if r.rec != nil {
		r.rec.Emit(trace.Event{
			Kind: trace.EvTopoEpoch, Switch: int16(r.topo.groupSw[g]),
			Group: int16(g), Slot: -1, Arg: r.topo.epoch,
		})
	}
}

// SwitchOfSlotIn is the boot-time slot → switch assignment for a
// UNIFORM rack: the slot space is cut into switches equal contiguous
// shards. Single-switch racks map everything to 0. Weighted racks size
// the shards by capacity instead — see Layout.
func SwitchOfSlotIn(slot, switches int) int {
	if switches <= 1 {
		return 0
	}
	return slot * switches / wire.NumSlots
}

// groupRange returns the contiguous block of groups switch s hosts.
// Group → switch placement is by index, not by weight: the operator
// orders the groups, and heavier blocks simply earn their switch a
// larger slot shard.
func groupRange(s, switches, groups int) (lo, hi int) {
	return s * groups / switches, (s + 1) * groups / switches
}

// DefaultGroupOfSlotIn is the boot-time slot → group assignment for a
// UNIFORM multi-switch rack: within switch s's slot shard, slots are
// striped across s's group block. With one switch this degenerates to
// wire.DefaultGroupOfSlot — the historical single-switch striping.
func DefaultGroupOfSlotIn(slot, switches, groups int) int {
	sw := SwitchOfSlotIn(slot, switches)
	lo, hi := groupRange(sw, switches, groups)
	return lo + slot%(hi-lo)
}

// Validate reports whether a UNIFORM (switches, groups) shape is
// assemblable: every switch must host at least one group and own at
// least as many slots as groups (so each group serves at least one
// slot at boot). Weighted shapes go through ValidateWeights, whose
// layout guarantees the per-group slot minimum by construction.
func Validate(switches, groups int) error {
	if switches < 1 || switches > MaxSwitches {
		return fmt.Errorf("rack: switch count %d out of range [1, %d]", switches, MaxSwitches)
	}
	if groups < switches {
		return fmt.Errorf("rack: %d switches need at least as many groups (have %d)", switches, groups)
	}
	for s := 0; s < switches; s++ {
		lo, hi := groupRange(s, switches, groups)
		slots := 0
		for slot := 0; slot < wire.NumSlots; slot++ {
			if SwitchOfSlotIn(slot, switches) == s {
				slots++
			}
		}
		if hi-lo > slots {
			return fmt.Errorf("rack: switch %d hosts %d groups but owns only %d slots", s, hi-lo, slots)
		}
	}
	return nil
}

// ValidateWeights reports whether a capacity-weighted rack shape is
// assemblable: one positive finite weight per group (the group's
// relative capacity — replica count, ASIC generation, calibrated
// service rate), at least one group per switch, and no more groups
// than routing slots (every group must own at least one slot at
// boot). Equal weights additionally require the uniform layout's shape
// constraints, because that is the layout they select.
func ValidateWeights(switches int, weights []float64) error {
	groups := len(weights)
	if switches < 1 || switches > MaxSwitches {
		return fmt.Errorf("rack: switch count %d out of range [1, %d]", switches, MaxSwitches)
	}
	if groups < switches {
		return fmt.Errorf("rack: %d switches need at least as many groups (have %d)", switches, groups)
	}
	if groups > wire.NumSlots {
		return fmt.Errorf("rack: %d groups exceed the %d routing slots (a group must own at least one slot)", groups, wire.NumSlots)
	}
	for g, w := range weights {
		if !(w > 0) || math.IsInf(w, 1) {
			return fmt.Errorf("rack: group %d capacity weight %v must be positive and finite", g, w)
		}
	}
	if uniformWeights(weights) {
		return Validate(switches, groups)
	}
	return nil
}

// uniformWeights reports whether every group has the same capacity
// weight — the shape that must reproduce the historical layout exactly.
// Exact float equality is deliberate: uniform clusters derive every
// group's weight through the identical computation, so they compare
// equal bit for bit, while any intentional heterogeneity differs by
// far more than an ulp.
func uniformWeights(weights []float64) bool {
	for _, w := range weights[1:] {
		if w != weights[0] {
			return false
		}
	}
	return true
}

// Layout computes the boot-time slot → switch and slot → group tables
// for a capacity-weighted rack. Equal weights reproduce the historical
// uniform layout bit for bit (equal contiguous shards, slots striped
// across each block). Unequal weights cut the slot space by capacity:
//
//   - each switch's contiguous shard is apportioned from the 256 slots
//     by its group block's total weight (largest remainder), never
//     smaller than the block's group count;
//   - within a shard, each group's slot count is apportioned by its
//     weight, never below one slot; and
//   - each group's slots are interleaved across the shard (a weighted
//     round-robin), preserving the striped layout's property that a
//     contiguous run of slots touches many groups.
//
// All wire.NumSlots slots are always owned: the apportionments sum
// exactly, with rounding units going to the largest remainders.
func Layout(switches int, weights []float64) (slotSw, slotGroup []int) {
	if err := ValidateWeights(switches, weights); err != nil {
		panic(err)
	}
	groups := len(weights)
	slotSw = make([]int, wire.NumSlots)
	slotGroup = make([]int, wire.NumSlots)
	if uniformWeights(weights) {
		for slot := range slotSw {
			slotSw[slot] = SwitchOfSlotIn(slot, switches)
			slotGroup[slot] = DefaultGroupOfSlotIn(slot, switches, groups)
		}
		return slotSw, slotGroup
	}
	// Shard sizes by block weight, floored at the block's group count.
	blockW := make([]float64, switches)
	blockMin := make([]int, switches)
	for s := 0; s < switches; s++ {
		lo, hi := groupRange(s, switches, groups)
		blockMin[s] = hi - lo
		for g := lo; g < hi; g++ {
			blockW[s] += weights[g]
		}
	}
	shard := workload.ApportionMin(wire.NumSlots, blockW, blockMin)
	start := 0
	for s := 0; s < switches; s++ {
		lo, hi := groupRange(s, switches, groups)
		m := shard[s]
		counts := workload.ApportionMin(m, weights[lo:hi], onesOf(hi-lo))
		// Weighted round-robin interleave: position p goes to the block
		// group furthest behind its proportional pace count·(p+1)/m.
		assigned := make([]int, hi-lo)
		for p := 0; p < m; p++ {
			best := -1
			var bestLag float64
			for k := range counts {
				if assigned[k] >= counts[k] {
					continue
				}
				lag := float64(counts[k])*float64(p+1)/float64(m) - float64(assigned[k])
				if best == -1 || lag > bestLag {
					best, bestLag = k, lag
				}
			}
			slotSw[start+p] = s
			slotGroup[start+p] = lo + best
			assigned[best]++
		}
		start += m
	}
	return slotSw, slotGroup
}

func onesOf(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// New assembles the coordination state for a uniform rack of the given
// shape (which must Validate): every group weighs the same, so the
// shards split evenly — the historical layout. Heterogeneous racks use
// NewWeighted.
func New(switches, groups int) *Rack {
	w := make([]float64, groups)
	for i := range w {
		w[i] = 1
	}
	return NewWeighted(switches, w)
}

// NewWeighted assembles the coordination state for a capacity-weighted
// rack: one relative weight per group (which must ValidateWeights),
// sizing each switch's slot shard and each group's slot share by
// capacity per Layout. Every front-end starts at epoch 1 with empty
// partitions; the cluster installs schedulers as the boot-time
// agreements complete.
func NewWeighted(switches int, weights []float64) *Rack {
	if err := ValidateWeights(switches, weights); err != nil {
		panic(err)
	}
	groups := len(weights)
	r := &Rack{
		fronts: make([]*core.Frontend, switches),
		epochs: make([]uint32, switches),
		stats:  make([]SwitchStats, switches),
	}
	r.topo = Topology{
		epoch:   1,
		groupSw: make([]int, groups),
		weights: append([]float64(nil), weights...),
		live:    make([]bool, groups),
	}
	for s := range r.fronts {
		f := core.NewFrontend(groups)
		f.SetSwitchID(s)
		r.fronts[s] = f
		r.epochs[s] = 1
		lo, hi := groupRange(s, switches, groups)
		for g := lo; g < hi; g++ {
			r.topo.groupSw[g] = s
			r.topo.live[g] = true
		}
	}
	slotSw, slotGroup := Layout(switches, weights)
	for slot := 0; slot < wire.NumSlots; slot++ {
		sw := slotSw[slot]
		r.topo.slotSw[slot] = sw
		r.topo.slotGroup[slot] = slotGroup[slot]
		for s, f := range r.fronts {
			f.SetOwned(slot, s == sw)
			f.SetRoute(slot, slotGroup[slot])
		}
	}
	return r
}

// Topo exposes the rack's live topology value. Callers on hot paths
// read routes through it directly; mutations go through the Rack's
// own methods (AddGroup, RetireGroup, SetGroupWeight, SetRoute) so
// front-end mirrors stay consistent.
func (r *Rack) Topo() *Topology { return &r.topo }

// TopoEpoch returns the current membership revision.
func (r *Rack) TopoEpoch() uint64 { return r.topo.epoch }

// Live reports whether group g currently serves traffic.
func (r *Rack) Live(g int) bool { return r.topo.Live(g) }

// LiveGroups returns the live group IDs in index order.
func (r *Rack) LiveGroups() []int { return r.topo.LiveGroups() }

// AddGroup appends a new live group hosted on switch sw with the given
// capacity weight and returns its ID, bumping the topology epoch.
// The new group owns no slots yet — the caller seeds its share by
// migrating slots in (heat-aware placement), so every slot stays owned
// by a drained, consistent group throughout scale-out.
func (r *Rack) AddGroup(sw int, weight float64) int {
	if sw < 0 || sw >= len(r.fronts) {
		panic(fmt.Sprintf("rack: AddGroup on out-of-range switch %d", sw))
	}
	if !(weight > 0) || math.IsInf(weight, 1) {
		panic(fmt.Sprintf("rack: AddGroup weight %v must be positive and finite", weight))
	}
	if len(r.topo.groupSw) >= wire.NumSlots {
		panic(fmt.Sprintf("rack: cannot exceed %d groups", wire.NumSlots))
	}
	g := len(r.topo.groupSw)
	r.topo.groupSw = append(r.topo.groupSw, sw)
	r.topo.weights = append(r.topo.weights, weight)
	r.topo.live = append(r.topo.live, true)
	for _, f := range r.fronts {
		f.EnsureGroups(g + 1)
	}
	r.topo.epoch++
	r.noteTopoEpoch(g)
	return g
}

// RetireGroup marks group g permanently dead and bumps the topology
// epoch. The group must have been evacuated first: retiring a group
// that still serves slots would strand them. Group IDs are never
// reused — a retired slot in the tables stays retired, which keeps
// every historical group reference (stats, histories) valid.
func (r *Rack) RetireGroup(g int) {
	if !r.topo.Live(g) {
		panic(fmt.Sprintf("rack: RetireGroup on non-live group %d", g))
	}
	for slot, og := range r.topo.slotGroup {
		if og == g {
			panic(fmt.Sprintf("rack: RetireGroup(%d) but slot %d still routes to it", g, slot))
		}
	}
	r.topo.live[g] = false
	r.topo.weights[g] = 0
	r.topo.epoch++
	r.noteTopoEpoch(g)
}

// SetGroupWeight updates group g's capacity weight and bumps the
// topology epoch; the rebalancer reads the new value on its next tick
// and client splits on their next epoch check.
func (r *Rack) SetGroupWeight(g int, w float64) {
	if !r.topo.Live(g) {
		panic(fmt.Sprintf("rack: SetGroupWeight on non-live group %d", g))
	}
	if !(w > 0) || math.IsInf(w, 1) {
		panic(fmt.Sprintf("rack: SetGroupWeight %v must be positive and finite", w))
	}
	r.topo.weights[g] = w
	r.topo.epoch++
	r.noteTopoEpoch(g)
}

// Switches returns the front-end count.
func (r *Rack) Switches() int { return len(r.fronts) }

// Groups returns the replica-group count (retired groups included —
// IDs are stable).
func (r *Rack) Groups() int { return r.topo.Groups() }

// Front returns switch s's front-end.
func (r *Rack) Front(s int) *core.Frontend { return r.fronts[s] }

// Epoch returns switch s's current incarnation ID.
func (r *Rack) Epoch(s int) uint32 { return r.epochs[s] }

// BumpEpoch advances switch s's incarnation ID (a replacement switch
// booting) and returns the new value. Other switches' epochs — and
// therefore their groups' sequence spaces and leases — are untouched.
func (r *Rack) BumpEpoch(s int) uint32 {
	r.epochs[s]++
	return r.epochs[s]
}

// SwitchOfGroup returns the switch hosting group g's scheduler
// partition.
func (r *Rack) SwitchOfGroup(g int) int { return r.topo.groupSw[g] }

// GroupsOf returns the LIVE groups hosted on switch s, in index order.
// Retired groups have no scheduler partition and take no part in
// rebalancing or switch-replacement agreements.
func (r *Rack) GroupsOf(s int) []int {
	var out []int
	for g, sw := range r.topo.groupSw {
		if sw == s && r.topo.live[g] {
			out = append(out, g)
		}
	}
	return out
}

// SwitchOfSlot returns the switch currently serving slot — the
// authoritative slot → switch map clients consult to pick a front-end.
func (r *Rack) SwitchOfSlot(slot int) int { return r.topo.slotSw[slot] }

// SwitchOfObj returns the switch currently serving id's slot.
func (r *Rack) SwitchOfObj(id wire.ObjectID) int { return r.topo.SwitchOfObj(id) }

// SlotSwitchTable returns a copy of the slot → switch map.
func (r *Rack) SlotSwitchTable() []int {
	out := make([]int, wire.NumSlots)
	copy(out, r.topo.slotSw[:])
	return out
}

// front returns slot's owning front-end.
func (r *Rack) front(slot int) *core.Frontend { return r.fronts[r.topo.slotSw[slot]] }

// RouteOf returns the group currently serving slot, read from the
// topology (the front-ends hold mirrors).
func (r *Rack) RouteOf(slot int) int { return r.topo.slotGroup[slot] }

// RouteObj returns the group currently serving id's slot.
func (r *Rack) RouteObj(id wire.ObjectID) int { return r.topo.RouteObj(id) }

// SlotTable returns a copy of the rack-wide slot → group table.
func (r *Rack) SlotTable() []int {
	out := make([]int, wire.NumSlots)
	copy(out, r.topo.slotGroup[:])
	return out
}

// SetRoute points slot at group g, transferring front-end ownership
// when g lives on a different switch: the source front-end disowns the
// slot (clearing any freeze — the handoff is over from its point of
// view) and the destination front-end picks it up thawed, with its own
// heat registers counting the slot from the first packet it serves.
// Every front-end's route mirror is updated so a later flip back needs
// no reconciliation.
func (r *Rack) SetRoute(slot, g int) {
	if !r.topo.Live(g) {
		panic(fmt.Sprintf("rack: route for slot %d to non-live group %d", slot, g))
	}
	src := r.fronts[r.topo.slotSw[slot]]
	dst := r.fronts[r.topo.groupSw[g]]
	for _, f := range r.fronts {
		f.SetRoute(slot, g)
	}
	r.topo.slotGroup[slot] = g
	if src != dst {
		src.UnfreezeSlot(slot)
		src.SetOwned(slot, false)
		// Both sides' heat entries reset: the destination counts the
		// slot from its first packet, and the source's frozen residue
		// must not re-enter the EWMA window if the slot migrates back.
		src.ClearHeat(slot)
		dst.ClearHeat(slot)
		dst.UnfreezeSlot(slot)
		dst.SetOwned(slot, true)
		r.topo.slotSw[slot] = r.topo.groupSw[g]
	}
}

// FreezeSlot starts dropping slot's client traffic on its owning
// front-end (migration window).
func (r *Rack) FreezeSlot(slot int) { r.front(slot).FreezeSlot(slot) }

// UnfreezeSlot resumes slot's client traffic on its owning front-end.
func (r *Rack) UnfreezeSlot(slot int) { r.front(slot).UnfreezeSlot(slot) }

// Frozen reports whether slot is mid-migration on its owning
// front-end.
func (r *Rack) Frozen(slot int) bool { return r.front(slot).Frozen(slot) }

// SetGroup installs (or, with nil, clears) group g's scheduler on its
// owning front-end.
func (r *Rack) SetGroup(g int, s *core.Scheduler) { r.fronts[r.topo.groupSw[g]].SetGroup(g, s) }

// SlotHeat returns the rack-wide per-slot heat sample, each slot read
// from its owning front-end's registers — after a cross-switch
// migration the destination's counters are the live ones, and any
// stale residue on the source is never consulted.
func (r *Rack) SlotHeat() []core.SlotHeat {
	out := make([]core.SlotHeat, wire.NumSlots)
	r.SlotHeatInto(out)
	return out
}

// SlotHeatInto fills dst with the rack-wide per-slot heat sample
// without allocating — the path of the rebalancer tick, which takes one
// sample for every switch domain, and of AddGroup's placement and seed.
func (r *Rack) SlotHeatInto(dst []core.SlotHeat) {
	for slot := 0; slot < len(dst) && slot < wire.NumSlots; slot++ {
		dst[slot] = r.front(slot).HeatOf(slot)
	}
}

// DecayHeat runs one EWMA decay round on every front-end.
func (r *Rack) DecayHeat() {
	for _, f := range r.fronts {
		f.DecayHeat()
	}
}

// Stats returns a copy of switch s's control-plane counters.
func (r *Rack) Stats(s int) SwitchStats { return r.stats[s] }

// NoteRevokes credits n §5.3 revoke messages to switch s's agreement
// cost.
func (r *Rack) NoteRevokes(s int, n int) { r.stats[s].RevokesSent += uint64(n) }

// NoteAck credits one revocation acknowledgment to switch s.
func (r *Rack) NoteAck(s int) { r.stats[s].AcksReceived++ }

// NoteReplacement records a completed switch replacement and its
// agreement latency.
func (r *Rack) NoteReplacement(s int, latency time.Duration) {
	r.stats[s].Replacements++
	r.stats[s].LastAgreementLatency = latency
	if r.rec != nil {
		r.rec.Emit(trace.Event{
			Kind: trace.EvAgreement, Switch: int16(s), Group: -1, Slot: -1,
			Arg: uint64(latency), Arg2: r.stats[s].AgreementMsgs(),
		})
	}
}
