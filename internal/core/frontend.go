package core

import (
	"fmt"

	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// FrontendStats counts routing decisions the front-end makes before a
// packet reaches any scheduler partition.
type FrontendStats struct {
	// FrozenDrops counts client-originated packets dropped because
	// their routing slot was frozen mid-migration. Clients recover by
	// timeout, exactly as with a booting switch.
	FrozenDrops uint64
	// HeatDecays counts EWMA decay rounds applied to the per-slot heat
	// counters.
	HeatDecays uint64
	// MisroutedDrops counts client-originated packets that arrived at
	// this front-end for a slot it does not own — a stale client map or
	// a packet in flight across a cross-switch route flip. The client's
	// next retry consults the fresh rack map and lands correctly.
	MisroutedDrops uint64
	// StalledDrops counts client operations dropped because their
	// group's scheduler partition was still booting (the §5.3
	// revoke/ack agreement had not completed) — the rack's
	// "stalled-op" measure of how much a switch replacement costs.
	StalledDrops uint64
	// SpreadReads counts clean reads of promoted hot keys the front-end
	// served from a holder group instead of the key's home group.
	SpreadReads uint64
	// Invalidations counts writes to promoted keys that invalidated the
	// holder copies in their switch traversal (FlagInvalidate stamped).
	Invalidations uint64
	// Refreshes counts hot-key refresh completions that validated the
	// holder copies; StaleRefreshes counts refreshes discarded because
	// a newer write was sequenced while the refresh was in flight.
	Refreshes      uint64
	StaleRefreshes uint64
}

// SlotHeat is one routing slot's operation counters: the same
// register-array trick §5 uses for conflict state, applied to load.
// Reads and writes are counted separately so a policy can weight them
// (a write costs the group more than a fast-path read). With periodic
// DecayHeat calls the counters become an exponentially weighted window
// over recent traffic rather than an all-time total.
type SlotHeat struct {
	Reads  uint64
	Writes uint64
}

// Total is the slot's combined operation count.
func (h SlotHeat) Total() uint64 { return h.Reads + h.Writes }

// KeyHeat is one routing slot's hottest-key register: a Boyer–Moore
// majority candidate over the slot's client-originated operations, plus
// its surviving vote count. Like the heat registers it is soft switch
// state — two fixed-width fields per slot, decayed with the heat — and
// it answers the one question the promotion policy asks: when a slot is
// indivisibly hot, is one key responsible?
type KeyHeat struct {
	Cand  wire.ObjectID
	Votes uint64
}

// hotEntry is the front-end's live state for one promoted key: the
// holder groups (home is implicit — the routing table's entry for the
// key's slot), an invalid bitmap versioned by the write generation, the
// round-robin cursor for read spreading, and the key's own heat
// counters (decayed with the slot registers; they feed the demotion
// cool-down).
type hotEntry struct {
	holders  []uint16
	invalid  uint64 // bitmap over holders
	writeGen uint64
	rr       uint32
	reads    uint64
	writes   uint64
}

// Frontend is the multi-group switch front-end (§6.1): one physical
// switch whose register state is partitioned into n independent
// scheduler instances, one per replica group. The front-end is the
// routing authority: it owns a slot → group table (wire.NumSlots
// entries, initialized to the default striping) consulted on every
// client-originated packet. Clients stamp a group guess, but the
// front-end always overrides it from the table, so a client holding a
// stale table can never reach the wrong group. Packets originating at
// replicas (replies, write-completions) already carry their group and
// are routed by it. Algorithm 1 runs unmodified within each partition.
//
// A slot may be frozen during an online migration (§5.3 applied to a
// handoff): its client reads and writes are dropped — exactly as a
// booting switch drops everything — while the source group drains and
// the objects are copied, and the route flips before the slot thaws.
//
// A nil partition models a group whose §5.3 replacement agreement has
// not completed yet: its traffic is dropped, exactly as a booting
// switch drops everything.
type Frontend struct {
	id     int // switch ID within the rack (0 for single-switch racks)
	groups []*Scheduler
	route  [wire.NumSlots]uint16
	frozen [wire.NumSlots]bool

	// owned marks the routing slots this front-end serves. A
	// single-switch rack owns everything; in a multi-switch rack the
	// coordination layer assigns each front-end a contiguous shard and
	// flips ownership when a slot migrates across switches. Packets for
	// non-owned slots are dropped (MisroutedDrops) — the client's retry
	// consults the fresh slot → switch map.
	owned [wire.NumSlots]bool

	// heat is the per-slot op-counter register array. It is indexed by
	// the slot the front-end itself computes from the object ID — never
	// by the client's group stamp — so stale or corrupt client guesses
	// cannot skew the ranking.
	heat [wire.NumSlots]SlotHeat

	// keyCand/keyVotes are the per-slot hottest-key registers: a
	// Boyer–Moore majority vote over the slot's client-originated ops.
	// Under a single dominating key the vote count tracks (hits −
	// misses), so votes/heat approximates the key's share of the slot.
	keyCand  [wire.NumSlots]wire.ObjectID
	keyVotes [wire.NumSlots]uint64

	// hot is the hot-key table: promoted keys whose clean reads the
	// front-end spreads across holder groups. Nil until the first
	// promotion, so the unpromoted fast path pays one len check.
	hot map[wire.ObjectID]*hotEntry

	// onHotWrite, when set, is called as a write completion for a
	// promoted key with invalid holder copies traverses the switch —
	// the cluster's cue to start a refresh without waiting for a tick.
	onHotWrite func(id wire.ObjectID, gen uint64)

	// onClientDrop, when set, fires as this front-end intentionally
	// drops a TRACED client packet (pkt.Span != 0): frozen slot,
	// stalled group, or misrouted shard. The trace layer uses it to
	// attribute the client's coming retry gap to the stall rather
	// than to network loss. Untraced packets never invoke it, keeping
	// the drop paths allocation- and call-free in the common case.
	onClientDrop func(pkt *wire.Packet, reason DropReason)

	// onHotInvalidate, when set, fires when a write to a promoted key
	// invalidates its holder copies — the flight recorder's
	// hotkey-invalidate cue.
	onHotInvalidate func(id wire.ObjectID, gen uint64)

	Stats FrontendStats
}

// DropReason classifies an intentional front-end drop for the trace
// hooks.
type DropReason uint8

const (
	// DropFrozen: the packet's slot is frozen mid-migration.
	DropFrozen DropReason = iota
	// DropStalled: the group's replacement agreement is incomplete.
	DropStalled
	// DropMisrouted: the packet landed on the wrong front-end shard.
	DropMisrouted
)

// NewFrontend builds a front-end with n (initially empty) partitions,
// the default slot striping, and every slot owned — the single-switch
// configuration. Multi-switch racks carve ownership up afterwards via
// SetOwned.
func NewFrontend(n int) *Frontend {
	if n <= 0 {
		n = 1
	}
	f := &Frontend{groups: make([]*Scheduler, n)}
	for s := range f.route {
		f.route[s] = uint16(wire.DefaultGroupOfSlot(s, n))
		f.owned[s] = true
	}
	return f
}

// SetSwitchID assigns this front-end's rack-wide switch ID, stamped
// into every packet it forwards.
func (f *Frontend) SetSwitchID(id int) { f.id = id }

// SetOwned marks slot as owned (or not) by this front-end.
func (f *Frontend) SetOwned(slot int, own bool) { f.owned[slot] = own }

// OwnsSlot reports whether this front-end serves slot.
func (f *Frontend) OwnsSlot(slot int) bool { return f.owned[slot] }

// OwnedSlots returns the number of slots this front-end serves.
func (f *Frontend) OwnedSlots() int {
	n := 0
	for _, o := range f.owned {
		if o {
			n++
		}
	}
	return n
}

// Group returns partition g's scheduler (nil while booting).
func (f *Frontend) Group(g int) *Scheduler { return f.groups[g] }

// SetGroup installs (or, with nil, clears) partition g's scheduler.
// The cluster controller calls it as each group's §5.3 agreement
// completes.
func (f *Frontend) SetGroup(g int, s *Scheduler) { f.groups[g] = s }

// EnsureGroups grows the partition table to at least n entries, new
// ones nil (booting). Scale-out adds a group to the whole rack: every
// front-end must be able to route replica-originated packets that
// carry the new group ID, even front-ends that never serve its slots.
func (f *Frontend) EnsureGroups(n int) {
	for len(f.groups) < n {
		f.groups = append(f.groups, nil)
	}
}

// RouteOf returns the group currently serving slot.
func (f *Frontend) RouteOf(slot int) int { return int(f.route[slot]) }

// SetRoute points slot at group g. The migration controller flips a
// route only after the slot has drained and its objects were copied.
func (f *Frontend) SetRoute(slot, g int) {
	if g < 0 || g >= len(f.groups) {
		panic(fmt.Sprintf("core: route for slot %d to out-of-range group %d", slot, g))
	}
	f.route[slot] = uint16(g)
}

// HeatOf returns slot's current heat counters.
func (f *Frontend) HeatOf(slot int) SlotHeat { return f.heat[slot] }

// KeyHeatOf returns slot's hottest-key register: the Boyer–Moore
// majority candidate over the slot's recent client ops and its vote
// count.
func (f *Frontend) KeyHeatOf(slot int) KeyHeat {
	return KeyHeat{Cand: f.keyCand[slot], Votes: f.keyVotes[slot]}
}

// ClearHeat zeroes one slot's heat counters (and its hottest-key
// register). The rack calls it on a cross-switch ownership transfer:
// the acquiring front-end counts the slot from its first packet, and
// the disowning side's frozen residue must not resurface as "current"
// heat if the slot ever migrates back.
func (f *Frontend) ClearHeat(slot int) {
	f.heat[slot] = SlotHeat{}
	f.keyCand[slot], f.keyVotes[slot] = 0, 0
}

// DecayHeat halves every heat counter — one EWMA round. Called
// periodically (the switch control plane would run this on a timer),
// it turns the counters into an exponentially weighted window whose
// half-life is the decay interval, so rankings track recent traffic
// rather than all history. The decay is register-friendly (a shift and
// a subtract per counter, no floating point) and rounds UP: x −= x>>1
// floors a once-warm counter at 1 instead of dropping it to 0. A plain
// right-shift took a heat of 1 straight to 0, so a low-rate slot's
// reading oscillated 1 → 0 → 1 across decay rounds and flapped the
// policy's hysteresis band; the sticky floor holds the reading steady
// until ClearHeat or Reboot genuinely cools the slot.
func (f *Frontend) DecayHeat() {
	for s := range f.heat {
		f.heat[s].Reads -= f.heat[s].Reads >> 1
		f.heat[s].Writes -= f.heat[s].Writes >> 1
		f.keyVotes[s] -= f.keyVotes[s] >> 1
	}
	for _, e := range f.hot {
		// Hot-entry counters feed the demotion cool-down and must reach
		// 0 once the skew stops: plain halving, no sticky floor.
		e.reads >>= 1
		e.writes >>= 1
	}
	f.Stats.HeatDecays++
}

// FreezeSlot starts dropping slot's client traffic (migration window).
func (f *Frontend) FreezeSlot(slot int) { f.frozen[slot] = true }

// UnfreezeSlot resumes slot's client traffic.
func (f *Frontend) UnfreezeSlot(slot int) { f.frozen[slot] = false }

// Frozen reports whether slot is mid-migration.
func (f *Frontend) Frozen(slot int) bool { return f.frozen[slot] }

// Reboot clears every partition: a replacement switch starts with
// empty register state and must not forward anything until the
// per-group agreements reinstall schedulers. The slot table and frozen
// flags survive — they are control-plane configuration the controller
// reinstalls on a replacement switch, not soft register state. The
// heat counters, hottest-key registers, and hot-key table do NOT
// survive: they are soft register state like the dirty set. A
// rebalancer re-learns the heat ranking within a few decay intervals,
// and the cluster's hot-key manager demotes keys whose front-end table
// entry vanished (the holder copies are then dropped and the key can
// re-earn promotion).
func (f *Frontend) Reboot() {
	for g := range f.groups {
		f.groups[g] = nil
	}
	f.heat = [wire.NumSlots]SlotHeat{}
	f.keyCand = [wire.NumSlots]wire.ObjectID{}
	f.keyVotes = [wire.NumSlots]uint64{}
	f.hot = nil
}

// --- hot-key table (per-key replication, Hermes-style) ---

// holderMask returns the all-invalid bitmap for n holders.
func holderMask(n int) uint64 { return 1<<uint(n) - 1 }

// Promote installs (or replaces) a hot-key table entry: clean reads of
// id will round-robin across its home group and holders, writes
// invalidate the holder copies in their switch traversal. Every holder
// starts INVALID — reads stay home until the first refresh confirms
// the copies exist — so promotion is safe to install before any data
// movement. Holder indices out of partition range are dropped.
func (f *Frontend) Promote(id wire.ObjectID, holders []int) {
	hs := make([]uint16, 0, len(holders))
	for _, g := range holders {
		if g >= 0 && g < len(f.groups) && len(hs) < 63 {
			hs = append(hs, uint16(g))
		}
	}
	if f.hot == nil {
		f.hot = make(map[wire.ObjectID]*hotEntry)
	}
	f.hot[id] = &hotEntry{holders: hs, invalid: holderMask(len(hs))}
}

// Demote removes id's hot-key table entry, reporting whether one
// existed. Reads of id serialize at its home group again immediately.
func (f *Frontend) Demote(id wire.ObjectID) bool {
	if _, ok := f.hot[id]; !ok {
		return false
	}
	delete(f.hot, id)
	return true
}

// Promoted returns id's hot-key table entry as its wire-level view.
func (f *Frontend) Promoted(id wire.ObjectID) (wire.HotKey, bool) {
	e := f.hot[id]
	if e == nil {
		return wire.HotKey{}, false
	}
	return wire.HotKey{
		ObjID:    id,
		Holders:  append([]uint16(nil), e.holders...),
		Invalid:  e.invalid,
		WriteGen: e.writeGen,
	}, true
}

// PromotedCount returns the number of hot-key table entries.
func (f *Frontend) PromotedCount() int { return len(f.hot) }

// RemoveHolder drops group g from id's holder set (compacting the
// invalid bitmap) and returns how many holders remain. The cluster
// calls it when a holder group retires or swaps its member set — its
// copy is gone, so a spread read must never be scheduled there again.
func (f *Frontend) RemoveHolder(id wire.ObjectID, g int) int {
	e := f.hot[id]
	if e == nil {
		return 0
	}
	out := e.holders[:0]
	var invalid uint64
	for i, h := range e.holders {
		if int(h) == g {
			continue
		}
		if e.invalid&(1<<uint(i)) != 0 {
			invalid |= 1 << uint(len(out))
		}
		out = append(out, h)
	}
	e.holders, e.invalid = out, invalid
	return len(out)
}

// WriteGen returns id's current write generation (promoted keys only).
func (f *Frontend) WriteGen(id wire.ObjectID) (uint64, bool) {
	e := f.hot[id]
	if e == nil {
		return 0, false
	}
	return e.writeGen, true
}

// HotHeatOf returns id's per-key heat counters (decayed with the slot
// registers) — the demotion cool-down's signal.
func (f *Frontend) HotHeatOf(id wire.ObjectID) (reads, writes uint64) {
	if e := f.hot[id]; e != nil {
		return e.reads, e.writes
	}
	return 0, 0
}

// SetHotWriteHook installs the write-committed callback (see
// onHotWrite). The cluster's hot-key manager uses it to refresh holder
// copies as soon as a write commits instead of polling.
func (f *Frontend) SetHotWriteHook(fn func(id wire.ObjectID, gen uint64)) { f.onHotWrite = fn }

// SetDropHook installs the traced-packet drop callback (see
// onClientDrop). The trace layer uses it to separate migration and
// agreement stalls from network-loss retries.
func (f *Frontend) SetDropHook(fn func(pkt *wire.Packet, reason DropReason)) { f.onClientDrop = fn }

// dropClient counts and releases a client packet the front-end drops,
// stamping a traced one's span with the reason first.
func (f *Frontend) dropClient(pkt *wire.Packet, reason DropReason, count *uint64) {
	*count++
	if pkt.Span != 0 && f.onClientDrop != nil {
		f.onClientDrop(pkt, reason)
	}
	pkt.Release()
}

// SetHotInvalidateHook installs the hot-key invalidation callback (see
// onHotInvalidate). The flight recorder uses it to timestamp the
// invalidate edge of each promoted key's write cycle.
func (f *Frontend) SetHotInvalidateHook(fn func(id wire.ObjectID, gen uint64)) {
	f.onHotInvalidate = fn
}

// CompleteRefresh validates id's holder copies against the write
// generation a refresh captured: only a refresh of the CURRENT
// generation clears the invalid bits — if a write raced the refresh,
// the holders stay invalid and the next refresh chases the newer
// value. Returns whether the refresh validated.
func (f *Frontend) CompleteRefresh(id wire.ObjectID, gen uint64) bool {
	e := f.hot[id]
	if e == nil {
		return false
	}
	if e.writeGen != gen {
		f.Stats.StaleRefreshes++
		return false
	}
	e.invalid = 0
	f.Stats.Refreshes++
	return true
}

// pickHolder advances id's round-robin cursor one turn across home +
// holders and returns the chosen HOLDER group, or ok=false when the
// turn belongs to the home group (or no live holder partition exists):
// the caller then falls through the normal home-route path.
func (f *Frontend) pickHolder(slot int, e *hotEntry) (int, bool) {
	home := int(f.route[slot])
	n := len(e.holders) + 1
	for t := 0; t < n; t++ {
		i := int(e.rr) % n
		e.rr++
		if i == len(e.holders) {
			return home, false // home's turn
		}
		g := int(e.holders[i])
		if g == home || g >= len(f.groups) || f.groups[g] == nil {
			continue // holder became home, or its partition is booting
		}
		return g, true
	}
	return home, false
}

// Recv implements simnet.Handler: every packet to or from any replica
// group traverses this one switch.
func (f *Frontend) Recv(from simnet.NodeID, msg simnet.Message) {
	pkt, ok := msg.(*wire.Packet)
	if !ok {
		// Non-Harmonia traffic is not examined here; the cluster
		// routes protocol-internal messages directly.
		return
	}
	switch pkt.Op {
	case wire.OpRead, wire.OpWrite:
		// Client-originated (or client-retried, or replica-forwarded)
		// packets: the switch owns the routing. A frozen slot drops
		// them — the client's timeout handles retry — so no request
		// can land on either group mid-handoff.
		slot := wire.SlotOf(pkt.ObjID)
		if !f.owned[slot] {
			// Not this front-end's shard (stale client map, or a packet
			// in flight across a cross-switch flip): drop it. The retry
			// consults the fresh slot → switch map and lands right.
			f.dropClient(pkt, DropMisrouted, &f.Stats.MisroutedDrops)
			return
		}
		// Replica-forwarded re-entries (a fast read a replica bounced
		// back) skip all register accounting and spreading: the op was
		// already counted on its first traversal, and a bounced read
		// belongs on its home group's slow path.
		client := pkt.Flags&wire.FlagForwarded == 0
		var e *hotEntry
		if client && len(f.hot) != 0 {
			e = f.hot[pkt.ObjID]
		}
		if client {
			// Hottest-key register: Boyer–Moore majority vote over the
			// slot's client ops.
			switch {
			case f.keyVotes[slot] == 0:
				f.keyCand[slot], f.keyVotes[slot] = pkt.ObjID, 1
			case f.keyCand[slot] == pkt.ObjID:
				f.keyVotes[slot]++
			default:
				f.keyVotes[slot]--
			}
			if e != nil {
				if pkt.Op == wire.OpWrite {
					e.writes++
				} else {
					e.reads++
				}
			}
		}
		// Hot-key read spreading: a clean read of a promoted key (no
		// invalid holder copy — every committed write has been refreshed
		// everywhere, and none is in flight past the switch) round-robins
		// across home + holders. A spread read bypasses the freeze on
		// purpose: during a home-slot handoff the holder copies stay
		// valid (writes freeze with the slot), so holders keep serving.
		// It is NOT counted in the home slot's heat register — the
		// register tracks load the home group actually serves, which is
		// exactly what promotion sheds; the per-key counters above feed
		// the demotion policy instead.
		if e != nil && pkt.Op == wire.OpRead && e.invalid == 0 {
			if g, ok := f.pickHolder(slot, e); ok {
				f.Stats.SpreadReads++
				pkt.Group = uint16(g)
				pkt.Switch = uint8(f.id)
				f.groups[g].Process(pkt)
				return
			}
			// Home's turn in the rotation: the normal path below.
		}
		// Heat is counted on offered load, before the frozen check, so
		// a slot stays ranked hot while it migrates.
		if client {
			if pkt.Op == wire.OpWrite {
				f.heat[slot].Writes++
			} else {
				f.heat[slot].Reads++
			}
		}
		if f.frozen[slot] && pkt.Flags&wire.FlagFlush == 0 {
			// FlagFlush writes pass the freeze: a whole-group drain has
			// every slot frozen, and the flush that unwedges it must
			// still reach the scheduler. The flush quiesces like any
			// other write and its object is copied with the batch.
			f.dropClient(pkt, DropFrozen, &f.Stats.FrozenDrops)
			return
		}
		if e != nil && pkt.Op == wire.OpWrite && len(e.holders) > 0 {
			// Hermes-style invalidation in the same traversal that
			// sequences the write: every holder copy is invalid until a
			// refresh catches this generation, and the packet carries
			// the wire-visible record. Reads of the key serialize at
			// the home group (through its dirty set) meanwhile.
			e.writeGen++
			e.invalid = holderMask(len(e.holders))
			pkt.Flags |= wire.FlagInvalidate
			f.Stats.Invalidations++
			if f.onHotInvalidate != nil {
				f.onHotInvalidate(pkt.ObjID, e.writeGen)
			}
		}
		pkt.Group = f.route[slot]
		pkt.Switch = uint8(f.id)
		if f.groups[pkt.Group] == nil {
			// The group's §5.3 replacement agreement has not completed:
			// the op stalls (client retries), and the rack counts it.
			f.dropClient(pkt, DropStalled, &f.Stats.StalledDrops)
			return
		}
	default:
		if pkt.Op == wire.OpWriteCompletion && pkt.Flags&wire.FlagRefresh != 0 {
			// Control-plane refresh completion for a hot key: validate
			// the table entry and consume the packet — no scheduler
			// partition ever sees it (its Seq carries a write
			// generation, not a sequence number).
			f.CompleteRefresh(pkt.ObjID, pkt.Seq.N)
			pkt.Release()
			return
		}
		// Replica-originated packets are trusted to carry their
		// group; an out-of-range value is a corrupt packet. They pass
		// frozen slots untouched — a draining source group still needs
		// its completions and replies.
		if int(pkt.Group) >= len(f.groups) {
			pkt.Release()
			return
		}
		pkt.Switch = uint8(f.id)
		if len(f.hot) != 0 && (pkt.Op == wire.OpWriteCompletion ||
			(pkt.Op == wire.OpWriteReply && !pkt.Seq.IsZero())) {
			// A committed write to a promoted key just traversed the
			// switch — either a standalone completion or one piggybacked
			// on the write reply (§5.1, Fig. 2b), which is how every
			// read-ahead protocol ships them. Cue the refresh machinery
			// while the packet continues to its scheduler partition
			// unchanged.
			if e := f.hot[pkt.ObjID]; e != nil && e.invalid != 0 && f.onHotWrite != nil {
				f.onHotWrite(pkt.ObjID, e.writeGen)
			}
		}
	}
	if s := f.groups[pkt.Group]; s != nil {
		s.Process(pkt)
	} else {
		pkt.Release() // booting partition: replica-originated traffic stalls
	}
}
