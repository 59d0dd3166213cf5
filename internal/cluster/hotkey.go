package cluster

// Hot-key replication: the cluster-side lifecycle for keys the switch
// spreads. The rebalancer's escape signal (a fired-but-empty tick, see
// rebalance.LastStuck) nominates the stuck slot's dominant key; the
// manager promotes it onto 2–4 holder groups of the same switch
// domain, seeds their copies from the home group with a key-scope
// state transfer (collect/ship, transfer.go), and from then on:
//
//   - the switch round-robins the key's clean reads across home +
//     holders (frontend.pickHolder) — but only while the entry's
//     invalid bitmap is zero;
//   - every write to the key invalidates all holder copies in its
//     switch traversal (Hermes' broadcast-invalidate, with the switch
//     as the broadcast point) and the key's reads serialize at the
//     home group, through its dirty set, until a refresh catches up;
//   - when the write's completion traverses the switch, the front-end
//     cues refreshHot (SetHotWriteHook), which copies the newest
//     committed value to the holders and validates the entry with the
//     write generation it captured — a refresh that lost a race to a
//     newer write fails validation and is simply retried;
//   - the periodic tick is the retry backstop (the refresh completion
//     travels the lossy controller→switch path) and the demotion
//     clock: a key whose decayed per-key heat stays at or below
//     CoolOps for CoolRounds consecutive ticks is demoted; its holders
//     keep their copies until a whole-slot transfer next delivers the
//     slot to them (see demoteObject).
//
// Linearizability: a holder serves a read only when the entry is valid
// at the switch. Valid means the holders hold the newest COMMITTED
// value and no later write has traversed the switch (any such write
// would have flipped the bitmap in that same traversal, before its
// data packet could reach a replica). The refresh itself only runs
// when the home partition's dirty set has no entry for the key —
// the same committed-everywhere barrier the migration drain uses —
// so the value it installs really is the newest sequenced write.

import (
	"fmt"

	"harmonia/internal/core"
	"harmonia/internal/rebalance"
	"harmonia/internal/trace"
	"harmonia/internal/wire"
)

// hotKeyEntry is one promoted key's cluster-side state. The switch
// front-end owns the data-plane half (holders, invalid bitmap, write
// generation, round-robin cursor); this records where the key lives
// and the lifecycle counters.
type hotKeyEntry struct {
	id      wire.ObjectID
	slot    int
	sw      int   // switch domain the key was promoted on
	holders []int // holder groups (global indices), home excluded

	cool       int      // consecutive cold ticks toward demotion
	refreshing bool     // a refresh copy is in flight
	homeLast   wire.Seq // the home partition's commit point at the last tick
}

// startHotKeys arms the hot-key manager: the per-front write hooks
// (event-driven refresh) and the lifecycle tick (refresh retry,
// demotion cool-down, topology-change cleanup).
func (c *Cluster) startHotKeys() {
	c.hotKeys = make(map[wire.ObjectID]*hotKeyEntry)
	for s := 0; s < c.rack.Switches(); s++ {
		c.rack.Front(s).SetHotWriteHook(func(id wire.ObjectID, gen uint64) {
			// Deferred one event: the hook fires BEFORE the completion
			// reaches its scheduler partition, so the dirty-set entry
			// the refresh barrier checks is still standing. After(0)
			// runs once the traversal (and the dirty delete) finished.
			c.eng.After(0, func() {
				if st := c.hotKeys[id]; st != nil {
					c.refreshHot(st)
				}
			})
		})
	}
	c.every(c.cfg.Rebalance.Interval, func() bool {
		c.hotKeyTick()
		return true
	})
}

// maybePromoteHot runs the promotion policy for one stuck switch
// domain: if the stuck slot's hottest-key register shows a dominant
// key, promote it onto the domain's highest-capacity other groups.
func (c *Cluster) maybePromoteHot(s int, policy *rebalance.Policy, front *core.Frontend) {
	slot, stuck := policy.LastStuck()
	if !stuck {
		return
	}
	kh := front.KeyHeatOf(slot)
	if !c.cfg.HotKey.ShouldPromote(kh.Votes, front.HeatOf(slot).Total()) {
		return
	}
	id := kh.Cand
	if _, ok := c.hotKeys[id]; ok {
		return
	}
	// At most one promoted key per slot, as PromoteKey enforces.
	for _, st := range c.hotKeys {
		if st.slot == slot {
			return
		}
	}
	if holders := c.pickHolders(c.rack.RouteOf(slot), s); len(holders) > 0 {
		c.promoteObject(id, slot, s, holders)
	}
}

// pickHolders runs the promotion policy's capacity-weighted holder
// choice for a key homed on group home of switch sw. Holders must live
// behind the SAME front-end: a spread read is handed to the holder's
// scheduler partition in the home switch's traversal, and partitions
// are hosted only on their owning switch.
func (c *Cluster) pickHolders(home, sw int) []int {
	return c.cfg.HotKey.PickHolders(home, c.domainWeights(sw))
}

// promoteObject installs a hot-key table entry (all holders invalid,
// so reads stay home until the first refresh lands) and starts the
// seeding refresh.
func (c *Cluster) promoteObject(id wire.ObjectID, slot, sw int, holders []int) {
	c.rack.Front(sw).Promote(id, holders)
	st := &hotKeyEntry{id: id, slot: slot, sw: sw, holders: append([]int(nil), holders...)}
	c.hotKeys[id] = st
	c.hotKeyOrder = append(c.hotKeyOrder, id)
	c.hotKeyPromotions++
	c.rec.Emit(trace.Event{
		Kind: trace.EvHotPromote, Switch: int16(sw), Group: int16(c.rack.RouteOf(slot)),
		Slot: int16(slot), Arg: uint64(id), Arg2: uint64(len(holders)),
	})
	c.refreshHot(st)
}

// refreshHot copies the promoted key's newest committed value from the
// home group to every holder and validates the switch entry against
// the write generation captured at the start — the Hermes refresh.
func (c *Cluster) refreshHot(st *hotKeyEntry) {
	if st.refreshing {
		return
	}
	front := c.rack.Front(st.sw)
	gen, ok := front.WriteGen(st.id)
	if !ok {
		return // demoted at the switch; the tick reconciles
	}
	home := c.rack.RouteOf(st.slot)
	// Commit barrier: a standing dirty-set entry means a write was
	// sequenced whose value may not be applied anywhere yet — a
	// refresh now could validate generation N while carrying N−1's
	// value. Wait for the completion (whose traversal re-cues us).
	if sched := front.Group(home); sched != nil && sched.DirtyKey(st.id) {
		return
	}
	// Key scope, read from the home replicas that are up; the holders
	// are resolved when the copy lands, since demotion, retirement and
	// slot migration can all move them while it is in flight.
	var up []ReplicaHandle
	for i, rep := range c.groups[home].replicas {
		if !c.net.IsDown(c.groupAddr(home, i)) {
			up = append(up, rep)
		}
	}
	sh := new(shipment)
	sh.collect(up, scope{slots: []int{st.slot}, key: &st.id})
	if sh.n == 0 {
		return // never written: holders stay invalid, reads stay home
	}
	st.refreshing = true
	c.ship(sh, func(slot int) []int {
		if c.hotKeys[st.id] != st {
			return nil // demoted while the copy was in flight
		}
		var holders []int
		for _, g := range st.holders {
			if g != c.rack.RouteOf(slot) && c.rack.Live(g) {
				holders = append(holders, g)
			}
		}
		return holders
	}, func() {
		st.refreshing = false
		if c.hotKeys[st.id] != st {
			return
		}
		curHome := c.rack.RouteOf(st.slot)
		// The refresh completion travels the real (lossy) network to
		// the switch; its Seq carries the captured write generation,
		// and the front-end consumes it without touching a scheduler.
		// If it drops, the entry stays invalid and the tick retries.
		done := c.pkts.New()
		done.Op, done.Flags = wire.OpWriteCompletion, wire.FlagRefresh
		done.ObjID, done.Seq = st.id, wire.Seq{N: gen}
		c.net.Send(controllerAddr, switchAddrOf(st.sw), done)
		c.rec.Emit(trace.Event{
			Kind: trace.EvHotRefresh, Switch: int16(st.sw), Group: int16(curHome),
			Slot: int16(st.slot), Arg: uint64(st.id), Arg2: gen,
		})
		// A write sequenced while this copy was in flight makes the
		// completion above fail generation validation — and that
		// write's own hook found refreshing=true and gave up. Re-cue
		// here, or the entry stays invalid until the next tick.
		if g2, ok := front.WriteGen(st.id); ok && g2 != gen {
			c.refreshHot(st)
		}
	})
}

// hotKeyTick reconciles every promoted key once per interval: demote
// entries the topology moved out from under (cross-switch home move,
// switch reboot, vanished holders), retry refreshes whose completion
// was lost, and advance the demotion cool-down.
func (c *Cluster) hotKeyTick() {
	if len(c.hotKeys) == 0 {
		return
	}
	var demote []*hotKeyEntry
	for _, id := range c.hotKeyOrder {
		st := c.hotKeys[id]
		if st == nil {
			continue
		}
		front := c.rack.Front(st.sw)
		hk, ok := front.Promoted(id)
		if !ok || c.rack.SwitchOfSlot(st.slot) != st.sw || len(hk.Holders) == 0 {
			// The switch rebooted (soft entry gone), the home slot
			// migrated to another switch domain, or every holder
			// retired: the mechanism no longer applies here.
			demote = append(demote, st)
			continue
		}
		if hk.InvalidCount() > 0 {
			// A lost WRITE-COMPLETION leaves the refresh barrier standing
			// until the home group's commit point passes the stray, and
			// an idle group never moves it: when the point stood still
			// since the last tick, sweep, then nudge it with a flush
			// write (as the handoff drain does) if the entry still stands.
			home := c.rack.RouteOf(st.slot)
			if sched := front.Group(home); sched != nil && !st.refreshing {
				if last := sched.LastCommitted(); last != st.homeLast {
					st.homeLast = last
				} else if sched.DirtyKey(st.id) {
					if sched.SweepStale(); sched.DirtyKey(st.id) {
						c.flushWrite(home)
					}
				}
			}
			c.refreshHot(st)
		}
		r, w := front.HotHeatOf(id)
		if r+w <= c.cfg.HotKey.CoolOps {
			st.cool++
		} else {
			st.cool = 0
		}
		if st.cool >= c.cfg.HotKey.CoolRounds {
			demote = append(demote, st)
		}
	}
	for _, st := range demote {
		c.demoteObject(st)
	}
}

// demoteObject tears a promoted key down: the switch entry goes, so no
// further read is spread. The holders keep their copies: a spread read
// routed before the demotion may still be on its way to one, and must
// find the key there. A copy left behind is never read again — reads
// spread only while an entry is valid, and a new promotion validates
// only after its refresh replaced the copy — and the next whole-slot
// transfer that delivers the slot to the holder clears it (ship). Until
// then each holder replica keeps at most one copy per key that was
// promoted onto it and demoted: a key refresh overwrites only its own
// key, so in a static topology under promote/demote churn the leftovers
// grow with the number of distinct keys ever demoted.
func (c *Cluster) demoteObject(st *hotKeyEntry) {
	if c.hotKeys[st.id] != st {
		return
	}
	c.rack.Front(st.sw).Demote(st.id)
	home := c.rack.RouteOf(st.slot)
	delete(c.hotKeys, st.id)
	for i, id := range c.hotKeyOrder {
		if id == st.id {
			c.hotKeyOrder = append(c.hotKeyOrder[:i], c.hotKeyOrder[i+1:]...)
			break
		}
	}
	c.hotKeyDemotions++
	c.rec.Emit(trace.Event{
		Kind: trace.EvHotDemote, Switch: int16(st.sw), Group: int16(home),
		Slot: int16(st.slot), Arg: uint64(st.id),
	})
}

// hotKeysDropGroup reacts to group g's store being replaced or retired
// (membership respec, removal, dead-switch reassignment): any promoted
// key g held must stop spreading there SYNCHRONOUSLY — the group's new
// incarnation does not hold the foreign-slot copy, so one spread read
// before the next tick would return not-found for a live object.
func (c *Cluster) hotKeysDropGroup(g int) {
	if len(c.hotKeys) == 0 {
		return
	}
	for _, id := range append([]wire.ObjectID(nil), c.hotKeyOrder...) {
		st := c.hotKeys[id]
		if st == nil {
			continue
		}
		if c.rack.RouteOf(st.slot) == g {
			// The key's HOME is being torn down; elastic evacuation has
			// already moved (or is moving) the slot's objects, and the
			// promotion no longer matches the topology it was made for.
			c.demoteObject(st)
			continue
		}
		for _, h := range st.holders {
			if h != g {
				continue
			}
			left := c.rack.Front(st.sw).RemoveHolder(id, g)
			out := st.holders[:0]
			for _, x := range st.holders {
				if x != g {
					out = append(out, x)
				}
			}
			st.holders = out
			if left == 0 {
				c.demoteObject(st)
			}
			break
		}
	}
}

// PromoteKey manually promotes key onto the given holder groups (or,
// with none given, the promotion policy's capacity-weighted pick).
// Holders must be live groups of the key's own switch domain.
func (c *Cluster) PromoteKey(key string, holders ...int) error {
	if c.hotKeys == nil {
		return fmt.Errorf("cluster: hot-key replication not enabled (Config.HotKeys)")
	}
	id := wire.HashKey(key)
	if _, ok := c.hotKeys[id]; ok {
		return nil
	}
	slot := wire.SlotOf(id)
	sw := c.rack.SwitchOfSlot(slot)
	home := c.rack.RouteOf(slot)
	topo := c.rack.Topo()
	for _, st := range c.hotKeys {
		if st.slot == slot {
			return fmt.Errorf("cluster: slot %d already has a promoted key", slot)
		}
	}
	if len(holders) == 0 {
		if holders = c.pickHolders(home, sw); len(holders) == 0 {
			return fmt.Errorf("cluster: no eligible holder group for %q", key)
		}
	}
	for _, g := range holders {
		if g < 0 || g >= c.rack.Groups() || !topo.Live(g) {
			return fmt.Errorf("cluster: holder %d is not a live group", g)
		}
		if g == home {
			return fmt.Errorf("cluster: holder %d is %q's home group", g, key)
		}
		if topo.SwitchOfGroup(g) != sw {
			return fmt.Errorf("cluster: holder %d lives on switch %d, key on %d", g, topo.SwitchOfGroup(g), sw)
		}
	}
	c.promoteObject(id, slot, sw, holders)
	return nil
}

// DemoteKey manually demotes key, reporting whether it was promoted.
func (c *Cluster) DemoteKey(key string) bool {
	st := c.hotKeys[wire.HashKey(key)]
	if st == nil {
		return false
	}
	c.demoteObject(st)
	return true
}

// KeyPromoted reports whether key currently has a hot-key entry, and
// if so its wire-level switch view.
func (c *Cluster) KeyPromoted(key string) (wire.HotKey, bool) {
	st := c.hotKeys[wire.HashKey(key)]
	if st == nil {
		return wire.HotKey{}, false
	}
	return c.rack.Front(st.sw).Promoted(st.id)
}

// HotKeyCount returns the number of currently promoted keys.
func (c *Cluster) HotKeyCount() int { return len(c.hotKeys) }

// HotKeyStats returns lifetime promotion and demotion counts.
func (c *Cluster) HotKeyStats() (promotions, demotions uint64) {
	return c.hotKeyPromotions, c.hotKeyDemotions
}
