package cluster

import (
	"fmt"
	"time"

	"harmonia/internal/sim"
	"harmonia/internal/trace"
	"harmonia/internal/wire"
)

// Online slot migration (group rebalancing). The handoff follows the
// §5.3 playbook, applied to a set of routing slots instead of a whole
// switch:
//
//  1. freeze — the front-end drops the slots' client reads and writes,
//     exactly as a booting switch drops everything; client timeouts
//     handle retry. Replica-originated traffic (replies, completions)
//     still flows, which is what lets the source drain.
//  2. drain — wait until the source scheduler's dirty set holds no
//     entry for any of the slots (drain, transfer.go).
//  3. copy — collect the slots' objects and the source's client tables
//     and ship them to the destination replicas (transfer.go).
//  4. flip & thaw — point the slots' routes at the destination, drop
//     the source copies, and unfreeze. The next retry of any dropped
//     request lands on the new owner, which has everything.
//
// A batch pays the freeze window, the drain, the copy round trip, and
// the flip ONCE for the whole slot set, where per-slot migration pays
// each of them per slot — that amortization is what makes rebalancing
// rounds cheap enough to run from a control loop.
const (
	// migratePollInterval paces the drain check.
	migratePollInterval = 100 * time.Microsecond
	// migrateFlushEvery is how many empty polls pass between flush
	// writes nudging an idle source group's commit point forward.
	migrateFlushEvery = 5
	// migratePerObjectCost models the state-transfer time per copied
	// object (on top of one round trip).
	migratePerObjectCost = 200 * time.Nanosecond
	// migrateDeadline bounds the blocking MigrateSlot/MigrateSlots
	// calls.
	migrateDeadline = 500 * time.Millisecond
)

// Migration tracks one online handoff of a set of slots from one
// source group to one destination.
type Migration struct {
	// Slots lists every slot in the handoff.
	Slots []int
	From  int
	To    int

	c         *Cluster
	began     sim.Time
	stopDrain func()
	objects   int
	copying   bool
	done      bool
	aborted   bool

	// auto marks a handoff initiated by the rebalancer control loop;
	// its completed slot moves land in the cluster's Rebalances
	// counter.
	auto bool
}

// Done reports whether the handoff completed (routes flipped, slots
// thawed).
func (m *Migration) Done() bool { return m.done }

// Aborted reports whether the handoff was cancelled before the copy
// started (slots thawed on their original group, nothing moved).
func (m *Migration) Aborted() bool { return m.aborted }

// Objects returns the number of objects copied (valid once Done).
func (m *Migration) Objects() int { return m.objects }

// Abort cancels a handoff that has not reached the copy stage: the
// slots thaw on their original group and become migratable again. It
// reports whether the cancellation took effect — once the copy is in
// flight the handoff is moments from completing and can no longer be
// abandoned (the routes will flip).
func (m *Migration) Abort() bool {
	if m.done || m.aborted || m.copying {
		return false
	}
	m.aborted = true
	m.stopDrain()
	for _, s := range m.Slots {
		m.c.rack.UnfreezeSlot(s)
		delete(m.c.migrations, s)
		m.c.rec.Emit(trace.Event{
			Kind: trace.EvMigrationAbort, Switch: int16(m.c.rack.SwitchOfSlot(s)),
			Group: int16(m.From), Slot: int16(s), Arg: uint64(m.To),
		})
	}
	return true
}

// StartBatchMigration begins an online handoff of a set of slots to
// group "to" as ONE operation — one freeze window, one drain, one bulk
// copy, one route flip — and returns immediately; the protocol advances
// on simulation timers so load keeps running while the slots migrate.
// At most one migration per slot may be in flight; different slots
// migrate concurrently. Slots already routed to "to" are dropped from the
// batch as no-ops; the remaining slots must share a single current
// owner (use MigrateSlots to move a mixed-owner set). An empty or
// fully-no-op batch completes instantly without freezing anything.
func (c *Cluster) StartBatchMigration(slots []int, to int) (*Migration, error) {
	if err := c.checkDest(to); err != nil {
		return nil, err
	}
	if err := checkSlots(slots); err != nil {
		return nil, err
	}
	seen := make(map[int]bool, len(slots))
	var live []int
	for _, s := range slots {
		if seen[s] {
			return nil, fmt.Errorf("cluster: slot %d listed twice in the batch", s)
		}
		seen[s] = true
		if c.rack.RouteOf(s) == to {
			continue // already there: a no-op, not a handoff
		}
		live = append(live, s)
	}
	if len(live) == 0 {
		// Nothing to move. No freeze, no drain, no copy: the route is
		// already correct for every requested slot.
		return &Migration{From: to, To: to, c: c, done: true}, nil
	}
	from := c.rack.RouteOf(live[0])
	for _, s := range live[1:] {
		if g := c.rack.RouteOf(s); g != from {
			return nil, fmt.Errorf("cluster: batch spans source groups %d and %d (slot %d); use MigrateSlots", from, g, s)
		}
	}
	for _, s := range live {
		if _, busy := c.migrations[s]; busy {
			return nil, fmt.Errorf("cluster: slot %d is already migrating", s)
		}
		if c.rack.Frozen(s) {
			// Frozen without a migration record: an elastic operation
			// (respec drain, group retirement) holds the slot.
			return nil, fmt.Errorf("cluster: slot %d is frozen by another reconfiguration", s)
		}
	}
	m := &Migration{Slots: live, From: from, To: to, c: c, began: c.eng.Now()}
	for _, s := range live {
		c.migrations[s] = m
		c.rack.FreezeSlot(s)
		c.rec.Emit(trace.Event{
			Kind: trace.EvMigrationStart, Switch: int16(c.rack.SwitchOfSlot(s)),
			Group: int16(from), Slot: int16(s), Arg: uint64(to),
		})
	}
	// The deadline bounds the drain: a source that could not drain in a
	// generous window (e.g. it can no longer commit anything) gives the
	// slots back. Without it a non-blocking handoff would keep its slots
	// — by construction the hottest ones, when the rebalancer started it
	// — frozen forever, with no caller around to notice. Blocking callers
	// report the abort as an error; the rebalancer simply re-plans from
	// fresh heat once the imbalance persists.
	m.stopDrain = c.drain(from, live, c.eng.Now()+sim.Time(migrateDeadline), m.copyAndFlip, func() { m.Abort() })
	return m, nil
}

// MigrateSlot is the blocking convenience form: it starts the handoff
// and drives the simulation until it completes. If a generous deadline
// expires first (e.g. the source group can no longer commit anything,
// so its dirty set never drains), the handoff is aborted — the slot
// thaws on its original group and stays fully available — and an
// error is returned. Migrating a slot to its current owner is a no-op
// success.
func (c *Cluster) MigrateSlot(slot, to int) error {
	return c.MigrateSlots([]int{slot}, to)
}

// MigrateSlots is the blocking batch form: the slots are grouped by
// their current owner, one batch handoff is started per source group
// (each paying one freeze/drain/copy/flip for its share), and the
// simulation is driven until every handoff completes. Slots already
// owned by "to" are no-op successes. On deadline the undrained
// handoffs are aborted — their slots thaw on their original groups —
// and an error is returned.
func (c *Cluster) MigrateSlots(slots []int, to int) error {
	if err := c.checkDest(to); err != nil {
		return err
	}
	if err := checkSlots(slots); err != nil {
		return err
	}
	var migs []*Migration
	for _, batch := range c.bySource(slots) {
		if c.rack.RouteOf(batch[0]) == to {
			continue
		}
		m, err := c.StartBatchMigration(batch, to)
		if err != nil {
			for _, prev := range migs {
				prev.Abort()
			}
			return err
		}
		migs = append(migs, m)
	}
	return c.driveMigrations(migs)
}

// checkSlots rejects slot numbers outside the routing table.
func checkSlots(slots []int) error {
	for _, s := range slots {
		if s < 0 || s >= wire.NumSlots {
			return fmt.Errorf("cluster: slot %d out of range [0, %d)", s, wire.NumSlots)
		}
	}
	return nil
}

// bySource splits slots into one batch per current owner, in
// first-seen owner order so runs stay deterministic (map-keyed
// grouping would randomize start order).
func (c *Cluster) bySource(slots []int) [][]int {
	var batches [][]int
	batchOf := make(map[int]int)
	for _, s := range slots {
		g := c.rack.RouteOf(s)
		k, ok := batchOf[g]
		if !ok {
			k = len(batches)
			batchOf[g] = k
			batches = append(batches, nil)
		}
		batches[k] = append(batches[k], s)
	}
	return batches
}

// SwapSlots exchanges two slot sets between their owning groups as two
// concurrent batch handoffs — slotsA move to slotsB's owner and vice
// versa — so a rebalancing round can trade a hot slot for a cold one
// without changing either group's slot occupancy. Each set must be
// non-empty and uniformly owned, and the two owners must differ. The
// call blocks until both handoffs complete; on deadline both are
// aborted and every slot thaws on its original owner.
func (c *Cluster) SwapSlots(slotsA, slotsB []int) error {
	ma, mb, err := c.StartSwapSlots(slotsA, slotsB)
	if err != nil {
		return err
	}
	return c.driveMigrations([]*Migration{ma, mb})
}

// StartSwapSlots begins the two batch handoffs of a SwapSlots exchange
// and returns immediately (the non-blocking form, for swaps started
// mid-run from simulation timers).
func (c *Cluster) StartSwapSlots(slotsA, slotsB []int) (*Migration, *Migration, error) {
	ga, err := c.uniformOwner(slotsA)
	if err != nil {
		return nil, nil, err
	}
	gb, err := c.uniformOwner(slotsB)
	if err != nil {
		return nil, nil, err
	}
	if ga == gb {
		return nil, nil, fmt.Errorf("cluster: swap sets share owner group %d", ga)
	}
	ma, err := c.StartBatchMigration(slotsA, gb)
	if err != nil {
		return nil, nil, err
	}
	mb, err := c.StartBatchMigration(slotsB, ga)
	if err != nil {
		ma.Abort()
		return nil, nil, err
	}
	return ma, mb, nil
}

// uniformOwner returns the single group currently owning every slot of
// the set, or an error when the set is empty, out of range, or spans
// owners.
func (c *Cluster) uniformOwner(slots []int) (int, error) {
	if len(slots) == 0 {
		return 0, fmt.Errorf("cluster: empty swap set")
	}
	if err := checkSlots(slots); err != nil {
		return 0, err
	}
	g := c.rack.RouteOf(slots[0])
	for _, s := range slots[1:] {
		if got := c.rack.RouteOf(s); got != g {
			return 0, fmt.Errorf("cluster: swap set spans groups %d and %d (slot %d)", g, got, s)
		}
	}
	return g, nil
}

// driveMigrations runs the simulation until every handoff settles
// (completes, or self-aborts at its drain deadline), reporting the
// aborted ones as an error.
func (c *Cluster) driveMigrations(migs []*Migration) error {
	deadline := c.eng.Now() + sim.Time(migrateDeadline)
	for !settled(migs) && c.eng.Now() < deadline {
		if !c.eng.Step() {
			break
		}
	}
	var stuck *Migration
	for _, m := range migs {
		if !m.done && !m.aborted && !m.Abort() {
			// The copy was already in flight: let it finish.
			for !m.done && c.eng.Step() {
			}
		}
		if !m.done && stuck == nil {
			stuck = m
		}
	}
	if stuck != nil {
		return fmt.Errorf("cluster: migration of %d slot(s) to group %d did not complete (aborted, slots stay on group %d)",
			len(stuck.Slots), stuck.To, stuck.From)
	}
	return nil
}

// settled reports whether every handoff completed or aborted.
func settled(migs []*Migration) bool {
	for _, m := range migs {
		if !m.done && !m.aborted {
			return false
		}
	}
	return true
}

// copyAndFlip runs steps 3 and 4 for the whole batch at once, entered
// once the source drained.
func (m *Migration) copyAndFlip() {
	m.copying = true
	c := m.c
	sh := new(shipment)
	sh.collect(c.groups[m.From].replicas, scope{slots: m.Slots})
	m.objects = sh.n
	c.ship(sh, func(int) []int { return []int{m.To} }, func() {
		for _, r := range c.groups[m.From].replicas {
			for _, slot := range m.Slots {
				r.DropSlot(slot)
			}
		}
		for _, slot := range m.Slots {
			c.rack.SetRoute(slot, m.To)
			c.rack.UnfreezeSlot(slot)
			delete(c.migrations, slot)
			c.rec.Emit(trace.Event{
				Kind: trace.EvMigrationFlip, Switch: int16(c.rack.SwitchOfSlot(slot)),
				Group: int16(m.To), Slot: int16(slot), Arg: uint64(m.From),
			})
		}
		m.done = true
		if m.auto {
			c.rebalanced += uint64(len(m.Slots))
		}
	})
}

// flushWrite issues one control-plane write to group g, preferring an
// unfrozen slot, so the group's last-committed point advances even
// when client load is idle. When EVERY slot the group serves is frozen
// — the whole-group drain of a retirement or respec — the nudge is forced
// through the freeze with wire.FlagFlush: the flush write quiesces
// like any other and its object travels with the batch, but without it
// the drain would wedge on a stray entry forever.
func (c *Cluster) flushWrite(g int) {
	var flags wire.Flags
	key, ok := c.keyInGroup(g, fmt.Sprintf("__flush__%d_", g), false)
	if !ok {
		if key, ok = c.keyInGroup(g, fmt.Sprintf("__flush__%d_", g), true); !ok {
			return
		}
		flags = wire.FlagFlush
	}
	c.flushCtr++
	c.controlWrite(g, key, flags, 1<<32+c.flushCtr)
}
