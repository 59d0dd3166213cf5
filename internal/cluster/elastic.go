package cluster

import (
	"fmt"
	"slices"

	"harmonia/internal/core"
	"harmonia/internal/rebalance"
	"harmonia/internal/sim"
	"harmonia/internal/wire"
	"harmonia/internal/workload"
)

// Elastic membership: the four runtime mutations of the rack's
// epoch-versioned topology.
//
//   - AddGroup builds a new replica group on the most loaded alive
//     switch and seeds it a weight-fair slot share via the ordinary
//     online migration protocol (heat-aware: the new group takes the
//     rack's hottest slots first).
//   - RemoveGroup evacuates a group's slots to the surviving live
//     groups (weight-apportioned), then retires it through the §5.3
//     revoke/ack agreement so no member can serve a fast read past
//     retirement.
//   - RespecGroup replaces a live group's member set (protocol,
//     replica count, calibration) by a staged swap: freeze all its
//     slots, drain the scheduler partition, run the revoke agreement,
//     copy the state into the new incarnation, and resume at the SAME
//     switch epoch with the sequence space continued (AdoptFrom).
//   - ReassignDeadSwitch batch-recovers a permanently dead switch's
//     slot shard from its groups' replica stores — the replicas hold
//     every committed write — and re-homes the slots on the survivors.
//
// Every mutation lands in rack.Topology exactly once and bumps its
// epoch; the rebalancer, the client load split, and routing all read
// the new membership through that one indirection.

// Reconfig tracks one in-flight elastic membership operation. The
// non-blocking Start* forms return it immediately; the operation then
// advances on simulation timers exactly like an online migration.
type Reconfig struct {
	// Kind names the operation: "add", "remove", "respec", "reassign".
	Kind string
	// Group is the group the operation targets (for "reassign", the
	// dead switch's ID instead).
	Group int

	handoffs []*Migration // the slot handoffs it started
	done     bool
	err      error
}

// Done reports whether the operation settled (successfully or not).
func (r *Reconfig) Done() bool { return r.done }

// Err returns the terminal error of a settled operation (nil on
// success; meaningless before Done).
func (r *Reconfig) Err() error { return r.err }

func (r *Reconfig) fail(err error) {
	if !r.done {
		r.err = err
		r.done = true
	}
}

func (r *Reconfig) finish() { r.done = true }

// elasticDeadline bounds one elastic operation's blocking drive: the
// slowest path (evacuate every slot of a group, then run the revoke
// agreement) is a handful of migration deadlines end to end.
const elasticDeadline = 4 * migrateDeadline

// driveReconfig turns a Start* call into its blocking form: it runs
// the simulation until the started operation settles, converting a
// terminal failure (or a wedged drain) into an error.
func (c *Cluster) driveReconfig(r *Reconfig, err error) error {
	if err != nil {
		return err
	}
	deadline := c.eng.Now() + sim.Time(elasticDeadline)
	for !r.done && c.eng.Now() < deadline {
		if !c.eng.Step() {
			break
		}
	}
	if !r.done {
		return fmt.Errorf("cluster: %s of group %d did not complete", r.Kind, r.Group)
	}
	return r.err
}

// --- AddGroup (scale-out) ---

// AddGroup grows the cluster by one replica group built from spec
// (defaulted by exactly the assembly-time rules) and returns its ID.
// The group is placed on the alive switch with the most heat per
// capacity unit, registered in the topology (epoch bump), and then
// seeded a weight-fair share of the slot space through ordinary
// online migrations — non-blocking, so scale-out under load costs at
// most the per-batch freeze windows, never a global pause. The
// returned Reconfig settles once the seeding migrations finish and
// the group has served its priming write.
func (c *Cluster) AddGroup(spec GroupSpec) (int, *Reconfig, error) {
	if len(c.groups) >= MaxGroups {
		return 0, nil, fmt.Errorf("cluster: group count is already at the maximum %d", MaxGroups)
	}
	sp, err := c.admitSpec(spec)
	if err != nil {
		return 0, nil, err
	}
	sw, err := c.placeGroup()
	if err != nil {
		return 0, nil, err
	}

	g := c.rack.AddGroup(sw, sp.Weight)
	grp := &replicaGroup{idx: g, spec: sp, n: sp.Replicas}
	c.groups = append(c.groups, grp)
	c.cfg.GroupSpecs = append(c.cfg.GroupSpecs, sp.GroupSpec)
	c.cfg.Groups = len(c.groups)
	grp.sched = c.newScheduler(g, c.rack.Epoch(sw))
	c.rack.SetGroup(g, grp.sched)
	c.buildGroupReplicas(grp)
	c.linkGroup(grp)
	c.ctl.grantGroupLeases(g, c.rack.Epoch(sw))
	c.startSweep(grp)

	migs := c.seedGroup(g)
	r := &Reconfig{Kind: "add", Group: g, handoffs: migs}
	c.watchMigrations(migs, func() {
		if !slices.Contains(c.rack.SlotTable(), g) {
			r.fail(fmt.Errorf("cluster: seeding group %d moved no slots (sources could not drain)", g))
			return
		}
		c.primeGroupAsync(g)
		r.finish()
	})
	return g, r, nil
}

// AddGroupWait is the blocking form of AddGroup: it drives the
// simulation until the seeding migrations settle and the group is
// primed.
func (c *Cluster) AddGroupWait(spec GroupSpec) (int, error) {
	g, r, err := c.AddGroup(spec)
	return g, c.driveReconfig(r, err)
}

// admitSpec holds a spec submitted at runtime to the assembly-time
// rules — resolveSpec, then the per-spec checks of Config.Validate —
// and to the boot cluster's weight scale.
func (c *Cluster) admitSpec(spec GroupSpec) (ResolvedSpec, error) {
	sp := c.cfg.resolveSpec(spec)
	if err := sp.validate(); err != nil {
		return sp, fmt.Errorf("cluster: %w", err)
	}
	if c.weightsExplicit && spec.Weight == 0 {
		return sp, fmt.Errorf("cluster: this cluster uses explicit capacity weights; the new spec must set one")
	}
	if !c.weightsExplicit && spec.Weight > 0 {
		return sp, fmt.Errorf("cluster: this cluster derives capacity weights from calibration; the new spec must not set an explicit one")
	}
	return sp, nil
}

// placeGroup picks the switch a new group should live on: the alive
// switch carrying the most heat per capacity unit — new capacity goes
// where the rack is working hardest. Cold racks (no heat yet) fall
// back to the alive switch hosting the fewest live groups.
func (c *Cluster) placeGroup() (int, error) {
	topo := c.rack.Topo()
	n := c.rack.Switches()
	heat := make([]float64, n)
	cap := make([]float64, n)
	groups := make([]int, n)
	var sample [wire.NumSlots]core.SlotHeat
	c.rack.SlotHeatInto(sample[:])
	for slot, h := range sample[:] {
		heat[topo.SwitchOfSlot(slot)] += float64(h.Total())
	}
	for _, g := range topo.LiveGroups() {
		s := topo.SwitchOfGroup(g)
		cap[s] += topo.Weight(g)
		groups[s]++
	}
	best := -1
	var bestScore float64
	for s := 0; s < n; s++ {
		if c.net.IsDown(switchAddrOf(s)) {
			continue
		}
		score := 0.0
		if cap[s] > 0 {
			score = heat[s] / cap[s]
		}
		if best == -1 || score > bestScore ||
			(score == bestScore && groups[s] < groups[best]) {
			best, bestScore = s, score
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("cluster: no alive switch to place the new group on")
	}
	return best, nil
}

// seedGroup computes the new group's heat-aware slot seed (PlanSeed's
// largest-remainder apportionment over the new live set) and starts it
// as one non-blocking batch migration per source group. A batch that
// cannot start (its source grew a conflicting freeze since planning)
// is simply skipped: the rebalancer evens the share out later.
func (c *Cluster) seedGroup(g int) []*Migration {
	var heat [wire.NumSlots]core.SlotHeat
	c.rack.SlotHeatInto(heat[:])
	moves := rebalance.PlanSeed(heat[:], c.rack.SlotTable(), c.rack.Topo().LiveWeights(), g)
	slots := make([]int, len(moves))
	for i, mv := range moves {
		slots[i] = mv.Slot
	}
	var migs []*Migration
	for _, batch := range c.bySource(slots) {
		if m, err := c.StartBatchMigration(batch, g); err == nil {
			migs = append(migs, m)
		}
	}
	return migs
}

// watchMigrations polls a set of in-flight handoffs and calls onDone
// once every one of them settled (completed or self-aborted at its
// drain deadline). An empty set settles immediately on the first poll.
func (c *Cluster) watchMigrations(migs []*Migration, onDone func()) {
	c.every(migratePollInterval, func() bool {
		if !settled(migs) {
			return true
		}
		onDone()
		return false
	})
}

// primeGroupAsync issues the new group's priming write once it owns an
// unfrozen slot, so its scheduler partition observes a first
// WRITE-COMPLETION and enables fast reads (§5.3 applies to scale-out
// exactly as to cold boots). Bounded retries: a group that lost all
// its slots again in the meantime simply stays unprimed.
func (c *Cluster) primeGroupAsync(g int) {
	tries := 0
	c.every(migratePollInterval, func() bool {
		if !c.rack.Live(g) {
			return false
		}
		key, ok := c.keyInGroup(g, fmt.Sprintf("__prime__%d_", g), false)
		if !ok {
			tries++
			return tries <= 1024
		}
		c.flushCtr++
		c.controlWrite(g, key, 0, 1<<32+c.flushCtr)
		return false
	})
}

// --- RemoveGroup (scale-in) ---

// StartRemoveGroup begins retiring group g: its slots are evacuated to
// the remaining live groups (weight-apportioned, via the ordinary
// online migrations, client tables included), and once the
// evacuation completes the §5.3 revoke agreement retires
// the group: every member acknowledges losing its lease, the
// scheduler partition is torn down, the topology marks the ID
// permanently dead (epoch bump), and the member nodes shut down.
func (c *Cluster) StartRemoveGroup(g int) (*Reconfig, error) {
	if g < 0 || g >= len(c.groups) {
		return nil, fmt.Errorf("cluster: group %d out of range", g)
	}
	if !c.rack.Live(g) {
		return nil, fmt.Errorf("cluster: group %d is already retired", g)
	}
	dests := slices.DeleteFunc(c.servingGroups(), func(d int) bool { return d == g })
	if len(dests) == 0 {
		return nil, fmt.Errorf("cluster: no live destination group to evacuate group %d to", g)
	}
	if err := c.settleHandoffs(g); err != nil {
		return nil, err
	}
	slots := c.slotsOf(g)
	r := &Reconfig{Kind: "remove", Group: g}
	c.groups[g].reconfig = r
	if len(slots) == 0 {
		c.retireGroup(g, r.finish)
		return r, nil
	}
	// Each destination's chunk is one batch handoff.
	var migs []*Migration
	for k, chunk := range c.shareOut(slots, dests) {
		if len(chunk) == 0 {
			continue
		}
		m, err := c.StartBatchMigration(chunk, dests[k])
		if err != nil {
			for _, prev := range migs {
				prev.Abort()
			}
			r.fail(err)
			return nil, err
		}
		migs = append(migs, m)
	}
	r.handoffs = migs
	c.watchMigrations(migs, func() {
		for _, m := range migs {
			if m.aborted {
				// The group could not drain some batch: it keeps those
				// slots and stays live — scale-in failed cleanly.
				r.fail(fmt.Errorf("cluster: evacuating group %d aborted (%d slot(s) stayed)", g, len(m.Slots)))
				return
			}
		}
		c.retireGroup(g, r.finish)
	})
	return r, nil
}

// RemoveGroup is the blocking form of StartRemoveGroup.
func (c *Cluster) RemoveGroup(g int) error { return c.driveReconfig(c.StartRemoveGroup(g)) }

// settleHandoffs makes way for an elastic operation on the given
// groups. The operation decides once which slots its groups own, and an
// in-flight handoff from or to one of them would flip slots behind that
// decision (onto a group about to retire, or out of a copy already
// taken). A handoff that has not reached the copy is aborted; one that
// has is moments from flipping and can no longer be abandoned, so the
// operation is refused with nothing changed.
func (c *Cluster) settleHandoffs(groups ...int) error {
	var hit []*Migration // in slot order, not map order: aborts land in the flight recorder
	for slot := 0; slot < wire.NumSlots; slot++ {
		m := c.migrations[slot]
		if m == nil || !(slices.Contains(groups, m.From) || slices.Contains(groups, m.To)) {
			continue
		}
		if m.copying {
			return fmt.Errorf("cluster: slot %d is mid-migration from group %d to %d; retry after it settles", slot, m.From, m.To)
		}
		if !slices.Contains(hit, m) {
			hit = append(hit, m)
		}
	}
	for _, m := range hit {
		m.Abort()
	}
	return nil
}

// slotsOf lists the slots currently routed to group g, ascending.
func (c *Cluster) slotsOf(g int) []int {
	var slots []int
	for slot, owner := range c.rack.SlotTable() {
		if owner == g {
			slots = append(slots, slot)
		}
	}
	return slots
}

// servingGroups lists the live groups whose switch is up and that are
// not themselves leaving or being rebuilt — where evacuated or
// recovered slots can go.
func (c *Cluster) servingGroups() []int {
	topo := c.rack.Topo()
	return slices.DeleteFunc(topo.LiveGroups(), func(g int) bool {
		return c.net.IsDown(switchAddrOf(topo.SwitchOfGroup(g))) || c.checkDest(g) != nil
	})
}

// checkDest reports why group g cannot be handed slots, or nil. A
// retired group has no scheduler partition to flip a route to; a group
// mid-removal or mid-respec decided at its start which slots it owns,
// and one arriving afterwards would be stranded on a group about to
// retire (or missing from the copy into its new member set).
func (c *Cluster) checkDest(g int) error {
	if g < 0 || g >= len(c.groups) {
		return fmt.Errorf("cluster: destination group %d out of range", g)
	}
	if !c.rack.Live(g) {
		return fmt.Errorf("cluster: destination group %d is retired", g)
	}
	if r := c.groups[g].reconfig; r != nil && !r.done {
		return fmt.Errorf("cluster: destination group %d is mid-%s; retry after it settles", g, r.Kind)
	}
	return nil
}

// shareOut cuts slots, in order, into one contiguous chunk per
// destination group, sized by the destinations' capacity weights.
func (c *Cluster) shareOut(slots, dests []int) [][]int {
	topo := c.rack.Topo()
	w := make([]float64, len(dests))
	for k, d := range dests {
		w[k] = topo.Weight(d)
	}
	chunks := make([][]int, len(dests))
	start := 0
	for k, n := range workload.Apportion(len(slots), w) {
		chunks[k] = slots[start : start+n]
		start += n
	}
	return chunks
}

// retireGroup runs the retirement agreement for a group no slot routes
// to any more: the lease chain is cut (generation bump), every member
// acknowledges revocation of the current epoch's lease — so no member
// can serve a fast read past this point — and then the group leaves
// the topology for good and done is called.
func (c *Cluster) retireGroup(g int, done func()) {
	grp := c.groups[g]
	grp.leaseGen++
	epoch := c.rack.Epoch(c.rack.SwitchOfGroup(g))
	c.ctl.revokeThen(g, epoch, func() {
		c.rack.SetGroup(g, nil)
		grp.sched = nil
		c.rack.RetireGroup(g)
		for _, addr := range grp.addrs() {
			c.net.SetDown(addr, true)
		}
		// Any promoted key g held a replica of must stop spreading
		// there in the same event — g's copies leave with it.
		c.hotKeysDropGroup(g)
		done()
	})
}

// --- RespecGroup (live membership swap) ---

// StartRespecGroup replaces group g's member set with one built from
// spec — a different protocol, replica count, or calibration — without
// moving any of its slots. The swap is staged like a whole-group
// migration onto itself: freeze every slot, drain the scheduler
// partition (forced flush writes pass the freeze), run the §5.3
// revoke agreement over the OLD members, copy the group's objects and
// client table into the NEW incarnation (fresh addresses in the next
// incarnation sub-window), and resume at the same switch epoch with
// the sequence space continued — in-flight sequencing state survives
// the swap, so the write-order guard never trips.
func (c *Cluster) StartRespecGroup(g int, spec GroupSpec) (*Reconfig, error) {
	if g < 0 || g >= len(c.groups) {
		return nil, fmt.Errorf("cluster: group %d out of range", g)
	}
	if !c.rack.Live(g) {
		return nil, fmt.Errorf("cluster: group %d is retired", g)
	}
	grp := c.groups[g]
	if grp.inc+1 >= maxIncarnations {
		return nil, fmt.Errorf("cluster: group %d exhausted its %d membership incarnations", g, maxIncarnations)
	}
	sp, err := c.admitSpec(spec)
	if err != nil {
		return nil, err
	}
	if err := c.settleHandoffs(g); err != nil {
		return nil, err
	}
	slots := c.slotsOf(g)
	for _, s := range slots {
		if c.rack.Frozen(s) {
			return nil, fmt.Errorf("cluster: slot %d of group %d is frozen by another reconfiguration; retry after it settles", s, g)
		}
	}
	for _, s := range slots {
		c.rack.FreezeSlot(s)
	}
	r := &Reconfig{Kind: "respec", Group: g}
	grp.reconfig = r
	// The whole partition drains, not just the slots: the successor
	// scheduler adopts the sequence space but not the dirty set.
	c.drain(g, nil, c.eng.Now()+sim.Time(migrateDeadline),
		func() { c.swapMembers(g, sp, slots, r) },
		func() {
			for _, s := range slots {
				c.rack.UnfreezeSlot(s)
			}
			r.fail(fmt.Errorf("cluster: group %d could not drain for respec", g))
		})
	return r, nil
}

// RespecGroup is the blocking form of StartRespecGroup.
func (c *Cluster) RespecGroup(g int, spec GroupSpec) error {
	return c.driveReconfig(c.StartRespecGroup(g, spec))
}

// swapMembers is the respec commit path, entered once the partition
// drained: revoke the old members' leases (they ack — the agreement —
// and can never serve a fast read again), then copy state sideways
// into the new incarnation and resume.
func (c *Cluster) swapMembers(g int, spec ResolvedSpec, slots []int, r *Reconfig) {
	grp := c.groups[g]
	epoch := c.rack.Epoch(c.rack.SwitchOfGroup(g))
	grp.leaseGen++ // cut the old chain before the new grant re-arms it
	c.ctl.revokeThen(g, epoch, func() {
		// Collect from the OLD members before they are replaced.
		sh := new(shipment)
		sh.collect(grp.replicas, scope{slots: slots})
		oldAddrs := grp.addrs()
		oldSched := grp.sched

		// New incarnation: fresh addresses, same group ID, same slots.
		grp.inc++
		grp.spec = spec
		grp.n = spec.Replicas
		c.cfg.GroupSpecs[g] = spec.GroupSpec
		c.buildGroupReplicas(grp)
		c.linkGroup(grp)

		c.ship(sh, func(int) []int { return []int{g} }, func() {
			next := c.newScheduler(g, epoch)
			next.AdoptFrom(oldSched)
			c.rack.SetGroup(g, next)
			grp.sched = next
			// The respec'd incarnation only received the group's own
			// slots: promoted-key copies it held as a foreign holder
			// did not travel, so stop spreading reads to it.
			c.hotKeysDropGroup(g)
			c.ctl.grantGroupLeases(g, epoch)
			for _, a := range oldAddrs {
				c.net.SetDown(a, true)
			}
			for _, s := range slots {
				c.rack.UnfreezeSlot(s)
			}
			// The weight may have changed with the spec; installing it
			// bumps the topology epoch either way, announcing the
			// membership revision to every epoch-keyed consumer.
			c.rack.SetGroupWeight(g, spec.Weight)
			r.finish()
		})
	})
}

// --- ReassignDeadSwitch (disaster recovery) ---

// StartReassignDeadSwitch batch-migrates a permanently dead switch's
// entire slot shard to the surviving switches' live groups. The dead
// front-end cannot drain — it is gone, along with its scheduler
// partitions — so this is a recovery transfer, not an online handoff:
// the victims' replica stores hold every committed write (the
// replicas are servers, not switch state), so collect recovers the
// slots from them, and ship re-homes each on one survivor. The victims
// then retire through the revoke agreement and the topology epoch
// moves once per retired group.
func (c *Cluster) StartReassignDeadSwitch(s int) (*Reconfig, error) {
	if s < 0 || s >= c.rack.Switches() {
		return nil, fmt.Errorf("cluster: switch %d out of range", s)
	}
	if !c.net.IsDown(switchAddrOf(s)) {
		return nil, fmt.Errorf("cluster: switch %d is alive; use slot migration instead", s)
	}
	victims := c.rack.GroupsOf(s)
	if len(victims) == 0 {
		return nil, fmt.Errorf("cluster: switch %d hosts no live groups", s)
	}
	dests := c.servingGroups() // switch s is down, so none of its own
	if len(dests) == 0 {
		return nil, fmt.Errorf("cluster: no surviving live group to reassign switch %d's slots to", s)
	}
	if err := c.settleHandoffs(victims...); err != nil {
		return nil, err
	}
	r := &Reconfig{Kind: "reassign", Group: s}

	// Recover each victim's stranded slots from its own replicas: all
	// of them, crashed ones included — the switch died, not the servers,
	// and a store that stopped early is still a store.
	sh := new(shipment)
	for _, v := range victims {
		sh.collect(c.groups[v].replicas, scope{slots: c.slotsOf(v)})
	}
	slots := slices.Sorted(slices.Values(sh.slots))

	// One destination per chunk; the client tables go to every
	// destination.
	destOf := make(map[int][]int, len(slots))
	for k, chunk := range c.shareOut(slots, dests) {
		for _, slot := range chunk {
			destOf[slot] = dests[k : k+1]
		}
	}
	c.ship(sh, func(slot int) []int { return destOf[slot] }, func() {
		for _, slot := range slots {
			// SetRoute transfers front-end ownership off the dead
			// switch; the destination picks the slot up thawed.
			c.rack.SetRoute(slot, destOf[slot][0])
		}
		remaining := len(victims)
		for _, v := range victims {
			c.retireGroup(v, func() {
				if remaining--; remaining == 0 {
					r.finish()
				}
			})
		}
	})
	return r, nil
}

// ReassignDeadSwitch is the blocking form of StartReassignDeadSwitch.
func (c *Cluster) ReassignDeadSwitch(s int) error {
	return c.driveReconfig(c.StartReassignDeadSwitch(s))
}
