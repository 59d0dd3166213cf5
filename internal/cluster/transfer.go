package cluster

import (
	"slices"
	"time"

	"harmonia/internal/protocol"
	"harmonia/internal/sim"
	"harmonia/internal/store"
	"harmonia/internal/wire"
)

// State transfer: the one implementation of §5.3's "freeze → drain →
// copy the agreed state → resume" that every reconfiguration runs.
// Slot migration, group removal (which is slot migration), membership
// respec, dead-switch reassignment and the hot-key refresh all call
// drain (where a live scheduler partition has writes outstanding),
// then collect, then ship; they differ only in the scope they copy, in
// what they froze beforehand, and in the `then` that resumes service.

// scope names what a transfer carries: every object of a set of
// routing slots, or one object of one slot.
type scope struct {
	slots []int          // the routing slots the scope spans, in order
	key   *wire.ObjectID // non-nil: this object only (slots is its slot)
}

// shipment is collected state between collect and ship. It holds one
// reference on every reply in clients; ship releases them.
type shipment struct {
	key     bool                                   // a key scope: the rest of the slot is not carried
	slots   []int                                  // routing slots spanned, in collect order
	objects map[int]map[wire.ObjectID]store.Object // per slot
	n       int                                    // objects in total
	clients map[uint32]protocol.ClientRecord
}

// collect reads a scope out of the replicas that own it and adds it to
// the shipment (one call per source group; scopes must not overlap).
//
// Objects: the newest version of each across the sources. After a
// drain the replicas agree on every committed write of the scope; the
// max-merge by Seq additionally covers a replica that lags in apply or
// stopped early. Each is then neutered to epoch 0: every group's
// scheduler counts in its own sequence space, and importing a foreign
// high-water mark would wedge the destination's write-order guard,
// while an epoch-0 object passes the §7 read checks at every replica.
//
// Client tables (slot scope only): the at-most-once records travel
// with the slots. A write the source executed whose reply was lost in
// flight is still being retried by its client, and once the slot's
// route moves that retry lands on the destination — whose table would
// otherwise admit it as fresh and re-execute it, possibly clobbering a
// newer committed value of the same key (observed as a linearizability
// violation under drops). Per client the newest request wins, and at a
// tie a kept reply beats a record without one. Routes are per slot, so
// a key scope moves no retry anywhere and carries no records — it runs
// on every write of a promoted key, and exporting whole tables there
// would make each such write cost O(clients).
func (sh *shipment) collect(sources []ReplicaHandle, sc scope) {
	if sh.objects == nil {
		sh.objects = make(map[int]map[wire.ObjectID]store.Object, len(sc.slots))
	}
	sh.key = sc.key != nil
	sh.slots = append(sh.slots, sc.slots...)
	for _, slot := range sc.slots {
		newest := make(map[wire.ObjectID]store.Object)
		keep := func(id wire.ObjectID, o store.Object) {
			if cur, ok := newest[id]; !ok || cur.Seq.Less(o.Seq) {
				newest[id] = o
			}
		}
		for _, r := range sources {
			if sc.key != nil {
				if o, ok := r.GetObject(*sc.key); ok {
					keep(*sc.key, o)
				}
				continue
			}
			for id, o := range r.ExtractSlot(slot) {
				keep(id, o)
			}
		}
		for id, o := range newest {
			newest[id] = store.Object{Value: o.Value, Seq: wire.Seq{Epoch: 0, N: o.Seq.N}}
		}
		sh.objects[slot] = newest
		sh.n += len(newest)
	}
	if sc.key != nil {
		return
	}
	if sh.clients == nil {
		sh.clients = make(map[uint32]protocol.ClientRecord)
	}
	for _, r := range sources {
		for id, rec := range r.ExportClients() {
			cur, ok := sh.clients[id]
			if !ok || rec.ReqID > cur.ReqID || (rec.ReqID == cur.ReqID && cur.Reply == nil && rec.Reply != nil) {
				sh.clients[id] = rec
				rec = cur // the displaced record (zero on first sight)
			}
			// The loser's exported reference goes back to its table's
			// lifecycle.
			if rec.Reply != nil {
				rec.Reply.Release()
			}
		}
	}
}

// ship delivers a shipment after the modelled transfer time — one
// control round trip plus a per-object cost, whatever the caller froze
// stays frozen meanwhile — and then runs then in the same event.
//
// dests names, at delivery time, the groups that receive a slot's
// objects: one group where ownership moves, every holder where a copy
// is replicated, none to call the delivery off. Every replica of those
// groups installs the objects. A whole-slot delivery (migration,
// evacuation, respec) first clears the replica's table of the slot: a
// group holds nothing of its own in a slot it receives (it does not own
// the slot yet, or it is a fresh incarnation), so whatever is there is
// a leftover — a hot-key copy a demotion kept, or a CRAQ version that
// committed after the slot left. It then sizes the table to the
// shipment once, as Preload does. A key refresh, which runs on every
// write to a promoted key, overwrites its one object and leaves the
// rest of the slot alone. Every group that received a slot merges the
// client records, with kept replies re-stamped for it on flight copies
// from the cluster's packet pool: the destination's Group, and a zero
// Seq so the replay's traversal of the switch cannot masquerade as a
// source-group write-completion and inflate its commit point.
func (c *Cluster) ship(sh *shipment, dests func(slot int) []int, then func()) {
	delay := 2*linkLatency + time.Duration(sh.n)*migratePerObjectCost
	c.eng.After(delay, func() {
		var reached []int // destination groups, first-seen in slot order
		for _, slot := range sh.slots {
			for _, g := range dests(slot) {
				for _, r := range c.groups[g].replicas {
					if !sh.key {
						r.DropSlot(slot)
						r.Reserve(slot, len(sh.objects[slot]))
					}
					r.InstallSlot(sh.objects[slot])
				}
				if !slices.Contains(reached, g) {
					reached = append(reached, g)
				}
			}
		}
		for _, g := range reached {
			recs := make(map[uint32]protocol.ClientRecord, len(sh.clients))
			for id, rec := range sh.clients {
				if rec.Reply != nil {
					rep := c.pkts.FlightClone(rec.Reply)
					rep.Seq = wire.Seq{}
					rep.Group = uint16(g)
					rec.Reply = rep
				}
				recs[id] = rec
			}
			for _, r := range c.groups[g].replicas {
				r.MergeClients(recs)
			}
			protocol.ReleaseRecords(recs)
		}
		protocol.ReleaseRecords(sh.clients)
		then()
	})
}

// drain polls group g's scheduler partition until no write it
// sequenced for the slots (nil: for any slot at all) is outstanding,
// then calls drained; a poll at or past deadline calls timedOut
// instead. In-order write processing (§5.2) makes an empty dirty set
// the full quiescence signal: every such write has either committed
// everywhere or can never apply, so the replicas' stores are the
// complete picture. Stray entries (lost WRITE-COMPLETIONs) are swept
// as the commit point passes them; DirtyCount is a cheap occupancy
// counter gating both register scans. When the slots still look busy
// and nothing has cleared them the group may be idle behind a stray,
// so every migrateFlushEvery polls a flush write nudges the commit
// point past it — to an unfrozen slot of the group, or forced through
// the freeze when every slot is frozen. The returned stop cancels the
// wait: the armed poll still fires, and does nothing.
func (c *Cluster) drain(g int, slots []int, deadline sim.Time, drained, timedOut func()) (stop func()) {
	stopped, polls := false, 0
	c.every(migratePollInterval, func() bool {
		if stopped {
			return false
		}
		if c.eng.Now() >= deadline {
			timedOut()
			return false
		}
		if sched := c.groups[g].sched; sched != nil {
			if sched.DirtyCount() > 0 {
				sched.SweepStale()
			}
			if sched.DirtyCount() == 0 || (slots != nil && sched.DirtyInSlots(slots) == 0) {
				drained()
				return false
			}
			if polls++; polls%migrateFlushEvery == 0 {
				c.flushWrite(g)
			}
		}
		return true
	})
	return func() { stopped = true }
}
