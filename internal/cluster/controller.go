package cluster

import (
	"harmonia/internal/protocol"
	"harmonia/internal/sim"
	"harmonia/internal/simnet"
)

// controller is the rack's configuration service (the role Chubby or
// ZooKeeper plays in a real deployment, and the control plane of
// §5.3): it periodically grants the fast-read lease for each group's
// active switch epoch and orchestrates the agreement on switch
// replacement — every replica of a group must acknowledge revocation
// of the old epoch before the new switch may forward that group's
// writes. The agreement runs per (switch, group) pair: each replica
// group revokes, acknowledges, and resumes independently, within its
// own switch's epoch/lease domain, and the controller credits every
// revoke sent and ack received to that switch's agreement-cost
// counters in the rack — the §5.3 cost is therefore proportional to
// the replaced switch's groups, never to the whole rack.
type controller struct {
	c *Cluster

	nextRevokeID uint64
	pending      map[uint64]*revocation
}

type revocation struct {
	acked map[int]bool
	need  int
	g     int // replica group the agreement covers
	sw    int // switch domain the agreement belongs to (stats)
	done  func()
}

func newController(c *Cluster) *controller {
	return &controller{c: c, pending: make(map[uint64]*revocation)}
}

// Recv implements simnet.Handler: the controller only consumes
// revocation acknowledgments.
func (ct *controller) Recv(from simnet.NodeID, msg simnet.Message) {
	ack, ok := msg.(protocol.LeaseRevokeAck)
	if !ok {
		return
	}
	rev, ok := ct.pending[ack.ID]
	if !ok {
		return
	}
	if !rev.acked[ack.Replica] {
		rev.acked[ack.Replica] = true
		ct.c.rack.NoteAck(rev.sw)
	}
	if len(rev.acked) >= rev.need {
		delete(ct.pending, ack.ID)
		rev.done()
	}
}

// grantGroupLeases issues (and keeps renewing) the fast-read lease for
// epoch to every replica of group g. The lease names the epoch of the
// group's OWN switch; renewal stops automatically when a newer epoch
// takes over that switch's domain.
func (ct *controller) grantGroupLeases(g int, epoch uint32) {
	ct.grantLeases(g, epoch, ct.c.groups[g].leaseGen)
}

// grantLeases is the renewal chain body: each firing re-checks that
// the epoch is still that switch's current one AND that the group's
// lease generation has not moved. The generation stops a stale chain
// dead when the membership changed at the SAME epoch (respec,
// retirement) — without it, two chains would renew in parallel and the
// old one would keep granting leases to members that left the group.
func (ct *controller) grantLeases(g int, epoch uint32, gen uint64) {
	grp := ct.c.groups[g]
	if gen != grp.leaseGen || !ct.c.rack.Live(g) {
		return // membership changed: a newer chain covers the new set
	}
	if epoch != ct.c.rack.Epoch(ct.c.rack.SwitchOfGroup(g)) {
		return // superseded
	}
	expiry := ct.c.eng.Now() + sim.Time(leaseDuration)
	for _, addr := range grp.addrs() {
		ct.c.net.Send(controllerAddr, addr, protocol.LeaseGrant{Epoch: epoch, Expiry: expiry})
	}
	ct.c.eng.After(leaseDuration/2, func() { ct.grantLeases(g, epoch, gen) })
}

// revokeThen demands revocation of every lease ≤ epoch from group g's
// replicas and calls done once all live members acknowledged. Crashed
// replicas are excluded: their leases expire on their own and they
// cannot serve reads anyway — which is why a replacement's agreement
// cost is exactly the live replicas of the replaced switch's groups.
func (ct *controller) revokeThen(g int, epoch uint32, done func()) {
	ct.nextRevokeID++
	id := ct.nextRevokeID
	sw := ct.c.rack.SwitchOfGroup(g)
	addrs := ct.c.groups[g].addrs()
	live := 0
	for _, addr := range addrs {
		if !ct.c.net.IsDown(addr) {
			live++
		}
	}
	rev := &revocation{acked: make(map[int]bool), need: live, g: g, sw: sw, done: done}
	ct.pending[id] = rev
	ct.c.rack.NoteRevokes(sw, live)
	for _, addr := range addrs {
		if !ct.c.net.IsDown(addr) {
			ct.c.net.Send(controllerAddr, addr, protocol.LeaseRevoke{
				Epoch: epoch, AckTo: controllerAddr, ID: id,
			})
		}
	}
	if live == 0 {
		delete(ct.pending, id)
		done()
	}
}

// replicaDown re-evaluates every pending revocation of group g after
// replica i crashed: a dead replica can never serve fast reads, so its
// missing ack must not block the agreement. Without this, a replica
// crashing inside the revoke → ack window (one link latency wide)
// would wedge its group's switch replacement forever — the scheduler
// never installed even though the group's survivors are fine.
//
// The crash is recorded as a SYNTHETIC ack rather than a quorum
// decrement: if the replica's real ack was already in flight when it
// crashed (simnet delivers in-flight messages regardless of the
// sender's later death), a decrement PLUS the arriving ack would
// double-credit it and complete the agreement one live revocation
// short — a live replica's old-epoch lease would survive into the new
// switch's tenure. The acked-map dedup covers both orders.
func (ct *controller) replicaDown(g, i int) {
	for id, rev := range ct.pending {
		if rev.g != g || rev.acked[i] {
			continue
		}
		rev.acked[i] = true
		if len(rev.acked) >= rev.need {
			delete(ct.pending, id)
			rev.done()
		}
	}
}
