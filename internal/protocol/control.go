package protocol

import (
	"harmonia/internal/sim"
	"harmonia/internal/simnet"
)

// Control-plane messages exchanged between the cluster controller and
// replicas. These implement the §5.3 agreement machinery: the
// replication protocol periodically agrees to allow single-replica
// reads from the current switch for a time slice, and on switch
// replacement it agrees to refuse reads from smaller switch IDs before
// the new switch may issue writes.

// LeaseGrant permits fast-path reads from switch incarnation Epoch
// until Expiry (simulated time). Granting epoch E implicitly refuses
// every epoch < E.
type LeaseGrant struct {
	Epoch  uint32
	Expiry sim.Time
}

// LeaseRevoke cuts the lease of every epoch ≤ Epoch short. The replica
// acknowledges to AckTo so the controller can confirm the agreement
// before activating a replacement switch.
type LeaseRevoke struct {
	Epoch uint32
	AckTo simnet.NodeID
	ID    uint64 // correlates acks with revocations
}

// LeaseRevokeAck confirms a revocation.
type LeaseRevokeAck struct {
	Epoch   uint32
	ID      uint64
	Replica int
}

// ReReply asks a chain's tail to re-send its cached reply for a
// duplicate write that reached the head (chain replication, CRAQ): the
// head admits writes, the tail completes them and keeps the replies.
type ReReply struct {
	ClientID uint32
	ReqID    uint64
}

// CostClass marks the re-reply request as control traffic.
func (ReReply) CostClass() CostClass { return CostControl }

// HandleControl processes lease control messages and re-reply requests;
// it reports whether the message was consumed.
func (b *Base) HandleControl(msg any) bool {
	switch m := msg.(type) {
	case LeaseGrant:
		b.Lease.Grant(m.Epoch, m.Expiry)
	case LeaseRevoke:
		b.Lease.Revoke(m.Epoch)
		b.Env.Send(m.AckTo, LeaseRevokeAck{Epoch: m.Epoch, ID: m.ID, Replica: b.Group.Self})
	case ReReply:
		if cached := b.CT.Cached(m.ClientID, m.ReqID); cached != nil {
			b.resend(cached)
		}
	default:
		return false
	}
	return true
}
