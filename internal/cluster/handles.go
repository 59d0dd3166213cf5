package cluster

import (
	"harmonia/internal/protocol"
	"harmonia/internal/simnet"
	"harmonia/internal/store"
	"harmonia/internal/wire"
)

// baseHandle is the ReplicaHandle of every protocol: each is built on
// protocol.Base — a store plus a client table.
type baseHandle struct {
	*protocol.Base
	node replicaNode
}

// replicaNode is what every protocol's replica is to the cluster.
type replicaNode interface {
	simnet.Handler
	HeldPackets() int
	// RemoveMember takes crashed member i out of the protocol's
	// membership at a survivor (§5.3 server failures).
	RemoveMember(i int)
}

func (h baseHandle) HeldPackets() int    { return h.node.HeldPackets() }
func (h baseHandle) Store() *store.Store { return h.Base.Store }
func (h baseHandle) ExtractSlot(slot int) map[wire.ObjectID]store.Object {
	return h.Base.Store.ExtractSlot(slot)
}
func (h baseHandle) InstallSlot(objs map[wire.ObjectID]store.Object)    { h.Base.Store.InstallSlot(objs) }
func (h baseHandle) DropSlot(slot int) int                              { return h.Base.Store.DropSlot(slot) }
func (h baseHandle) Reserve(slot, n int)                                { h.Base.Store.Reserve(slot, n) }
func (h baseHandle) ExportClients() map[uint32]protocol.ClientRecord    { return h.CT.Export() }
func (h baseHandle) MergeClients(recs map[uint32]protocol.ClientRecord) { h.CT.Merge(recs) }
func (h baseHandle) SlotCounts() []int                                  { return h.Base.Store.SlotCounts() }
func (h baseHandle) GetObject(id wire.ObjectID) (store.Object, bool)    { return h.Base.Store.Get(id) }
func (h baseHandle) ShimCounters() (served, rejected, leaseRejected uint64) {
	return h.FastServed, h.FastRejected, h.LeaseRejected
}
