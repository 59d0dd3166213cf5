package cluster

import (
	"harmonia/internal/protocol"
	"harmonia/internal/store"
	"harmonia/internal/wire"
)

// baseHandle is the ReplicaHandle of every protocol: each is built on
// protocol.Base — a store plus a client table.
type baseHandle struct{ *protocol.Base }

func (h baseHandle) Preload(id wire.ObjectID, v []byte, seq wire.Seq) { h.Store.Seed(id, v, seq) }
func (h baseHandle) Reserve(slot, n int)                              { h.Store.Reserve(slot, n) }
func (h baseHandle) ExtractSlot(slot int) map[wire.ObjectID]store.Object {
	return h.Store.ExtractSlot(slot)
}
func (h baseHandle) InstallSlot(objs map[wire.ObjectID]store.Object)    { h.Store.InstallSlot(objs) }
func (h baseHandle) DropSlot(slot int) int                              { return h.Store.DropSlot(slot) }
func (h baseHandle) ExportClients() map[uint32]protocol.ClientRecord    { return h.CT.Export() }
func (h baseHandle) MergeClients(recs map[uint32]protocol.ClientRecord) { h.CT.Merge(recs) }
func (h baseHandle) SlotCounts() []int                                  { return h.Store.SlotCounts() }
func (h baseHandle) GetObject(id wire.ObjectID) (store.Object, bool)    { return h.Store.Get(id) }
func (h baseHandle) ShimCounters() (served, rejected, leaseRejected uint64) {
	return h.FastServed, h.FastRejected, h.LeaseRejected
}
