package cluster

import (
	"harmonia/internal/protocol"
	"harmonia/internal/protocol/craq"
	"harmonia/internal/store"
	"harmonia/internal/wire"
)

// baseHandle is the ReplicaHandle of the four protocols built on
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

// craqHandle adapts CRAQ's clean/dirty version chains (no store, no
// switch shim): only an object's newest COMMITTED version is visible.
type craqHandle struct{ r *craq.Replica }

func (h craqHandle) Preload(id wire.ObjectID, v []byte, _ wire.Seq) { h.r.PreloadClean(id, v, 0) }
func (craqHandle) Reserve(slot, n int)                              {} // one Go map for all slots: nothing to size
func (h craqHandle) ExtractSlot(slot int) map[wire.ObjectID]store.Object {
	out := make(map[wire.ObjectID]store.Object)
	for id, v := range h.r.ExtractSlotClean(slot) {
		out[id] = store.Object{Value: v.Value, Seq: wire.Seq{N: v.N}}
	}
	return out
}
func (h craqHandle) InstallSlot(objs map[wire.ObjectID]store.Object) {
	// Version 0 keeps the destination's in-order apply guard (lastVer)
	// untouched, mirroring the epoch-0 neutering of the store-backed
	// protocols.
	for id, o := range objs {
		h.r.PreloadClean(id, o.Value, 0)
	}
}
func (h craqHandle) DropSlot(slot int) int { return h.r.DropSlot(slot) }
func (h craqHandle) ExportClients() map[uint32]protocol.ClientRecord {
	return h.r.ClientTable().Export()
}
func (h craqHandle) MergeClients(recs map[uint32]protocol.ClientRecord) {
	h.r.ClientTable().Merge(recs)
}
func (h craqHandle) SlotCounts() []int { return h.r.SlotCounts() }
func (h craqHandle) GetObject(id wire.ObjectID) (store.Object, bool) {
	o, ok := h.ExtractSlot(wire.SlotOf(id))[id]
	return o, ok
}
func (craqHandle) ShimCounters() (served, rejected, leaseRejected uint64) { return }
