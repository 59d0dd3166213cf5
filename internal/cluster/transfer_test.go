package cluster

import (
	"fmt"
	"testing"
	"time"

	"harmonia/internal/protocol"
	"harmonia/internal/sim"
	"harmonia/internal/store"
	"harmonia/internal/wire"
	"harmonia/internal/workload"
)

// TestTransferClientTableTravels pins the lost-reply-retry regression
// the chaos matrix first exposed, over every caller of the
// state-transfer path: under a skewed workload with packet drops, a
// write the source executed whose reply was lost keeps being retried
// by its client; after the reconfiguration the retry lands on the
// destination, and without the transferred client-table records the
// destination re-executes it — which can resurrect an old value over a
// newer committed write (a decided linearizability violation), while a
// record folded into the main table instead of the exact-match overlay
// makes lagging replicas suppress writes their leader applied (stale
// fast reads of unrelated keys). NOPaxos's sync-lagged followers are
// the most sensitive detector, so it anchors the sweep. The respec and
// reassign ranges each hold seeds (101, 104; 32, 37, 39) that fail when
// ship skips MergeClients.
func TestTransferClientTableTravels(t *testing.T) {
	const keys = 96
	for _, row := range []struct {
		name             string
		seeds            [2]int64 // [from, to)
		switches, groups int
		script           func(t *testing.T, c *Cluster) []Step
	}{
		{"batch migrate", [2]int64{60, 70}, 1, 3, func(t *testing.T, c *Cluster) []Step {
			return []Step{{chaosAt, Migrate{takeSlots(t, slotsOwnedBy(c, keys, 1), 2), 0}}}
		}},
		{"remove", [2]int64{80, 86}, 1, 3, func(*testing.T, *Cluster) []Step {
			return []Step{{chaosAt, RemoveGroup{1}}}
		}},
		{"respec", [2]int64{100, 106}, 1, 3, func(*testing.T, *Cluster) []Step {
			return []Step{{chaosAt, RespecGroup{1, GroupSpec{Protocol: NOPaxos, Replicas: 5}}}}
		}},
		{"reassign", [2]int64{32, 40}, 2, 4, func(*testing.T, *Cluster) []Step {
			return []Step{{chaosAt, CrashSwitch{1}}, {chaosAt, ReassignSwitch{1}}}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			for seed := row.seeds[0]; seed < row.seeds[1]; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					chaosRow{
						cfg: Config{
							Protocol: NOPaxos, Replicas: 3, UseHarmonia: true,
							Groups: row.groups, Switches: row.switches, Seed: seed,
						},
						chaos: "drops", load: chaosLoad(8, keys, Zipf09, 2*time.Millisecond, 10*time.Millisecond),
						settle: 25 * time.Millisecond, script: row.script,
						post: func(t *testing.T, c *Cluster, p Played) {
							// A drain under drops can retry for a while.
							for i := 0; i < 12 && len(p.Reconfigs) > 0 && !p.Reconfigs[0].Done(); i++ {
								c.RunFor(50 * time.Millisecond)
							}
						},
					}.run(t)
				})
			}
		})
	}
}

// fakeReplica is a ReplicaHandle over two plain maps — the substitute
// the interface exists for. Its client table follows the production
// reference discipline: it holds one reference per kept reply, Export
// hands out one more per record, Merge takes its own.
type fakeReplica struct {
	objects  map[wire.ObjectID]store.Object
	clients  map[uint32]protocol.ClientRecord
	reserved map[int]int // room asked for, per slot
}

func newFakeReplica() *fakeReplica {
	return &fakeReplica{objects: map[wire.ObjectID]store.Object{}, clients: map[uint32]protocol.ClientRecord{}, reserved: map[int]int{}}
}

func (f *fakeReplica) seed(id wire.ObjectID, v []byte, seq wire.Seq) {
	f.objects[id] = store.Object{Value: v, Seq: seq}
}

// Store is nil: the transfer path never reaches a replica's store.
func (f *fakeReplica) Store() *store.Store { return nil }
func (f *fakeReplica) ExtractSlot(slot int) map[wire.ObjectID]store.Object {
	out := map[wire.ObjectID]store.Object{}
	for id, o := range f.objects {
		if wire.SlotOf(id) == slot {
			out[id] = o
		}
	}
	return out
}
func (f *fakeReplica) InstallSlot(objs map[wire.ObjectID]store.Object) {
	for id, o := range objs {
		f.objects[id] = o
	}
}
func (f *fakeReplica) DropSlot(int) int    { return 0 }
func (f *fakeReplica) Reserve(slot, n int) { f.reserved[slot] += n }
func (f *fakeReplica) ExportClients() map[uint32]protocol.ClientRecord {
	out := map[uint32]protocol.ClientRecord{}
	for id, rec := range f.clients {
		if rec.Reply != nil {
			rec.Reply.Retain()
		}
		out[id] = rec
	}
	return out
}
func (f *fakeReplica) MergeClients(recs map[uint32]protocol.ClientRecord) {
	for id, rec := range recs {
		if cur, ok := f.clients[id]; ok && cur.ReqID >= rec.ReqID {
			continue
		}
		if rec.Reply != nil {
			rec.Reply.Retain()
		}
		f.clients[id] = rec
	}
}
func (f *fakeReplica) SlotCounts() []int { return nil }
func (f *fakeReplica) GetObject(id wire.ObjectID) (store.Object, bool) {
	o, ok := f.objects[id]
	return o, ok
}
func (f *fakeReplica) ShimCounters() (uint64, uint64, uint64) { return 0, 0, 0 }
func (f *fakeReplica) HeldPackets() int {
	n := 0
	for _, rec := range f.clients {
		if rec.Reply != nil {
			n++
		}
	}
	return n
}

// keep stores a reply in the fake's table, which owns the reference
// the caller hands over.
func (f *fakeReplica) keep(client uint32, reqID uint64, reply *wire.Packet) {
	f.clients[client] = protocol.ClientRecord{ReqID: reqID, Reply: reply}
}

func testReply(pool *wire.Pool, reqID uint64) *wire.Packet {
	p := pool.New()
	p.Op, p.ReqID, p.Seq, p.Group = wire.OpWriteReply, reqID, wire.Seq{Epoch: 3, N: 40 + reqID}, 0
	return p
}

// twoSlotIDs returns two object IDs per slot for two distinct slots.
func twoSlotIDs() (slots [2]int, ids [2][2]wire.ObjectID) {
	bySlot := map[int][]wire.ObjectID{}
	var order []int
	for i := 0; len(order) < 2 || len(bySlot[order[0]]) < 2 || len(bySlot[order[1]]) < 2; i++ {
		id := wire.HashKey(workload.KeyName(i))
		s := wire.SlotOf(id)
		if len(bySlot[s]) == 0 {
			order = append(order, s)
		}
		bySlot[s] = append(bySlot[s], id)
	}
	for k := 0; k < 2; k++ {
		slots[k] = order[k]
		ids[k] = [2]wire.ObjectID{bySlot[order[k]][0], bySlot[order[k]][1]}
	}
	return
}

// TestTransferCollectNewestWins: across lagging replicas the newest Seq
// wins (epoch first), and what is collected carries epoch 0 with the
// source's N; a key scope carries that one object and no client
// records; per client the newest ReqID wins and a kept reply beats nil
// at equal ReqID, in either encounter order.
func TestTransferCollectNewestWins(t *testing.T) {
	slots, ids := twoSlotIDs()
	x, y, z := ids[0][0], ids[0][1], ids[1][0]
	a, b, c := newFakeReplica(), newFakeReplica(), newFakeReplica()
	a.seed(x, []byte("new"), wire.Seq{Epoch: 2, N: 10})
	b.seed(x, []byte("lag"), wire.Seq{Epoch: 2, N: 9})
	c.seed(x, []byte("old-epoch"), wire.Seq{Epoch: 1, N: 50})
	b.seed(y, []byte("only-b"), wire.Seq{Epoch: 2, N: 4})
	c.seed(z, []byte("other-slot"), wire.Seq{Epoch: 2, N: 6})

	var pool wire.Pool
	p5, p7 := testReply(&pool, 5), testReply(&pool, 7)
	a.keep(1, 5, p5)
	b.keep(1, 7, p7)
	tieAB, tieBA := testReply(&pool, 3), testReply(&pool, 3)
	a.keep(2, 3, nil) // in progress at a, completed at b
	b.keep(2, 3, tieAB)
	a.keep(3, 3, tieBA) // and the other way round
	b.keep(3, 3, nil)

	sh := new(shipment)
	sh.collect([]ReplicaHandle{a, b, c}, scope{slots: slots[:1]})
	got := sh.objects[slots[0]]
	if sh.n != 2 || len(got) != 2 {
		t.Fatalf("collected %d objects (%v), want x and y of slot %d only", sh.n, got, slots[0])
	}
	if o := got[x]; string(o.Value) != "new" || o.Seq != (wire.Seq{Epoch: 0, N: 10}) {
		t.Fatalf("x = %q %v, want the epoch-2 N=10 version neutered to 0:10", o.Value, o.Seq)
	}
	if o := got[y]; string(o.Value) != "only-b" || o.Seq != (wire.Seq{Epoch: 0, N: 4}) {
		t.Fatalf("y = %q %v", o.Value, o.Seq)
	}
	if rec := sh.clients[1]; rec.ReqID != 7 || rec.Reply != p7 {
		t.Fatalf("client 1: %+v, want ReqID 7", rec)
	}
	if sh.clients[2].Reply != tieAB || sh.clients[3].Reply != tieBA {
		t.Fatalf("tie at equal ReqID did not keep the reply: %+v %+v", sh.clients[2], sh.clients[3])
	}
	// The losers' exported references are already back; the winners'
	// are the shipment's.
	protocol.ReleaseRecords(sh.clients)
	for _, p := range []*wire.Packet{p5, p7, tieAB, tieBA} {
		p.Release() // the table's own reference — the last one
	}
	if pool.Live() != 0 {
		t.Fatalf("collect leaked %d exported references", pool.Live())
	}

	key := new(shipment)
	key.collect([]ReplicaHandle{b, c}, scope{slots: []int{wire.SlotOf(x)}, key: &x})
	if o := key.objects[wire.SlotOf(x)][x]; key.n != 1 || string(o.Value) != "lag" || o.Seq != (wire.Seq{Epoch: 0, N: 9}) {
		t.Fatalf("key scope collected %d objects, x = %q %v", key.n, o.Value, o.Seq)
	}
	if key.clients != nil {
		t.Fatal("key scope carried client records")
	}
}

// TestTransferShipDelivers: one timer at 2·linkLatency + n·per-object
// cost; each slot's objects land on every replica of the groups dests
// names for it and nowhere else, each replica having reserved room for
// them once; every reached group gets the client
// records with replies re-stamped Seq{} / Group=dst; then runs in the
// delivery event; and afterwards every reply's reference count is back
// to what the tables hold (under -race, wire additionally asserts no
// double release or use after free).
func TestTransferShipDelivers(t *testing.T) {
	slots, ids := twoSlotIDs()
	src := []*fakeReplica{newFakeReplica(), newFakeReplica()}
	dst := [][]*fakeReplica{{newFakeReplica(), newFakeReplica()}, {newFakeReplica()}}
	handles := func(fs []*fakeReplica) []ReplicaHandle {
		out := make([]ReplicaHandle, len(fs))
		for i, f := range fs {
			out[i] = f
		}
		return out
	}
	c := &Cluster{eng: sim.NewEngine(1)}
	c.groups = []*replicaGroup{{replicas: handles(src)}, {replicas: handles(dst[0])}, {replicas: handles(dst[1])}}

	for k := range slots {
		for _, id := range ids[k] {
			src[0].seed(id, []byte{byte(k)}, wire.Seq{Epoch: 4, N: uint64(id)})
		}
	}
	reply := testReply(&c.pkts, 9)
	src[0].keep(1, 9, reply)
	src[1].keep(1, 9, reply.Retain()) // both tables hold the same reply

	sh := new(shipment)
	sh.collect(handles(src), scope{slots: slots[:]})
	route := map[int][]int{slots[0]: {1}, slots[1]: {2}}
	var doneAt sim.Time
	c.ship(sh, func(slot int) []int { return route[slot] }, func() { doneAt = c.eng.Now() })

	want := sim.Time(2*5*time.Microsecond + 4*migratePerObjectCost)
	c.eng.RunFor(time.Duration(want) - 1)
	if doneAt != 0 || len(dst[0][0].objects) != 0 {
		t.Fatal("shipment delivered early")
	}
	c.eng.RunFor(time.Millisecond)
	if doneAt != want {
		t.Fatalf("then ran at %v, want %v", doneAt, want)
	}
	for g, group := range dst {
		for _, f := range group {
			if len(f.objects) != 2 || len(f.reserved) != 1 || f.reserved[slots[g]] != 2 {
				t.Fatalf("group %d replica holds %d objects and reserved %v, want its slot's 2", g+1, len(f.objects), f.reserved)
			}
			for _, id := range ids[g] {
				if o := f.objects[id]; o.Seq != (wire.Seq{Epoch: 0, N: uint64(id)}) {
					t.Fatalf("group %d: object %d seq %v", g+1, id, o.Seq)
				}
			}
			rec := f.clients[1]
			if rec.ReqID != 9 || rec.Reply == nil || rec.Reply == reply ||
				rec.Reply.Seq != (wire.Seq{}) || int(rec.Reply.Group) != g+1 {
				t.Fatalf("group %d: client record %+v (reply %v)", g+1, rec, rec.Reply)
			}
		}
	}
	if reply.Seq != (wire.Seq{Epoch: 3, N: 49}) || reply.Group != 0 {
		t.Fatalf("the source's reply was re-stamped in place: %v", reply)
	}
	// Only the tables hold references now: two on the source reply, one
	// per destination replica on its group's flight copy (shared within
	// a group).
	held := 0
	for _, f := range append(src, append(dst[0], dst[1]...)...) {
		held += f.HeldPackets()
	}
	if live := c.pkts.Live(); live != held {
		t.Fatalf("%d packet references live, the tables hold %d", live, held)
	}
	copies := []*wire.Packet{dst[0][0].clients[1].Reply, dst[1][0].clients[1].Reply}
	if dst[0][1].clients[1].Reply != copies[0] {
		t.Fatal("replicas of one group hold different flight copies")
	}
	for _, n := range []struct {
		p    *wire.Packet
		refs int
	}{{reply, 2}, {copies[0], 2}, {copies[1], 1}} {
		for i := 0; i < n.refs; i++ {
			if !n.p.Managed() {
				t.Fatalf("reply freed after %d of %d table references", i, n.refs)
			}
			n.p.Release()
		}
		if n.p.Managed() {
			t.Fatal("ship leaked a reference")
		}
	}
}
