package nopaxos

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"harmonia/internal/protocol/ptest"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// managedWrite draws the write from the packet pool, as the cluster's
// clients do, so that a log releasing a packet someone still holds
// shows: the struct is zeroed and handed to a later write.
func managedWrite(h *ptest.Harness, seq, req uint64) *wire.Packet {
	w := h.Pkts.New()
	w.Op, w.ObjID, w.Seq = wire.OpWrite, wire.ObjectID(req%64), wire.Seq{Epoch: 1, N: seq}
	w.ClientID, w.ReqID, w.Value = uint32(req%8), req, []byte(fmt.Sprint("v", req))
	return w
}

// oum delivers one sequenced write to the listed replicas the way the
// switch does: one packet, one reference per delivery.
func oum(h *ptest.Harness, w *wire.Packet, to ...int) {
	for range to[1:] {
		w.Retain()
	}
	for _, i := range to {
		h.Inject(0, simnet.NodeID(i+1), w)
	}
}

// TestLogStaysBounded: with a write entering every microsecond and a
// synchronization every 20, the log window — and the leader's rounds
// and NO-OP positions — follow the last few rounds, not the writes
// made, and once the group is idle every packet the logs held is back
// in the pool.
func TestLogStaysBounded(t *testing.T) {
	const writes, perRound = 20000, 20
	h, reps := group(t, 3, Options{SyncEvery: perRound * time.Microsecond})
	h.Delay = time.Microsecond
	var seq, req uint64
	widest := 0
	step := func() {
		seq++
		if seq%50 == 0 {
			seq++ // the switch dropped a write: the leader fills the slot with a NO-OP
		}
		req++
		oum(h, managedWrite(h, seq, req), 0, 1, 2)
		h.Run(time.Microsecond)
		h.DrainSwitch()
		for i, r := range reps {
			// A slot is trimmed once a round after the one that covered it
			// has been acknowledged and the next message said so.
			if w := r.LogWindow(); w > 4*perRound {
				t.Fatalf("write %d: replica %d holds %d log entries, %d enter per round", req, i, w, perRound)
			}
			widest = max(widest, r.LogWindow())
		}
		if n := len(reps[0].syncAcks) + len(reps[0].noopPos); n > 8 {
			t.Fatalf("write %d: the leader keeps %d rounds and %d NO-OP positions",
				req, len(reps[0].syncAcks), len(reps[0].noopPos))
		}
	}
	quiesce := func() {
		// A round's trim point is what the round before it left
		// acknowledged, and it reaches a follower with the round after:
		// three idle rounds of one write each leave every log holding
		// only those writes.
		for i := 0; i < 3; i++ {
			h.Run(3 * perRound * time.Microsecond)
			step()
		}
		h.Run(3 * perRound * time.Microsecond)
		h.DrainSwitch()
		for i, r := range reps {
			if r.SyncPoint() != seq || r.LogWindow() > 2 {
				t.Fatalf("idle after %d writes: replica %d synchronized to %d of %d and holds %d log entries",
					req, i, r.SyncPoint(), seq, r.LogWindow())
			}
		}
	}
	// Every client's reply is cached before the account is read, so the
	// tables hold as many packets then as at the end.
	for i := 0; i < 64; i++ {
		step()
	}
	quiesce()
	live := h.Pkts.Live()
	for req < writes {
		step()
	}
	quiesce()
	if now := h.Pkts.Live(); now != live {
		t.Fatalf("%d packet references live after the run, %d before", now, live)
	}
	if n := ptest.Unheld(h, reps); n != 0 {
		t.Fatalf("%d packet references live that no replica holds", n)
	}
	if reps[0].NoOps < writes/50 {
		t.Fatalf("%d NO-OPs agreed, want one per 50 writes", reps[0].NoOps)
	}
	t.Logf("widest window %d entries over %d writes, %d per round", widest, writes, perRound)
}

// TestWindowServesEveryCatchUp sweeps seeds over a run in which
// multicast deliveries are lost at the followers (and some at
// everyone), a follower is cut off and comes back far behind, and
// another crashes and is declared dead — at random times, in any
// order. Whatever a live follower then needs must be inside the window
// the leader kept: a gap request below it panics, and a packet trimmed
// too early is recycled into a later write and shows as diverging
// stores.
func TestWindowServesEveryCatchUp(t *testing.T) {
	var gapReplies, aboveBase int
	for seed := int64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			g, a := windowSweep(t, seed)
			gapReplies, aboveBase = gapReplies+g, aboveBase+a
		})
	}
	t.Logf("%d gap replies delivered, %d of them starting above op 1", gapReplies, aboveBase)
	if aboveBase < 60 {
		t.Fatalf("the sweep no longer exercises gap fills from a trimmed log: %d of %d", aboveBase, gapReplies)
	}
}

// countGaps counts the gap replies a follower receives.
type countGaps struct {
	*Replica
	replies, aboveBase *int
}

func (c countGaps) Recv(from simnet.NodeID, msg simnet.Message) {
	if m, ok := msg.(gapReply); ok {
		*c.replies++
		if m.First > 1 {
			*c.aboveBase++
		}
	}
	c.Replica.Recv(from, msg)
}

func windowSweep(t *testing.T, seed int64) (gapReplies, aboveBase int) {
	const n, steps = 5, 3000
	rng := rand.New(rand.NewSource(seed))
	h, reps := groupSeeded(t, seed, n, Options{SyncEvery: 50 * time.Microsecond})
	h.Delay = time.Microsecond
	for i := 1; i < n; i++ {
		h.Register(simnet.NodeID(i+1), countGaps{reps[i], &gapReplies, &aboveBase})
	}
	laggard := 1 + rng.Intn(n-1)
	victim := 1 + (laggard+rng.Intn(n-2))%(n-1) // another follower
	cutAt := rng.Intn(steps / 2)
	healAt := cutAt + 100 + rng.Intn(steps/4)
	crashAt := rng.Intn(steps * 3 / 4)
	dead := -1

	var seq uint64
	for step := 0; step < steps; step++ {
		switch step {
		case cutAt:
			h.Blackhole[simnet.NodeID(laggard+1)] = true
		case healAt:
			h.Blackhole[simnet.NodeID(laggard+1)] = false
			// Cut off, the laggard synchronized nothing, and nobody may
			// have trimmed past what it has executed.
			for i, r := range reps {
				if i != dead && r.log.Base() > reps[laggard].SyncPoint() {
					t.Fatalf("replica %d trimmed to op %d, the cut-off replica %d is at %d",
						i, r.log.Base(), laggard, reps[laggard].SyncPoint())
				}
			}
		}
		if step == crashAt {
			dead = victim
			h.Dead[simnet.NodeID(victim+1)] = true
			reps[0].RemoveMember(victim)
		}
		if step%2 == 0 {
			seq++
			if rng.Float64() < 0.01 {
				seq++ // lost at the switch: a NO-OP
			}
			to := []int{0}
			for i := 1; i < n; i++ {
				if rng.Float64() >= 0.02 { // else lost on the way to follower i
					to = append(to, i)
				}
			}
			oum(h, managedWrite(h, seq, seq), to...)
		}
		h.Run(time.Microsecond)
		h.DrainSwitch()
	}
	// One last write everyone receives, so that the followers notice
	// what they missed at the tail.
	seq++
	oum(h, managedWrite(h, seq, seq), 0, 1, 2, 3, 4)
	h.Run(2 * time.Millisecond)
	h.DrainSwitch()

	lead := reps[0]
	for i, r := range reps {
		if i == dead || i == 0 {
			continue
		}
		if r.SyncPoint() != lead.SyncPoint() || int(r.log.Last()) != int(lead.log.Last()) {
			t.Fatalf("replica %d synchronized to %d of %d ops, the leader to %d of %d",
				i, r.SyncPoint(), int(r.log.Last()), lead.SyncPoint(), int(lead.log.Last()))
		}
		if !reflect.DeepEqual(r.Store.Snapshot(), lead.Store.Snapshot()) {
			t.Fatalf("replica %d and the leader executed %d ops to different stores", i, r.SyncPoint())
		}
	}
	if lead.SyncPoint() != seq {
		t.Fatalf("synchronized to %d of %d ops", lead.SyncPoint(), seq)
	}
	if lead.log.Base() == 0 {
		t.Fatal("nothing was ever trimmed")
	}
	return gapReplies, aboveBase
}

// TestSteadyWriteAllocatesNothing pins what a sequenced write costs a
// three-replica group between synchronizations to zero allocations,
// the write's own packet included: it is drawn from the pool inside
// the measured region, sits in three logs, and is back in the pool two
// rounds later. A round's six sync messages are recycled records, so a
// whole round, measured at two lengths, allocates nothing either.
func TestSteadyWriteAllocatesNothing(t *testing.T) {
	h, reps := group(t, 3, Options{})
	h.Delay = time.Microsecond
	val := []byte("12345678")
	var seq uint64
	round := func(writes int) func() {
		return func() {
			for i := 0; i < writes; i++ {
				seq++
				w := h.Pkts.New()
				w.Op, w.ObjID, w.Seq = wire.OpWrite, wire.ObjectID(seq%16), wire.Seq{Epoch: 1, N: seq}
				w.ClientID, w.ReqID, w.Value = 1, seq, val
				oum(h, w, 0, 1, 2)
				h.Run(time.Microsecond)
			}
			reps[0].ForceSync()
			h.Run(10 * time.Microsecond)
			h.DrainSwitch()
		}
	}
	for i := 0; i < 16; i++ {
		round(64)()
	}
	short, long := testing.AllocsPerRun(200, round(16)), testing.AllocsPerRun(200, round(64))
	if short != 0 || long != 0 {
		t.Fatalf("a round of 16 writes allocates %v times, one of 64 writes %v", short, long)
	}
	for i, r := range reps {
		if r.SyncPoint() != seq {
			t.Fatalf("replica %d synchronized to %d of %d", i, r.SyncPoint(), seq)
		}
	}
}

// TestOvertakenSyncRoundsAreDropped: a round that never gathered its
// quorum is closed by the first later round that does.
func TestOvertakenSyncRoundsAreDropped(t *testing.T) {
	h, reps := group(t, 3, Options{})
	h.Blackhole[2], h.Blackhole[3] = true, true
	for n := uint64(1); n <= 2; n++ {
		h.Inject(0, 1, write(7, n, 1, n, "v"))
		reps[0].ForceSync() // nobody hears it
	}
	if len(reps[0].syncAcks) != 2 {
		t.Fatalf("%d rounds open, want 2", len(reps[0].syncAcks))
	}
	h.Blackhole[2], h.Blackhole[3] = false, false
	multicast(h, 3, write(7, 3, 1, 3, "v")) // the followers fetch what they missed
	reps[0].ForceSync()
	if reps[0].SyncPoint() != 3 || len(reps[0].syncAcks) != 0 {
		t.Fatalf("synchronized to %d with %d rounds still open", reps[0].SyncPoint(), len(reps[0].syncAcks))
	}
}

// TestOvertakenGapRequestServedFromWindow: a gap request can arrive
// after its sender got the slots by other means and acknowledged a sync
// point past them, which the leader has trimmed to since. It is
// answered with what is left of the range (the sender skips what it
// has); only a replica declared dead can need what is gone, and that
// names the missing rejoin.
func TestOvertakenGapRequestServedFromWindow(t *testing.T) {
	h, reps := group(t, 3, Options{})
	for round := uint64(0); round < 2; round++ {
		for n := 3*round + 1; n <= 3*round+3; n++ {
			oum(h, managedWrite(h, n, n), 0, 1, 2)
		}
		reps[0].ForceSync()
	}
	h.DrainSwitch()
	if reps[0].log.Base() != 3 {
		t.Fatalf("leader trimmed to %d, the followers last acknowledged 3", reps[0].log.Base())
	}
	h.Inject(2, 1, gapRequest{From: 2, To: 5, Replica: 1}) // sent when replica 1 ended at op 1
	if int(reps[1].log.Last()) != 6 || reps[1].SyncPoint() != 6 {
		t.Fatalf("replica 1 at op %d, synchronized to %d, after a stale reply", int(reps[1].log.Last()), reps[1].SyncPoint())
	}
	reps[0].RemoveMember(2)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "rejoin") {
			t.Fatalf("a dead replica asking below the window: panic %q does not name replica rejoin", msg)
		}
	}()
	h.Inject(3, 1, gapRequest{From: 2, To: 5, Replica: 2})
}
