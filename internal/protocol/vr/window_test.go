package vr

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
func managedWrite(h *ptest.Harness, n uint64) *wire.Packet {
	w := h.Pkts.New()
	w.Op, w.ObjID, w.Seq = wire.OpWrite, wire.ObjectID(n%64), wire.Seq{Epoch: 1, N: n}
	w.ClientID, w.ReqID, w.Value = uint32(n%8), n, []byte(fmt.Sprint("v", n))
	return w
}

// drainSwitch releases what the group sent to the switch and counts
// the completions.
func drainSwitch(h *ptest.Harness) (completions int) {
	_, completions = h.DrainSwitch()
	return completions
}

// TestLogStaysBounded: with a write entering every microsecond the log
// window follows the writes in flight, not the writes made, and once
// the group is idle every packet the logs held is back in the pool.
func TestLogStaysBounded(t *testing.T) {
	const writes, slack = 20000, 4
	h, reps := group(t, 5, Options{HeartbeatEvery: 50 * time.Microsecond})
	h.Delay = time.Microsecond
	var next uint64
	var completed, widest int
	step := func() {
		next++
		h.Inject(100, 1, managedWrite(h, next))
		h.Run(time.Microsecond)
		completed += drainSwitch(h)
		inFlight := int(next) - completed
		for i, r := range reps {
			if w := r.LogWindow(); w > inFlight+slack {
				t.Fatalf("write %d: replica %d holds %d log entries with %d writes in flight", next, i, w, inFlight)
			}
			widest = max(widest, r.LogWindow())
		}
	}
	quiesce := func() {
		h.Run(200 * time.Microsecond) // a heartbeat carries the last trim point
		completed += drainSwitch(h)
		for i, r := range reps {
			if r.CommitNum() != next || r.LogWindow() != 0 {
				t.Fatalf("idle after %d writes: replica %d executed %d and holds %d log entries",
					next, i, r.CommitNum(), r.LogWindow())
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
	for next < writes {
		step()
	}
	quiesce()
	if completed != writes {
		t.Fatalf("%d completions for %d writes", completed, writes)
	}
	if now := h.Pkts.Live(); now != live {
		t.Fatalf("%d packet references live after the run, %d before", now, live)
	}
	if n := ptest.Unheld(h, reps); n != 0 {
		t.Fatalf("%d packet references live that no replica holds", n)
	}
	t.Logf("widest window %d entries over %d writes", widest, writes)
}

// lossy drops a share of the prepares on their way to a backup, and
// counts the catch-up messages that arrive.
type lossy struct {
	*Replica
	rng      *rand.Rand
	prob     float64
	catchUps *catchUps
}

type catchUps struct{ newStates, startViews, aboveBase int }

func (l lossy) Recv(from simnet.NodeID, msg simnet.Message) {
	switch m := msg.(type) {
	case *prepare:
		if l.rng.Float64() < l.prob {
			return
		}
	case newState:
		l.catchUps.newStates++
		if m.FirstOp > 1 {
			l.catchUps.aboveBase++
		}
	case startView:
		l.catchUps.startViews++
		if m.FirstOp > 1 {
			l.catchUps.aboveBase++
		}
	}
	l.Replica.Recv(from, msg)
}

// TestWindowServesEveryCatchUp sweeps seeds over a run in which
// prepares are lost, a backup is cut off and comes back far behind, and
// the leader crashes and is declared dead — at random times, in any
// order. Whatever a live replica then needs (missed entries by state
// transfer, the new view's log by START-VIEW) must be inside the
// window the others kept: a request below it panics, and a packet
// trimmed too early is recycled into a later write and shows as
// diverging stores.
func TestWindowServesEveryCatchUp(t *testing.T) {
	var seen catchUps
	for seed := int64(1); seed <= 60; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { windowSweep(t, seed, &seen) })
	}
	t.Logf("%d state transfers and %d START-VIEWs delivered, %d of them starting above op 1",
		seen.newStates, seen.startViews, seen.aboveBase)
	if seen.newStates < 60 || seen.startViews < 60 || seen.aboveBase < 60 {
		t.Fatalf("the sweep no longer exercises catch-up from a trimmed log: %+v", seen)
	}
}

func windowSweep(t *testing.T, seed int64, seen *catchUps) {
	const n, steps = 5, 3000
	rng := rand.New(rand.NewSource(seed))
	h, reps := groupSeeded(t, seed, n, Options{HeartbeatEvery: 100 * time.Microsecond, ViewChangeTimeout: time.Millisecond})
	h.Delay = time.Microsecond
	for i := 1; i < n; i++ {
		h.Register(simnet.NodeID(i+1), lossy{reps[i], rng, 0.02, seen})
	}
	laggard := 1 + rng.Intn(n-1)
	cutAt := rng.Intn(steps / 2)
	healAt := cutAt + 100 + rng.Intn(steps/4)
	crashAt := rng.Intn(steps * 3 / 4)
	dead := -1

	var next uint64
	for step := 0; step < steps; step++ {
		switch step {
		case cutAt:
			h.Blackhole[simnet.NodeID(laggard+1)] = true
		case healAt:
			h.Blackhole[simnet.NodeID(laggard+1)] = false
			// Cut off, the laggard executed nothing, and nobody may have
			// trimmed past what it has executed.
			for i, r := range reps {
				if i != dead && r.log.Base() > reps[laggard].CommitNum() {
					t.Fatalf("replica %d trimmed to op %d, the cut-off replica %d is at %d",
						i, r.log.Base(), laggard, reps[laggard].CommitNum())
				}
			}
		}
		if step == crashAt {
			dead = 0
			h.Dead[1] = true
			for i := 1; i < n; i++ {
				reps[i].RemoveMember(0)
			}
		}
		// The switch sends to the leader it knows: the live replica in
		// normal status in the newest view.
		var leader *Replica
		for i, r := range reps {
			if i != dead && r.IsLeader() && r.status == statusNormal && (leader == nil || r.view > leader.view) {
				leader = r
			}
		}
		if leader != nil && step%2 == 0 {
			next++
			h.Inject(100, leader.Group.Addr(leader.Group.Self), managedWrite(h, next))
		}
		h.Run(time.Microsecond)
		drainSwitch(h)
	}
	h.Run(20 * time.Millisecond)
	drainSwitch(h)

	var ref *Replica
	for i, r := range reps {
		if i == dead {
			continue
		}
		if ref == nil {
			ref = r
			continue
		}
		if r.CommitNum() != ref.CommitNum() || r.opNum() != ref.opNum() || r.view != ref.view {
			t.Fatalf("replica %d at view %d op %d commit %d, replica %d at view %d op %d commit %d",
				i, r.view, r.opNum(), r.CommitNum(), ref.Group.Self, ref.view, ref.opNum(), ref.CommitNum())
		}
		if !reflect.DeepEqual(r.Store.Snapshot(), ref.Store.Snapshot()) {
			t.Fatalf("replica %d and replica %d executed %d ops to different stores", i, ref.Group.Self, r.CommitNum())
		}
	}
	if ref.CommitNum() < next/2 {
		t.Fatalf("%d of %d writes committed", ref.CommitNum(), next)
	}
	// The catch-ups above were served from windows, not whole logs.
	if ref.log.Base() == 0 {
		t.Fatal("nothing was ever trimmed")
	}
}

// TestViewChangeBookkeepingStaysBounded: votes and DO-VIEW-CHANGE
// messages are for one view change; a replica that has entered the view
// keeps none of them, nor the log copies the messages carried.
func TestViewChangeBookkeepingStaysBounded(t *testing.T) {
	h, reps := group(t, 3, quiet())
	var next uint64
	change := func() {
		view := reps[0].View() + 1
		reps[(view+1)%3].startViewChange(view) // a backup of the new view's leader gives up on the old one
		for i, r := range reps {
			if r.View() != view || r.status != statusNormal {
				t.Fatalf("replica %d at view %d status %d after forcing view %d", i, r.View(), r.status, view)
			}
		}
		next++
		h.Inject(100, reps[0].leaderAddr(), managedWrite(h, next))
		drainSwitch(h)
	}
	// Every client's reply is cached, and every replica has led once,
	// before the account is read: at the end the group holds as much.
	for i := 0; i < 9; i++ {
		change()
	}
	live := h.Pkts.Live()
	for i := 0; i < 50; i++ {
		change()
	}
	for i, r := range reps {
		if r.CommitNum() != next {
			t.Fatalf("replica %d executed %d of %d writes", i, r.CommitNum(), next)
		}
		if len(r.svcVotes) > 1 || len(r.dvcMsgs) > 1 {
			t.Fatalf("replica %d keeps votes for %d views and DO-VIEW-CHANGEs for %d after %d view changes",
				i, len(r.svcVotes), len(r.dvcMsgs), r.View())
		}
	}
	if now := h.Pkts.Live(); now != live {
		t.Fatalf("%d packet references live after 50 more view changes, %d before", now, live)
	}
}

// TestOvertakenGetStateServedFromWindow: a GET-STATE can arrive after
// its sender caught up by other means and acknowledged the ops it asks
// for, which the leader has trimmed since. It is answered from the
// window's start (the sender drops a reply that does not continue its
// log); only a replica declared dead can need what is gone, and that
// names the missing rejoin.
func TestOvertakenGetStateServedFromWindow(t *testing.T) {
	h, reps := group(t, 3, quiet())
	for n := uint64(1); n <= 5; n++ {
		h.Inject(100, 1, managedWrite(h, n))
	}
	drainSwitch(h)
	if reps[0].log.Base() != 5 {
		t.Fatalf("leader trimmed to %d of 5 executed ops", reps[0].log.Base())
	}
	h.Inject(2, 1, getState{View: 0, OpNum: 2, Replica: 1}) // sent when replica 1 was at op 2
	if reps[1].opNum() != 5 || reps[1].CommitNum() != 5 {
		t.Fatalf("replica 1 at op %d commit %d after a stale reply", reps[1].opNum(), reps[1].CommitNum())
	}
	reps[0].RemoveMember(2)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "rejoin") {
			t.Fatalf("a dead replica asking below the window: panic %q does not name replica rejoin", msg)
		}
	}()
	h.Inject(3, 1, getState{View: 0, OpNum: 2, Replica: 2})
}
