package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// refEvent / refHeap are the reference scheduler: a container/heap
// ordered by (time, insertion sequence). The differential tests drive
// the lane queue and this reference side by side through randomized
// schedule/cancel/advance sequences and demand the exact same fire
// order, tie-breaks included.
type refEvent struct {
	at    Time
	seq   uint64
	fn    func()
	dead  bool
	fired bool
}

// stop is the reference's Timer.Stop: true exactly when the event was
// still going to fire.
func (ev *refEvent) stop() bool {
	if ev.dead || ev.fired {
		return false
	}
	ev.dead = true
	return true
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// refEngine is the reference scheduler: same clamp-to-now and
// run-until semantics as Engine, O(log n) and allocating, cancelled
// events left in the heap until they surface — simple enough to be
// obviously correct.
type refEngine struct {
	now    Time
	nextID uint64
	pq     refHeap
}

func (r *refEngine) schedule(t Time, fn func()) *refEvent {
	if t < r.now {
		t = r.now
	}
	ev := &refEvent{at: t, seq: r.nextID, fn: fn}
	r.nextID++
	heap.Push(&r.pq, ev)
	return ev
}

// next pops the earliest live event with deadline <= until, or nil.
func (r *refEngine) next(until Time) *refEvent {
	for r.pq.Len() > 0 {
		ev := r.pq[0]
		if ev.dead {
			heap.Pop(&r.pq)
			continue
		}
		if ev.at > until {
			return nil
		}
		heap.Pop(&r.pq)
		return ev
	}
	return nil
}

func (r *refEngine) fire(ev *refEvent) {
	r.now = ev.at
	ev.fired = true
	ev.fn()
}

// drain is Engine.Drain: at most max events (0: all), and whether
// nothing live is left.
func (r *refEngine) drain(max uint64) bool {
	for n := uint64(0); max == 0 || n < max; n++ {
		ev := r.next(maxTime)
		if ev == nil {
			return true
		}
		r.fire(ev)
	}
	for _, ev := range r.pq {
		if !ev.dead {
			return false
		}
	}
	return true
}

func (r *refEngine) run(until Time) {
	for ev := r.next(until); ev != nil; ev = r.next(until) {
		r.fire(ev)
	}
	if r.now < until {
		r.now = until
	}
}

// queueEmpty reports whether no lane holds an event: with Stop
// unlinking on the spot, an engine with nothing pending holds nothing.
// (A lane that Stop emptied stays in the heap, holding nothing, until
// it reaches the top.)
func queueEmpty(e *Engine) bool {
	for i := range e.table {
		if l := &e.table[i]; l.head != nil || l.tail != nil {
			return false
		}
	}
	for _, l := range e.heap {
		if l.head != nil || l.tail != nil {
			return false
		}
	}
	return true
}

// rackDelays are the delays a rack schedules most: a control message
// (2 µs), a link (5 µs), a read's and a write's service (8.695 and
// 10 µs), a client's retry timer (2 ms) and VR's view-change timeout
// (25 ms).
var rackDelays = []Time{2_000, 5_000, 8_695, 10_000, 2_000_000, 25_000_000}

// TestLanesMatchHeapDifferential drives randomized workloads through
// the lane queue and the reference heap and requires the two fire
// orders to be identical element by element. Schedules mix recurring
// delays (the rack's, so lanes hold many events) with more distinct
// delays than the delay table has lanes (so spare lanes carry them),
// exact ties, times in the past that clamp to now, and far-future
// timeouts. The clock advances by partial Run(until) windows, single
// Steps and Drains with a limit, whose verdicts must agree with the
// reference's. Stops come from every place a caller can issue one:
// between runs on random handles (pending, fired and already stopped
// alike), from inside the event's own callback, and from inside another
// event's callback; each verdict must match the reference's. The lane
// side is also inspected from the inside: stops must have hit a lane's
// head, middle and tail, the heap must have held more lanes than the
// table has, and a drained engine must be empty.
// Runs under -race in CI via the ordinary test shards.
func TestLanesMatchHeapDifferential(t *testing.T) {
	var heads, middles, tails, selfStops, crossStops, steps, drains, widest int
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine(1)
		ref := &refEngine{}

		type stopRec struct {
			by, victim int
			stopped    bool
		}
		var gotOrder, wantOrder []int
		var gotStops, wantStops []stopRec
		type pending struct {
			tm Timer
			re *refEvent
		}
		var all []pending // by id
		var open []int    // ids a between-runs Stop may pick

		for round := 0; round < 60; round++ {
			n := 1 + rng.Intn(24)
			for i := 0; i < n; i++ {
				var at Time
				switch rng.Intn(8) {
				case 0, 1, 2: // a recurring delay
					at = eng.Now() + rackDelays[rng.Intn(len(rackDelays))]
				case 3: // exact tie cluster
					at = eng.Now() + Time(rng.Intn(3))
				case 4: // past: clamps to now on both sides
					at = eng.Now() - Time(rng.Intn(50))
				case 5: // one of many distinct delays
					at = eng.Now() + Time(rng.Intn(1<<20))
				case 6: // a far timeout, off the rack's delays
					at = eng.Now() + Time(25_000_000+rng.Intn(1<<12))
				default:
					at = eng.Now() + Time(rng.Intn(500))
				}
				id := len(all)
				// What the callback does besides recording itself is
				// fixed here, so both sides do the same thing.
				self := rng.Intn(8) == 0
				victim := -1
				if id > 0 && rng.Intn(4) == 0 {
					victim = rng.Intn(id)
				}
				all = append(all, pending{})
				all[id].tm = eng.At(at, func() {
					gotOrder = append(gotOrder, id)
					if self {
						selfStops++
						if all[id].tm.Stop() {
							t.Errorf("seed %d: Stop from inside event %d's own callback returned true", seed, id)
						}
					}
					if victim >= 0 {
						gotStops = append(gotStops, stopRec{id, victim, all[victim].tm.Stop()})
					}
				})
				all[id].re = ref.schedule(at, func() {
					wantOrder = append(wantOrder, id)
					if victim >= 0 {
						wantStops = append(wantStops, stopRec{id, victim, all[victim].re.stop()})
					}
				})
				open = append(open, id)
			}
			widest = max(widest, len(eng.heap))
			// Stop a few random handles between runs — pending, fired
			// or already stopped. Stop's verdict must agree with the
			// reference's.
			for i := 0; i < rng.Intn(8) && len(open) > 0; i++ {
				k := rng.Intn(len(open))
				p := all[open[k]]
				ev := p.tm.e
				queued := ev.seq == p.tm.seq
				if queued {
					switch l := ev.lane; {
					case l.head == ev:
						heads++
					case l.tail == ev:
						tails++
					default:
						middles++
					}
				}
				stopped := p.tm.Stop()
				if want := p.re.stop(); stopped != want || stopped != queued {
					t.Fatalf("seed %d: lane Stop=%v, reference=%v, handle current=%v",
						seed, stopped, want, queued)
				}
				if p.tm.Stop() {
					t.Fatalf("seed %d: second Stop returned true", seed)
				}
				open[k] = open[len(open)-1]
				open = open[:len(open)-1]
			}
			// Advance: one Step, a Drain with a limit, or a partial
			// window — sometimes zero-width, sometimes past the far
			// timeouts.
			switch r := rng.Intn(10); {
			case r == 0:
				steps++
				want := ref.next(maxTime)
				if want != nil {
					ref.fire(want)
				}
				if got := eng.Step(); got != (want != nil) {
					t.Fatalf("seed %d round %d: Step=%v, reference fired %v", seed, round, got, want != nil)
				}
			case r == 1:
				drains++
				limit := uint64(1 + rng.Intn(20))
				if got, want := eng.Drain(limit), ref.drain(limit); got != want {
					t.Fatalf("seed %d round %d: Drain(%d)=%v, reference %v", seed, round, limit, got, want)
				}
			default:
				until := eng.Now() + Time(rng.Intn(1<<14))
				if round%8 == 7 {
					until = eng.Now() + Time(rng.Intn(1<<25))
				}
				eng.Run(until)
				ref.run(until)
			}
			if eng.Now() != ref.now {
				t.Fatalf("seed %d round %d: clock diverged lanes=%d ref=%d",
					seed, round, eng.Now(), ref.now)
			}
		}
		// Drain both completely.
		if !eng.Drain(0) || !ref.drain(0) {
			t.Fatalf("seed %d: an unlimited Drain left events behind", seed)
		}
		crossStops += len(gotStops)

		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("seed %d: lanes fired %d events, reference fired %d",
				seed, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("seed %d: fire order diverges at %d: lanes=%d ref=%d",
					seed, i, gotOrder[i], wantOrder[i])
			}
		}
		if len(gotStops) != len(wantStops) {
			t.Fatalf("seed %d: %d in-callback stops on the lanes, %d on the reference",
				seed, len(gotStops), len(wantStops))
		}
		for i := range gotStops {
			if gotStops[i] != wantStops[i] {
				t.Fatalf("seed %d: in-callback stop %d: lanes %+v, reference %+v",
					seed, i, gotStops[i], wantStops[i])
			}
		}
		if eng.Pending() != 0 || !queueEmpty(eng) || len(eng.heap) != 0 {
			t.Fatalf("seed %d: drained engine still holds events (Pending=%d, %d lanes queued)",
				seed, eng.Pending(), len(eng.heap))
		}
	}
	t.Logf("stops of %d heads, %d middles, %d tails, %d self, %d from another callback; %d Steps, %d Drains; up to %d lanes queued",
		heads, middles, tails, selfStops, crossStops, steps, drains, widest)
	if heads == 0 || middles == 0 || tails == 0 || selfStops == 0 || crossStops == 0 || steps == 0 || drains == 0 {
		t.Fatalf("coverage: stops of %d heads, %d middles, %d tails, %d self, %d from another callback; %d Steps, %d Drains — want all > 0",
			heads, middles, tails, selfStops, crossStops, steps, drains)
	}
	if widest <= laneSlots {
		t.Fatalf("coverage: at most %d lanes queued at once, want more than the table's %d", widest, laneSlots)
	}
}

// TestLanesNestedSchedulingDifferential covers self-scheduling:
// callbacks that schedule more work at the current instant and at
// short offsets, where tie-break stability is the reference heap's
// sequence order. Both sides draw nested offsets from identical
// deterministic RNG streams, so the schedules correspond 1:1.
func TestLanesNestedSchedulingDifferential(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		eng := NewEngine(1)
		ref := &refEngine{}
		var gotOrder, wantOrder []int
		rngW := rand.New(rand.NewSource(seed*7 + 1))
		rngR := rand.New(rand.NewSource(seed*7 + 1))
		nextW, nextR := 0, 0

		var spawnW func(depth int) func()
		spawnW = func(depth int) func() {
			return func() {
				id := nextW
				nextW++
				gotOrder = append(gotOrder, id)
				if depth < 6 {
					for i, k := 0, rngW.Intn(3); i < k; i++ {
						eng.After(Duration(rngW.Intn(64)), spawnW(depth+1))
					}
				}
			}
		}
		var spawnR func(depth int) func()
		spawnR = func(depth int) func() {
			return func() {
				id := nextR
				nextR++
				wantOrder = append(wantOrder, id)
				if depth < 6 {
					for i, k := 0, rngR.Intn(3); i < k; i++ {
						ref.schedule(ref.now+Time(rngR.Intn(64)), spawnR(depth+1))
					}
				}
			}
		}

		for i := 0; i < 16; i++ {
			at := Time(i * 97)
			eng.At(at, spawnW(0))
			ref.schedule(at, spawnR(0))
		}
		eng.Run(1 << 20)
		ref.run(1 << 20)

		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("seed %d: lanes fired %d events, reference fired %d",
				seed, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("seed %d: nested fire order diverges at index %d", seed, i)
			}
		}
	}
}

// TestTimerStopIdempotent pins the Timer contract on the lanes: the
// zero Timer is inert, Stop before firing reports true exactly once,
// Stop after firing reports false (including from inside the firing
// callback), and a handle whose event slot was recycled for a new
// event never cancels the newcomer.
func TestTimerStopIdempotent(t *testing.T) {
	var zero Timer
	for i := 0; i < 3; i++ {
		if zero.Stop() {
			t.Fatal("zero Timer Stop returned true")
		}
	}

	e := NewEngine(1)
	tm := e.After(10, func() {})
	if !tm.Stop() {
		t.Fatal("first Stop returned false")
	}
	for i := 0; i < 3; i++ {
		if tm.Stop() {
			t.Fatal("repeated Stop returned true")
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after Stop = %d, want 0", e.Pending())
	}

	// Stop from inside the firing callback must report false: by the
	// time the callback runs, the event has fired.
	var inside, after Timer
	var insideVerdict bool
	inside = e.After(5, func() { insideVerdict = inside.Stop() })
	e.Run(100)
	if insideVerdict {
		t.Fatal("Stop from inside own callback returned true")
	}
	if inside.Stop() {
		t.Fatal("Stop after fire returned true")
	}

	// Recycling: the fired event's record is reused for a new event with
	// a new sequence number; the stale handle must not cancel it.
	fired := false
	after = e.After(5, func() { fired = true })
	if inside.Stop() {
		t.Fatal("stale handle cancelled a recycled event")
	}
	e.Run(200)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	if after.Stop() {
		t.Fatal("Stop after fire returned true for recycled event")
	}
}

// TestPendingCountsLiveEvents pins Pending's O(1) live counter against
// fires and cancellations.
func TestPendingCountsLiveEvents(t *testing.T) {
	e := NewEngine(1)
	tms := make([]Timer, 10)
	for i := range tms {
		tms[i] = e.After(Duration(10+i), func() {})
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", e.Pending())
	}
	tms[3].Stop()
	tms[7].Stop()
	if e.Pending() != 8 {
		t.Fatalf("Pending after 2 stops = %d, want 8", e.Pending())
	}
	e.Run(14) // fires events at 10..14 except the stopped one at 13
	if e.Pending() != 4 {
		t.Fatalf("Pending after partial run = %d, want 4", e.Pending())
	}
	e.Run(1000)
	if e.Pending() != 0 {
		t.Fatalf("Pending after drain = %d, want 0", e.Pending())
	}
}

// TestStopRecyclesAtOnce pins what Stop promises about memory: a timer
// re-armed on every message — VR's 25 ms view-change timeout, stopped
// and armed again a million times while the clock barely moves — keeps
// a constant number of event records however long the timeout is,
// allocates nothing, and leaves an empty queue behind.
func TestStopRecyclesAtOnce(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz > 80 {
		t.Fatalf("event is %d bytes, above the 80-byte size class", sz)
	}
	e := NewEngine(1)
	noop := func(any) {}
	tm := e.AfterCallT(25*time.Millisecond, noop, nil)
	for i := 0; i < 1_000_000; i++ {
		if !tm.Stop() {
			t.Fatalf("iteration %d: Stop of a pending timer returned false", i)
		}
		tm = e.AfterCallT(25*time.Millisecond, noop, nil)
		if i%1024 == 0 {
			e.RunFor(time.Microsecond) // the clock moves a little, as under load
		}
	}
	if got := len(e.free.free) + e.Pending(); got > 2 {
		t.Fatalf("engine holds %d event records after 1M stop/re-arm rounds, want at most 2", got)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		tm.Stop()
		tm = e.AfterCallT(25*time.Millisecond, noop, nil)
	}); allocs != 0 {
		t.Fatalf("stop + re-arm allocates %.1f times per round, want 0", allocs)
	}
	tm.Stop()
	if e.Pending() != 0 || !queueEmpty(e) {
		t.Fatalf("queue not empty after the last Stop (Pending=%d)", e.Pending())
	}
	// Stop drops the argument at once: nothing a stopped event carried
	// stays reachable from the engine.
	for _, ev := range e.free.free {
		if ev.cb != nil || ev.msg != nil || ev.next != nil || ev.prev != nil {
			t.Fatalf("recycled event still holds references: %+v", ev)
		}
	}
}
