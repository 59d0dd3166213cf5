package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// refEvent / refHeap reimplement the engine's former container/heap
// scheduler: ordered by (time, insertion sequence). The differential
// tests drive the timing wheel and this reference side by side through
// randomized schedule/cancel/advance sequences and demand the exact
// same fire order, tie-breaks included.
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

func (r *refEngine) run(until Time) {
	for r.pq.Len() > 0 {
		ev := r.pq[0]
		if ev.dead {
			heap.Pop(&r.pq)
			continue
		}
		if ev.at > until {
			break
		}
		heap.Pop(&r.pq)
		r.now = ev.at
		ev.fired = true
		ev.fn()
	}
	if r.now < until {
		r.now = until
	}
}

// wheelEmpty reports whether no slot list and no occupancy bit is left
// behind: with Stop unlinking on the spot, an engine with nothing
// pending holds nothing.
func wheelEmpty(e *Engine) bool {
	for lvl := range e.wheel {
		for _, w := range e.occ[lvl] {
			if w != 0 {
				return false
			}
		}
		for s := range e.wheel[lvl] {
			if sl := &e.wheel[lvl][s]; sl.head != nil || sl.tail != nil {
				return false
			}
		}
	}
	return true
}

// TestWheelMatchesHeapDifferential drives randomized workloads —
// schedules at clustered and scattered times (exact ties, past times
// that clamp to now, byte-boundary neighborhoods, multi-level far
// offsets) and partial Run(until) windows — through the timing wheel
// and the reference heap and requires the two fire orders to be
// identical element by element. Stops come from every place a caller
// can issue one: between runs on random handles (pending, fired and
// already stopped alike), from inside the event's own callback, and
// from inside another event's callback; each verdict must match the
// reference's. The wheel side is also inspected from the inside: stops
// must have hit events at level >= 2 and events alone in their slot,
// and a drained engine must be empty.
// Runs under -race in CI via the ordinary test shards.
func TestWheelMatchesHeapDifferential(t *testing.T) {
	var deepStops, loneStops, selfStops, crossStops int
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

		for round := 0; round < 40; round++ {
			// A burst of schedules: clustered times force ties and deep
			// slots; large offsets exercise the high wheel levels.
			n := 1 + rng.Intn(12)
			for i := 0; i < n; i++ {
				var at Time
				switch rng.Intn(6) {
				case 0: // exact tie cluster
					at = eng.Now() + Time(rng.Intn(3))
				case 1: // past: clamps to now on both sides
					at = eng.Now() - Time(rng.Intn(50))
				case 2: // far future, levels 1-2
					at = eng.Now() + Time(rng.Intn(1<<20))
				case 3: // byte-boundary neighborhood
					at = (eng.Now() | 0xff) + Time(rng.Intn(4))
				case 4: // a view-change style timeout: level 3
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
			// Stop a few random handles between runs — pending, fired
			// or already stopped. Stop's verdict must agree with the
			// reference's.
			for i := 0; i < rng.Intn(4) && len(open) > 0; i++ {
				k := rng.Intn(len(open))
				p := all[open[k]]
				ev := p.tm.e
				queued := ev.gen == p.tm.gen
				var sl *slotList
				if queued {
					sl = &eng.wheel[ev.lvl][ev.slot]
					if ev.lvl >= 2 {
						deepStops++
					}
					if sl.head == ev && sl.tail == ev {
						loneStops++
					} else {
						sl = nil
					}
				}
				stopped := p.tm.Stop()
				if want := p.re.stop(); stopped != want || stopped != queued {
					t.Fatalf("seed %d: wheel Stop=%v, reference=%v, handle current=%v",
						seed, stopped, want, queued)
				}
				if sl != nil && (sl.head != nil || sl.tail != nil ||
					eng.occ[ev.lvl][ev.slot>>6]&(1<<uint(ev.slot&63)) != 0) {
					t.Fatalf("seed %d: stopping a slot's only event left the slot occupied", seed)
				}
				if p.tm.Stop() {
					t.Fatalf("seed %d: second Stop returned true", seed)
				}
				open[k] = open[len(open)-1]
				open = open[:len(open)-1]
			}
			// Advance a partial window; sometimes zero-width, sometimes
			// crossing several byte boundaries.
			until := eng.Now() + Time(rng.Intn(1<<14))
			if round%8 == 7 {
				until = eng.Now() + Time(rng.Intn(1<<25)) // past the level-3 timeouts
			}
			eng.Run(until)
			ref.run(until)
			if eng.Now() != ref.now {
				t.Fatalf("seed %d round %d: clock diverged wheel=%d ref=%d",
					seed, round, eng.Now(), ref.now)
			}
		}
		// Drain both completely.
		eng.Run(maxTime)
		ref.run(maxTime)
		crossStops += len(gotStops)

		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("seed %d: wheel fired %d events, reference fired %d",
				seed, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("seed %d: fire order diverges at %d: wheel=%d ref=%d",
					seed, i, gotOrder[i], wantOrder[i])
			}
		}
		if len(gotStops) != len(wantStops) {
			t.Fatalf("seed %d: %d in-callback stops on the wheel, %d on the reference",
				seed, len(gotStops), len(wantStops))
		}
		for i := range gotStops {
			if gotStops[i] != wantStops[i] {
				t.Fatalf("seed %d: in-callback stop %d: wheel %+v, reference %+v",
					seed, i, gotStops[i], wantStops[i])
			}
		}
		if eng.Pending() != 0 || !wheelEmpty(eng) {
			t.Fatalf("seed %d: drained engine still holds events (Pending=%d)", seed, eng.Pending())
		}
	}
	if deepStops == 0 || loneStops == 0 || selfStops == 0 || crossStops == 0 {
		t.Fatalf("coverage: %d stops at level >= 2, %d of a slot's only event, %d self, %d from another callback — want all > 0",
			deepStops, loneStops, selfStops, crossStops)
	}
}

// TestWheelNestedSchedulingDifferential covers self-scheduling:
// callbacks that schedule more work at the current instant and at
// short offsets, where tie-break stability is the former heap's
// sequence order. Both sides draw nested offsets from identical
// deterministic RNG streams, so the schedules correspond 1:1.
func TestWheelNestedSchedulingDifferential(t *testing.T) {
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
			t.Fatalf("seed %d: wheel fired %d events, reference fired %d",
				seed, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("seed %d: nested fire order diverges at index %d", seed, i)
			}
		}
	}
}

// TestTimerStopIdempotent pins the Timer contract under the wheel: the
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

	// Recycling: the fired event's slot is reused for a new event with
	// a bumped generation; the stale handle must not cancel it.
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
// allocates nothing, and leaves an empty wheel behind.
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
	if e.Pending() != 0 || !wheelEmpty(e) {
		t.Fatalf("wheel not empty after the last Stop (Pending=%d)", e.Pending())
	}
	// Stop drops the argument at once: nothing a stopped event carried
	// stays reachable from the engine.
	for _, ev := range e.free.free {
		if ev.fn != nil || ev.call != nil || ev.arg != nil || ev.next != nil || ev.prev != nil {
			t.Fatalf("recycled event still holds references: %+v", ev)
		}
	}
}
