// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated components (network links, server processors, protocol
// timers) schedule events on a shared Engine. Events execute in
// (deadline, sequence) order, the sequence being the order they were
// scheduled in, so ties break first come, first served and a run with a
// fixed RNG seed is fully reproducible.
//
// The queue is a min-heap of per-delay FIFO lanes. Events scheduled
// with the same delay reach their deadlines in the order they were
// scheduled, because the clock never runs backwards; so an event is
// appended to its delay's lane once, in O(1), and only the lanes' heads
// are ordered, by a heap keyed on each head's (deadline, sequence),
// which the lane keeps inline: choosing the next event reads lanes, not
// events. A rack runs on a handful of delays (link latencies, service
// costs, timeouts), so the heap is a few lanes deep however many
// messages are in flight. A lane is found through a small table keyed by
// delay, which is looked up and never iterated; a delay that finds no
// room there gets a lane of its own, so on jittered or reordering links,
// where a lane holds about one event, the queue degrades into a plain
// event heap — slower, and still exact. differential_test.go pins the
// fire order against a reference (time, sequence) heap.
//
// The event records are recycled through a FreeList, which grows a
// block at a time (freelist.go), and timers are value handles stamped
// with the event's sequence number, so steady-state scheduling
// allocates nothing. The closure-free forms extend that to the
// callback: AfterCall takes a long-lived func(any) and its argument,
// and AfterMsg a Callback — typically a pointer whose method is the
// callback — with the message and one word, which is how simnet keeps a
// message in flight without a record of its own.
//
// Cancellation is O(1). A lane is doubly linked, so Timer.Stop unlinks
// the event on the spot, drops its callback and argument, and hands the
// record back to the free list; a lane whose head was stopped keeps its
// old key, a lower bound, until it reaches the top of the heap and is
// keyed again. So a protocol that re-arms a long timeout on every
// message (VR's view-change timer, a client's retry timer) keeps one
// record in flight instead of one per message until the deadline
// passes. What a Timer handle may assume: it is a value and may be
// copied or dropped freely; Stop reports true exactly once, and only if
// it prevented the event from firing; after the event fired or was
// stopped the handle is inert for good — the record it points at may
// already carry another event, which a stale Stop can never cancel (the
// sequence number differs); and once Stop returns, the engine holds no
// reference to the callback or its argument.
package sim

import (
	"math/rand"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of
// the run.
type Time int64

// Duration is a span of simulated time in nanoseconds. It is
// deliberately the same representation as time.Duration so callers can
// use the time package's constants (time.Microsecond etc.).
type Duration = time.Duration

// Callback is an event's action in the closure-free form: at the
// deadline the engine calls Call with the message and the word the
// event was scheduled with. A pointer whose method is the callback
// costs nothing to store, so one value per receiver serves every event.
type Callback interface{ Call(msg any, w uint64) }

// thunk and callArg carry the closure forms as Callbacks; a func value
// is one pointer, so the conversion allocates nothing.
type (
	thunk   func()
	callArg func(any)
)

func (f thunk) Call(any, uint64)         { f() }
func (f callArg) Call(arg any, _ uint64) { f(arg) }

// event is a scheduled callback. Events are pooled: when one fires or
// is stopped, it returns to the engine's free list and its sequence
// number is cleared, which is what invalidates any Timer still pointing
// at it. A Timer whose sequence matches therefore names an event that
// is still queued. The record fills the 80-byte size class.
type event struct {
	at  Time
	seq uint64 // scheduling order; 0 once recycled
	cb  Callback
	msg any
	w   uint64
	// next and prev link the lane. prev is maintained for every event
	// but a lane's head, whose prev is never read (Stop recognises the
	// head by comparing with lane.head), so popping a head does not
	// have to touch its successor.
	next, prev *event
	lane       *lane
}

// lane is the FIFO list of the queued events scheduled with one delay,
// in the engine's heap while it holds any.
type lane struct {
	// at and seq are the heap key: the head's deadline and sequence
	// when the lane was last keyed, a lower bound of both once that
	// head was stopped.
	at         Time
	seq        uint64
	head, tail *event
	d          Duration // the delay its events were scheduled with
	eng        *Engine  // so Stop can unlink and recycle
	queued     bool     // in the heap
	listed     bool     // a delay-table lane, never recycled
}

func (l *lane) before(m *lane) bool { return l.at < m.at || l.at == m.at && l.seq < m.seq }

// The delay table: laneSlots lanes, a delay probing laneProbe of them
// from its hash.
const (
	laneBits  = 6
	laneSlots = 1 << laneBits
	laneProbe = 4
)

// Timer is a cancellation handle for a scheduled event. It is a value:
// the zero Timer is inert (Stop reports false and is safe to call any
// number of times), and a Timer whose event has already fired — or was
// already stopped — is detected by the sequence stamp, so Stop is
// idempotent and holding a stale handle is always safe. In particular,
// Stop after the event has fired reports false, including when called
// from inside the firing callback itself.
type Timer struct {
	e   *event
	seq uint64
}

// Stop cancels the timer. It reports whether the event had not yet
// fired (and therefore was prevented from firing). Stopping an
// already-fired, already-stopped, or zero Timer reports false and has
// no effect; the call is idempotent. A stopped event leaves its lane at
// once: its record is recycled and its callback and argument are
// dropped before Stop returns.
func (t Timer) Stop() bool {
	ev := t.e
	if ev == nil || ev.seq != t.seq {
		return false
	}
	l := ev.lane
	if l.head == ev {
		l.head = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if l.tail == ev {
		l.tail = ev.prev
	} else {
		ev.next.prev = ev.prev
	}
	if l.head == nil {
		l.tail = nil
	}
	l.eng.live--
	l.eng.recycle(ev)
	return true
}

// Engine is a discrete-event scheduler with a virtual clock.
//
// Engine is not safe for concurrent use: the simulation model is
// single-threaded by design, which is what makes runs deterministic.
type Engine struct {
	now  Time
	seq  uint64 // the last sequence number handed out
	rng  *rand.Rand
	live int // scheduled, non-cancelled events

	heap  []*lane // min-heap on (at, seq)
	table [laneSlots]lane
	spare FreeList[lane] // lanes of the delays the table had no room for
	free  FreeList[event]

	// Processed counts executed events, for diagnostics.
	Processed uint64
}

// NewEngine returns an engine whose clock starts at 0 and whose
// randomness derives from seed.
func NewEngine(seed int64) *Engine {
	e := &Engine{rng: rand.New(rand.NewSource(seed))}
	for i := range e.table {
		e.table[i] = lane{eng: e, listed: true}
	}
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// laneFor returns the lane for an event scheduled d from now: the
// table's lane of d if its probe window has one, else an idle lane of
// the window bound to d, else a spare lane the table does not know.
func (e *Engine) laneFor(d Duration) *lane {
	h := uint64(d) * 0x9e3779b97f4a7c15 >> (64 - laneBits)
	var idle *lane
	for i := uint64(0); i < laneProbe; i++ {
		l := &e.table[(h+i)&(laneSlots-1)]
		if l.d == d {
			return l
		}
		if idle == nil && l.head == nil && !l.queued {
			idle = l
		}
	}
	if idle == nil {
		idle = e.spare.Get()
		*idle = lane{eng: e}
	}
	idle.d = d
	return idle
}

// schedule queues an event at t, clamped to now, at its lane's tail.
func (e *Engine) schedule(t Time, cb Callback, msg any, w uint64) *event {
	if t < e.now {
		t = e.now
	}
	l := e.laneFor(Duration(t - e.now))
	ev := e.free.Get()
	e.seq++
	ev.at, ev.seq, ev.cb, ev.msg, ev.w, ev.lane = t, e.seq, cb, msg, w, l
	e.live++
	if l.head == nil {
		l.head = ev
		if !l.queued {
			l.at, l.seq, l.queued = t, e.seq, true
			e.heap = append(e.heap, l)
			e.up(len(e.heap) - 1)
		}
	} else {
		ev.prev = l.tail
		l.tail.next = ev
	}
	l.tail = ev
	return ev
}

// recycle returns an unlinked event to the free list. Clearing the
// sequence number is what retires outstanding Timer handles; the
// callback fields and links are cleared so the pool retains nothing.
func (e *Engine) recycle(ev *event) {
	ev.seq = 0
	ev.cb, ev.msg = nil, nil
	ev.next, ev.prev = nil, nil
	e.free.Put(ev)
}

// up and down restore the heap order from index i.
func (e *Engine) up(i int) {
	h := e.heap
	l := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !l.before(h[p]) {
			break
		}
		h[i], i = h[p], p
	}
	h[i] = l
}

func (e *Engine) down(i int) {
	h := e.heap
	l := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(l) {
			break
		}
		h[i], i = h[c], c
	}
	h[i] = l
}

// dequeue takes the emptied lane at the top out of the heap.
func (e *Engine) dequeue() {
	l, n := e.heap[0], len(e.heap)-1
	e.heap[0] = e.heap[n]
	e.heap[n] = nil
	if e.heap = e.heap[:n]; n > 0 {
		e.down(0)
	}
	l.queued = false
	if !l.listed {
		e.spare.Put(l)
	}
}

// popNext removes and returns the earliest event with deadline <=
// until, or nil when there is none. A top lane whose head was stopped
// is keyed again (or, emptied, dequeued) and the search repeats.
func (e *Engine) popNext(until Time) *event {
	for len(e.heap) > 0 {
		l := e.heap[0]
		if l.at > until {
			return nil
		}
		ev := l.head
		switch {
		case ev == nil:
			e.dequeue()
		case ev.seq != l.seq:
			l.at, l.seq = ev.at, ev.seq
			e.down(0)
		default:
			if l.head = ev.next; l.head != nil {
				l.at, l.seq = l.head.at, l.head.seq
				e.down(0)
			} else {
				l.tail = nil
				e.dequeue()
			}
			return ev
		}
	}
	return nil
}

// fire executes a popped event and recycles it.
func (e *Engine) fire(ev *event) {
	e.now = ev.at
	e.live--
	e.Processed++
	cb, msg, w := ev.cb, ev.msg, ev.w
	// Recycled before the callback runs: a Stop issued from inside the
	// callback sees a cleared sequence and reports false.
	e.recycle(ev)
	cb.Call(msg, w)
}

// At schedules fn to run at the absolute simulated time t. Scheduling
// in the past is clamped to "now" (the event runs before the clock
// advances further).
func (e *Engine) At(t Time, fn func()) Timer {
	ev := e.schedule(t, thunk(fn), nil, 0)
	return Timer{ev, ev.seq}
}

// After schedules fn to run d from now.
func (e *Engine) After(d Duration, fn func()) Timer {
	return e.At(e.now+Time(d), fn)
}

// AfterCall schedules call(arg) to run d from now without returning a
// handle: the zero-allocation form for high-volume events, where the
// caller keeps one long-lived call function and threads per-event
// state through arg, so nothing is captured per event.
func (e *Engine) AfterCall(d Duration, call func(any), arg any) {
	e.schedule(e.now+Time(d), callArg(call), arg, 0)
}

// AfterCallT is AfterCall with a cancellation handle, for hot-path
// events that occasionally need stopping (retry timers).
func (e *Engine) AfterCallT(d Duration, call func(any), arg any) Timer {
	ev := e.schedule(e.now+Time(d), callArg(call), arg, 0)
	return Timer{ev, ev.seq}
}

// AfterMsg schedules cb.Call(msg, w) to run d from now, without a
// handle: the message form, which carries a message in flight in the
// event itself (simnet's arrivals and service completions).
func (e *Engine) AfterMsg(d Duration, cb Callback, msg any, w uint64) {
	e.schedule(e.now+Time(d), cb, msg, w)
}

// maxTime is the unbounded deadline for Step and Drain.
const maxTime = Time(1<<63 - 1)

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	ev := e.popNext(maxTime)
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// Run executes events until the queue empties or the clock would pass
// until. The clock is left at until (or its starting value, if that is
// later); events scheduled after until remain pending.
func (e *Engine) Run(until Time) {
	for ev := e.popNext(until); ev != nil; ev = e.popNext(until) {
		e.fire(ev)
	}
	if e.now < until {
		e.now = until
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Duration) { e.Run(e.now + Time(d)) }

// Drain runs all pending events regardless of time, up to a safety
// limit of maxEvents (0 means no limit). It reports whether the queue
// fully drained.
func (e *Engine) Drain(maxEvents uint64) bool {
	var n uint64
	for e.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			return e.live == 0
		}
	}
	return true
}

// Pending returns the number of scheduled (non-cancelled) events.
func (e *Engine) Pending() int { return e.live }
