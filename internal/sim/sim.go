// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated components (network links, server processors, protocol
// timers) schedule closures on a shared Engine. Events execute in
// timestamp order; ties break by scheduling order, so a run with a fixed
// RNG seed is fully reproducible.
//
// The scheduler is a hierarchical timing wheel: eight levels of 256
// slots, level k spanning 256^k nanoseconds per slot, so schedule,
// cancel, and fire are all O(1) amortized (a heap's O(log n) per event
// and its pointer-chasing Less calls are off the hot path entirely).
// Each slot is an intrusive FIFO list and an event lands in the level
// given by the highest byte in which its deadline differs from the
// wheel's current base time. Advancing the clock cascades a higher
// slot's events down exactly when the base crosses the slot's byte
// boundary; since every event in the slot shares the deadline prefix
// above that byte, re-placement preserves insertion order, and the
// fire order is bit-identical to the former heap's (time, then FIFO) —
// the differential test in differential_test.go pins that equivalence.
//
// The event records themselves are recycled through a FreeList, which
// grows a block at a time (freelist.go), and timers are
// generation-stamped value handles, so steady-state scheduling
// allocates nothing: the per-message event traffic of a
// saturated rack runs at data-plane rates without feeding the garbage
// collector. The closure-free AfterCall variant extends that to the
// callback itself — callers pass a long-lived func(any) plus the
// argument instead of capturing state per event.
//
// Cancellation is as cheap as scheduling. Slot lists are doubly linked
// and a queued event remembers its (level, slot), so Timer.Stop unlinks
// the event on the spot, drops its callback and argument, and hands the
// record back to the free list: the wheel only ever holds events that
// will fire, a cascade never visits a cancelled one, and a protocol
// that re-arms a long timeout on every message (VR's view-change
// timer, a client's retry timer) keeps one record in flight instead of
// one per message until the deadline passes. What a Timer handle may
// assume: it is a value and may be copied or dropped freely; Stop
// reports true exactly once, and only if it prevented the event from
// firing; after the event fired or was stopped the handle is inert
// for good — the record it points at may already carry another event,
// which a stale Stop can never cancel (the generation stamp differs);
// and once Stop returns, the engine holds no reference to the callback
// or its argument.
package sim

import (
	"math/bits"
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

// event is a scheduled closure. Events are pooled: when one fires or
// is stopped, it returns to the engine's free list and its generation
// advances, which is what invalidates any Timer still pointing at it.
// A Timer whose generation matches therefore names an event that is
// still linked in the wheel. The record fills the 80-byte size class.
type event struct {
	at   Time
	gen  uint64 // incarnation counter; Timers must match to act
	fn   func()
	call func(any) // closure-free form: call(arg) if fn is nil
	arg  any
	// next and prev are the intrusive slot-list links. prev is
	// maintained for every event but a list's head, whose prev is never
	// read (unlink recognises the head by comparing with slotList.head),
	// so popping a head does not have to touch its successor.
	next, prev *event
	eng        *Engine // back-pointer so Stop can unlink and recycle
	lvl, slot  uint8   // wheel position while queued
}

// Timing-wheel geometry: 8 levels of 256 slots cover the full non-
// negative int64 time range, one byte of the deadline per level.
const (
	wheelLevels = 8
	wheelSlots  = 256
)

// slotList is one wheel slot: an intrusive doubly-linked FIFO queue.
type slotList struct {
	head, tail *event
}

// Timer is a cancellation handle for a scheduled event. It is a value:
// the zero Timer is inert (Stop reports false and is safe to call any
// number of times), and a Timer whose event has already fired — or was
// already stopped — is detected by the generation stamp, so Stop is
// idempotent and holding a stale handle is always safe. In particular,
// Stop after the event has fired reports false, including when called
// from inside the firing callback itself.
type Timer struct {
	e   *event
	gen uint64
}

// Stop cancels the timer. It reports whether the event had not yet
// fired (and therefore was prevented from firing). Stopping an
// already-fired, already-stopped, or zero Timer reports false and has
// no effect; the call is idempotent. A stopped event leaves the wheel
// at once: its record is recycled and its callback and argument are
// dropped before Stop returns.
func (t Timer) Stop() bool {
	ev := t.e
	if ev == nil || ev.gen != t.gen {
		return false
	}
	e := ev.eng
	e.unlink(ev)
	e.live--
	e.recycle(ev)
	return true
}

// Engine is a discrete-event scheduler with a virtual clock.
//
// Engine is not safe for concurrent use: the simulation model is
// single-threaded by design, which is what makes runs deterministic.
type Engine struct {
	now Time
	// base is the wheel's reference time: the level/slot of a deadline
	// is derived from base, and cascades keep every queued event's
	// placement consistent as base advances. base == now whenever user
	// code can observe the engine (inside callbacks and between runs).
	base Time
	rng  *rand.Rand
	live int // scheduled, non-cancelled events

	wheel [wheelLevels][wheelSlots]slotList
	occ   [wheelLevels][wheelSlots / 64]uint64 // slot-occupancy bitmaps

	free FreeList[event]

	// Processed counts executed events, for diagnostics.
	Processed uint64
}

// NewEngine returns an engine whose clock starts at 0 and whose
// randomness derives from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// place links ev into the wheel slot its deadline selects relative to
// the current base: level = highest byte where at and base differ,
// slot = that byte of at. Appending to the slot tail is what preserves
// FIFO order among equal deadlines across cascades.
func (e *Engine) place(ev *event) {
	lvl := 0
	idx := int(uint64(ev.at) & 0xff)
	if d := uint64(ev.at ^ e.base); d != 0 {
		lvl = (63 - bits.LeadingZeros64(d)) >> 3
		idx = int((uint64(ev.at) >> (8 * uint(lvl))) & 0xff)
	}
	ev.lvl, ev.slot = uint8(lvl), uint8(idx)
	ev.next = nil
	sl := &e.wheel[lvl][idx]
	ev.prev = sl.tail
	if sl.head == nil {
		sl.head = ev
		e.occ[lvl][idx>>6] |= 1 << uint(idx&63)
	} else {
		sl.tail.next = ev
	}
	sl.tail = ev
}

// unlink removes a queued event from its slot list, clearing the
// slot's occupancy bit when it was the only one there.
func (e *Engine) unlink(ev *event) {
	sl := &e.wheel[ev.lvl][ev.slot]
	if sl.head == ev {
		sl.head = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if sl.tail == ev {
		sl.tail = ev.prev
	} else {
		ev.next.prev = ev.prev
	}
	if sl.head == nil {
		sl.tail = nil
		e.occ[ev.lvl][ev.slot>>6] &^= 1 << uint(ev.slot&63)
	}
}

// alloc takes an event from the free list and schedules it at t.
func (e *Engine) alloc(t Time) *event {
	ev := e.free.Get()
	ev.eng = e // a freshly carved record has none yet
	if t < e.now {
		t = e.now
	}
	ev.at = t
	e.live++
	e.place(ev)
	return ev
}

// recycle returns an unlinked event to the free list. The generation
// bump is what retires outstanding Timer handles; the callback fields
// and links are cleared so the pool retains nothing.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.call = nil
	ev.arg = nil
	ev.next, ev.prev = nil, nil
	e.free.Put(ev)
}

// At schedules fn to run at the absolute simulated time t. Scheduling
// in the past is clamped to "now" (the event runs before the clock
// advances further).
func (e *Engine) At(t Time, fn func()) Timer {
	ev := e.alloc(t)
	ev.fn = fn
	return Timer{e: ev, gen: ev.gen}
}

// After schedules fn to run d from now.
func (e *Engine) After(d Duration, fn func()) Timer {
	return e.At(e.now+Time(d), fn)
}

// AtCall schedules call(arg) at the absolute time t without returning
// a handle. This is the zero-allocation fast path for high-volume
// events (message deliveries, service completions): the caller keeps
// one long-lived call function and threads per-event state through
// arg, so nothing is captured per event.
func (e *Engine) AtCall(t Time, call func(any), arg any) {
	ev := e.alloc(t)
	ev.call = call
	ev.arg = arg
}

// AfterCall schedules call(arg) to run d from now, without a handle.
func (e *Engine) AfterCall(d Duration, call func(any), arg any) {
	e.AtCall(e.now+Time(d), call, arg)
}

// AfterCallT is AfterCall with a cancellation handle, for hot-path
// events that occasionally need stopping (retry timers).
func (e *Engine) AfterCallT(d Duration, call func(any), arg any) Timer {
	ev := e.alloc(e.now + Time(d))
	ev.call = call
	ev.arg = arg
	return Timer{e: ev, gen: ev.gen}
}

// findSlot returns the first occupied slot index >= from at lvl, or -1.
func (e *Engine) findSlot(lvl, from int) int {
	if from >= wheelSlots {
		return -1
	}
	w := from >> 6
	b := e.occ[lvl][w] >> uint(from&63) << uint(from&63)
	for {
		if b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
		w++
		if w == len(e.occ[lvl]) {
			return -1
		}
		b = e.occ[lvl][w]
	}
}

// clearSlot empties slot idx of lvl and returns its list head.
func (e *Engine) clearSlot(lvl, idx int) *event {
	sl := &e.wheel[lvl][idx]
	head := sl.head
	sl.head, sl.tail = nil, nil
	e.occ[lvl][idx>>6] &^= 1 << uint(idx&63)
	return head
}

// popNext removes and returns the earliest event with deadline <=
// until, advancing base (and cascading higher-level slots) as needed.
// It returns nil when no such event exists; base is then left <= until,
// and re-anchored at now if the wheel is completely empty.
func (e *Engine) popNext(until Time) *event {
	for {
		// Level 0 first: slots at or after the cursor byte hold events
		// whose deadline differs from base only in byte 0, so the whole
		// slot shares one exact deadline.
		if s := e.findSlot(0, int(uint64(e.base)&0xff)); s >= 0 {
			slotTime := Time(uint64(e.base)&^0xff | uint64(s))
			if slotTime > until {
				return nil
			}
			e.base = slotTime
			sl := &e.wheel[0][s]
			ev := sl.head
			if sl.head = ev.next; sl.head == nil {
				sl.tail = nil
				e.occ[0][s>>6] &^= 1 << uint(s&63)
			}
			return ev
		}
		// Level 0 exhausted for this 256ns window: cascade the next
		// occupied higher slot whose window starts within the bound.
		// Levels are inspected lowest-first, so the chosen slot's base
		// is the earliest possible deadline of anything still queued —
		// and a slot is only cascaded once base may legally enter it
		// (slotBase <= until), never prematurely.
		cascaded := false
		for lvl := 1; lvl < wheelLevels; lvl++ {
			shift := uint(8 * lvl)
			cur := int((uint64(e.base) >> shift) & 0xff)
			s := e.findSlot(lvl, cur+1)
			if s < 0 {
				continue
			}
			upper := uint64(e.base) >> (shift + 8) << (shift + 8)
			slotBase := Time(upper | uint64(s)<<shift)
			if slotBase > until {
				return nil
			}
			head := e.clearSlot(lvl, s)
			e.base = slotBase
			for ev := head; ev != nil; {
				nxt := ev.next
				e.place(ev)
				ev = nxt
			}
			cascaded = true
			break
		}
		if !cascaded {
			e.base = e.now // wheel empty; re-anchor for future inserts
			return nil
		}
	}
}

// fire executes a popped event and recycles it.
func (e *Engine) fire(ev *event) {
	e.now = ev.at
	e.live--
	e.Processed++
	fn, call, arg := ev.fn, ev.call, ev.arg
	// Recycled before the callback runs: a Stop issued from inside the
	// callback sees a newer generation and reports false.
	e.recycle(ev)
	if fn != nil {
		fn()
	} else {
		call(arg)
	}
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
	for {
		ev := e.popNext(until)
		if ev == nil {
			break
		}
		e.fire(ev)
	}
	if e.now < until {
		e.now = until
	}
	if e.base < e.now {
		e.base = e.now
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
