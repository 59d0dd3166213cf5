package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.After(30*time.Microsecond, func() { got = append(got, 3) })
	e.After(10*time.Microsecond, func() { got = append(got, 1) })
	e.After(20*time.Microsecond, func() { got = append(got, 2) })
	e.Run(Time(time.Second))
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("wrong order: %v", got)
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(10)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestEngineClockAdvances(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.After(42*time.Microsecond, func() { at = e.Now() })
	e.Run(Time(time.Second))
	if at != Time(42*time.Microsecond) {
		t.Fatalf("clock at event = %d, want 42us", at)
	}
	if e.Now() != Time(time.Second) {
		t.Fatalf("final clock = %d, want 1s", e.Now())
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine(1)
	e.Run(100)
	fired := false
	e.At(5, func() { fired = true })
	e.Run(100) // same time bound; event was clamped to now=100
	if !fired {
		t.Fatal("past-scheduled event did not fire")
	}
}

func TestEngineRunStopsAtBoundary(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(200, func() { fired = true })
	e.Run(100)
	if fired {
		t.Fatal("event beyond boundary fired")
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100", e.Now())
	}
	e.Run(300)
	if !fired {
		t.Fatal("event did not fire on later Run")
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.After(10, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run(100)
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine(1)
	tm := e.After(10, func() {})
	e.Run(100)
	if tm.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(1, func() { count++ })
	e.At(2, func() { count++ })
	if !e.Step() || count != 1 {
		t.Fatalf("first step: count=%d", count)
	}
	if !e.Step() || count != 2 {
		t.Fatalf("second step: count=%d", count)
	}
	if e.Step() {
		t.Fatal("step on empty queue returned true")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 50 {
			e.After(time.Microsecond, recurse)
		}
	}
	e.After(time.Microsecond, recurse)
	e.Run(Time(time.Second))
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
}

func TestEngineDrainLimit(t *testing.T) {
	e := NewEngine(1)
	var boom func()
	boom = func() { e.After(1, boom) } // infinite chain
	e.After(1, boom)
	if e.Drain(1000) {
		t.Fatal("Drain reported empty queue for infinite chain")
	}
}

func TestEnginePending(t *testing.T) {
	e := NewEngine(1)
	tm := e.After(10, func() {})
	e.After(20, func() {})
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	tm.Stop()
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after Stop = %d, want 1", got)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		e := NewEngine(seed)
		var order []int
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			i := i
			e.At(Time(r.Intn(50)), func() {
				order = append(order, i)
				if e.Rand().Intn(2) == 0 {
					e.After(Duration(e.Rand().Intn(10)), func() { order = append(order, -i) })
				}
			})
		}
		e.Run(1000)
		return order
	}
	a, b := run(3), run(3)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any set of scheduled times, execution order is a stable
// sort of the schedule by time.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 500 {
			delays = delays[:500]
		}
		e := NewEngine(1)
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			i, at := i, Time(d)
			e.At(at, func() { got = append(got, rec{at, i}) })
		}
		e.Run(Time(1 << 20))
		if len(got) != len(delays) {
			return false
		}
		want := make([]rec, len(got))
		copy(want, got)
		if !sort.SliceIsSorted(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		}) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// hop is a Callback that keeps a message in flight: each call sends it
// on after the next delay of the cycle.
type hop struct {
	e      *Engine
	delays []Duration
	n      int
}

func (h *hop) Call(msg any, w uint64) {
	h.n++
	h.e.AfterMsg(h.delays[w%uint64(len(h.delays))], h, msg, w+1)
}

// TestSteadySchedulingAllocatesNothing: once the free lists hold their
// high-water mark, scheduling, firing and stopping allocate nothing, in
// the timer form and in the message form.
func TestSteadySchedulingAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	noop := func() {}
	var tm Timer
	timers := func() {
		for i := 0; i < 100; i++ {
			tm.Stop()
			tm = e.After(2*time.Millisecond, noop)
			e.After(Duration(i%7)*time.Microsecond, noop)
			e.Step()
		}
	}
	timers()
	if avg := testing.AllocsPerRun(100, timers); avg != 0 {
		t.Errorf("timer form: %v allocations per 100 rounds, want 0", avg)
	}
	h := &hop{e: e, delays: []Duration{2000, 5000, 8695, 10000}}
	msg := new(int)
	for i := 0; i < 64; i++ {
		e.AfterMsg(0, h, msg, uint64(i))
	}
	msgs := func() {
		for i := 0; i < 100; i++ {
			e.Step()
		}
	}
	msgs()
	if avg := testing.AllocsPerRun(100, msgs); avg != 0 {
		t.Errorf("message form: %v allocations per 100 events, want 0", avg)
	}
	if h.n == 0 {
		t.Fatal("no message was delivered")
	}
}

// BenchmarkEngineMix fires events at a rack's delay mix: 256 messages
// in flight, each sent on after 2, 5, 8.695 or 10 µs in turn (the
// message form), and a 2 ms retry timer armed per delivery and stopped
// 64 deliveries later, long before it is due, as a client's is when
// its reply comes back.
func BenchmarkEngineMix(b *testing.B) {
	e := NewEngine(1)
	h := &hop{e: e, delays: []Duration{5000, 8695, 5000, 2000, 5000, 10000}}
	msg := new(int)
	for i := 0; i < 256; i++ {
		e.AfterMsg(Duration(i)*20, h, msg, uint64(i))
	}
	var retries [64]Timer
	noop := func(any) {}
	round := func() {
		e.Step()
		r := &retries[h.n%len(retries)]
		r.Stop()
		*r = e.AfterCallT(2*time.Millisecond, noop, nil)
	}
	for i := 0; i < 10000; i++ {
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
