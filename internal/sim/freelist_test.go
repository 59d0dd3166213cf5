package sim

import (
	"testing"
	"time"
)

var sink *[3]int

// TestFreeListCarvesBlocks: N Gets from an empty list allocate one
// block per freeListBlock records, not one record each.
func TestFreeListCarvesBlocks(t *testing.T) {
	for _, n := range []int{1, freeListBlock, freeListBlock + 1, 10 * freeListBlock} {
		want := float64((n + freeListBlock - 1) / freeListBlock)
		if got := testing.AllocsPerRun(100, func() {
			var l FreeList[[3]int]
			for i := 0; i < n; i++ {
				sink = l.Get()
			}
		}); got != want {
			t.Errorf("%d Gets from an empty list allocate %v times, want %v", n, got, want)
		}
	}
}

// TestFreeListIsLIFO: records come back most recently Put first, and
// the list hands out each of them once.
func TestFreeListIsLIFO(t *testing.T) {
	var l FreeList[[3]int]
	a, b, c := l.Get(), l.Get(), l.Get()
	if a == b || b == c || a == c {
		t.Fatal("one record handed out twice")
	}
	l.Put(a)
	l.Put(c)
	if l.Get() != c || l.Get() != a {
		t.Fatal("recycled records do not come back last in, first out")
	}
	if d := l.Get(); d == a || d == b || d == c {
		t.Fatal("an empty free list handed out a live record")
	}
}

// TestCarvedEventsCarryTheirEngine: every event record, the first of a
// block or the last, reaches its engine through its lane, so its Timer
// can stop it.
func TestCarvedEventsCarryTheirEngine(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	var timers []Timer
	for i := 0; i < 3*freeListBlock; i++ {
		timers = append(timers, e.After(time.Duration(i+1), func() { fired++ }))
	}
	for i, tm := range timers {
		if tm.e.lane.eng != e {
			t.Fatalf("event %d carries engine %p, want %p", i, tm.e.lane.eng, e)
		}
		if i%2 == 0 && !tm.Stop() {
			t.Fatalf("Stop of pending event %d reported false", i)
		}
	}
	e.RunFor(time.Second)
	if fired != len(timers)/2 {
		t.Fatalf("%d events fired, want %d", fired, len(timers)/2)
	}
}
