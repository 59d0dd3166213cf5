package dataplane

import (
	"errors"
	"testing"
)

// fuzzShapes are the table geometries the fuzz stream picks from: a
// single tiny stage, the usual three stages kept small enough to fill
// up, slot counts that leave a ragged last word in the occupancy bitmap
// and whose live cells outgrow their initial tables, and the paper's
// 3 × 64 000.
var fuzzShapes = [][2]int{{1, 5}, {3, 8}, {2, 70}, {3, 130}, {3, 64000}}

// FuzzTableAgainstMap interprets the input as a table shape followed by
// a stream of operations (three bytes each: opcode, key, argument) and
// holds the table to a map[key]seq oracle after every step: Lookup and
// Used always, Scan against the whole oracle (every entry exactly once)
// after each bulk operation and at the end. The oracle cannot say when
// a multi-stage table is full, so it takes the table's word for it —
// but only for a key the table does not hold, and only once each stage
// could be holding somebody else.
func FuzzTableAgainstMap(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0, 1, 2, 2, 1, 0, 1, 1, 9, 4, 0, 0})
	f.Add([]byte{4, 0, 1, 1, 0, 1, 2, 2, 1, 0, 1, 1, 9, 4, 0, 0, 6, 0, 0, 0, 3, 5})
	f.Add([]byte{0, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1, 0, 5, 1, 0, 6, 1, 0, 7, 1, 3, 0, 3, 4, 0, 0})
	fill := []byte{1}
	for k := 0; k < 40; k++ { // overfill 3x8, delete a few, sweep, reset, refill
		fill = append(fill, 0, byte(k), 1)
	}
	fill = append(fill, 1, 3, 255, 1, 9, 255, 3, 0, 20, 4, 0, 0, 6, 0, 0, 0, 5, 1, 4, 0, 0)
	f.Add(fill)
	// On 3 × 130: grow the first stage's 8 cells through at least three
	// doublings (TestLiveCellsGrowAndDrain checks it) and the later
	// stages' too, drain them by Delete, SweepStale and Reset, refill.
	grow := []byte{3}
	for k := 0; k < 256; k++ {
		grow = append(grow, 0, byte(k), 1)
	}
	refill := append([]byte(nil), grow[1:]...)
	for k := 0; k < 256; k += 3 {
		grow = append(grow, 1, byte(k), 255)
	}
	grow = append(grow, 3, 0, 128, 4, 0, 0, 3, 0, 0)
	grow = append(append(grow, refill...), 6, 0, 0)
	f.Add(append(grow, refill...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shape := fuzzShapes[int(data[0])%len(fuzzShapes)]
		data = data[1:]
		tb := NewTable(shape[0], shape[1])
		oracle := map[uint32]uint64{}
		var next uint64 // the scheduler's counter: inserts mostly increase

		checkScan := func(step int) {
			t.Helper()
			seen := map[uint32]bool{}
			tb.Scan(func(key uint32, seq uint64) {
				if seen[key] {
					t.Fatalf("step %d: Scan showed key %d twice", step, key)
				}
				seen[key] = true
				if want, ok := oracle[key]; !ok || want != seq {
					t.Fatalf("step %d: Scan showed %d→%d, oracle %d (present %v)", step, key, seq, want, ok)
				}
			})
			if len(seen) != len(oracle) {
				t.Fatalf("step %d: Scan showed %d entries, oracle holds %d", step, len(seen), len(oracle))
			}
			checkCells(t, tb)
		}

		for step := 0; len(data) >= 3; step++ {
			op, key, arg := data[0]%7, uint32(data[1]), uint64(data[2])
			data = data[3:]
			switch op {
			case 0: // Insert, the next sequence number or (rarely) a stale one
				next++
				seq := next
				if arg%8 == 0 {
					seq = next - arg>>3%next
				}
				old, held := oracle[key]
				switch err := tb.Insert(key, seq); {
				case err == nil:
					oracle[key] = max(old, seq)
				case !errors.Is(err, ErrTableFull):
					t.Fatalf("step %d: Insert returned %v", step, err)
				case held:
					t.Fatalf("step %d: Insert reported the table full for key %d, which it holds", step, key)
				case len(oracle) < shape[0]:
					t.Fatalf("step %d: Insert reported %d stages full with %d entries", step, shape[0], len(oracle))
				}
			case 1, 5: // Delete / CleanSlotIfStale: completion up to arg
				upTo := next - min(arg, next)
				if arg == 255 {
					upTo = ^uint64(0)
				}
				seq, held := oracle[key]
				want := held && seq <= upTo
				del := tb.Delete
				if op == 5 {
					del = tb.CleanSlotIfStale
				}
				if got := del(key, upTo); got != want {
					t.Fatalf("step %d: Delete(%d, %d) = %v with %d stored (present %v)", step, key, upTo, !want, seq, held)
				}
				if want {
					delete(oracle, key)
				}
			case 2: // Lookup (checked below)
			case 3: // SweepStale
				commit := next - min(arg, next)
				want := 0
				for k, seq := range oracle {
					if seq <= commit {
						delete(oracle, k)
						want++
					}
				}
				if got := tb.SweepStale(commit); got != want {
					t.Fatalf("step %d: SweepStale(%d) removed %d, oracle %d", step, commit, got, want)
				}
				checkScan(step)
			case 4: // Scan
				checkScan(step)
			case 6: // Reset
				tb.Reset()
				clear(oracle)
				checkScan(step)
			}

			seq, ok := tb.Lookup(key)
			if want, held := oracle[key]; ok != held || seq != want {
				t.Fatalf("step %d (op %d): Lookup(%d) = %d %v, oracle %d %v", step, op, key, seq, ok, want, held)
			}
			if tb.Used() != len(oracle) {
				t.Fatalf("step %d (op %d): Used() = %d, oracle %d", step, op, tb.Used(), len(oracle))
			}
		}
		checkScan(-1)
	})
}
