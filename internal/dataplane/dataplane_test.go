package dataplane

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestInsertLookupDelete(t *testing.T) {
	tb := NewTable(3, 16)
	if err := tb.Insert(42, 7); err != nil {
		t.Fatal(err)
	}
	if v, ok := tb.Lookup(42); !ok || v != 7 {
		t.Fatalf("Lookup = %d,%v", v, ok)
	}
	if !tb.Delete(42, 7) {
		t.Fatal("Delete failed")
	}
	if _, ok := tb.Lookup(42); ok {
		t.Fatal("key survived Delete")
	}
	if tb.Used() != 0 {
		t.Fatalf("Used = %d", tb.Used())
	}
}

func TestInsertUpdatesSeq(t *testing.T) {
	tb := NewTable(3, 16)
	_ = tb.Insert(1, 5)
	_ = tb.Insert(1, 9) // concurrent later write
	if v, _ := tb.Lookup(1); v != 9 {
		t.Fatalf("seq = %d, want 9", v)
	}
	if tb.Used() != 1 {
		t.Fatalf("Used = %d, want 1 (same key reuses slot)", tb.Used())
	}
	// Stale insert must not regress the stored sequence number.
	_ = tb.Insert(1, 3)
	if v, _ := tb.Lookup(1); v != 9 {
		t.Fatalf("seq regressed to %d", v)
	}
}

func TestDeleteRespectsNewerPendingWrite(t *testing.T) {
	// Completion of write seq=5 must not clear the entry if write
	// seq=9 to the same object is still pending (Algorithm 1 line 6).
	tb := NewTable(3, 16)
	_ = tb.Insert(1, 5)
	_ = tb.Insert(1, 9)
	if tb.Delete(1, 5) {
		t.Fatal("completion of old write cleared newer pending entry")
	}
	if _, ok := tb.Lookup(1); !ok {
		t.Fatal("entry vanished")
	}
	if !tb.Delete(1, 9) {
		t.Fatal("completion of newest write failed to clear")
	}
}

func TestDeleteMissingKey(t *testing.T) {
	tb := NewTable(2, 8)
	if tb.Delete(123, 99) {
		t.Fatal("Delete of absent key returned true")
	}
}

func TestCollisionsSpillToLaterStages(t *testing.T) {
	// With 1 slot per stage and 3 stages, we can hold exactly 3
	// distinct keys; the 4th insert must fail.
	tb := NewTable(3, 1)
	keys := []uint32{1, 2, 3}
	for i, k := range keys {
		if err := tb.Insert(k, uint64(i+1)); err != nil {
			t.Fatalf("insert %d failed: %v", k, err)
		}
	}
	if err := tb.Insert(4, 9); err != ErrTableFull {
		t.Fatalf("4th insert err = %v, want ErrTableFull", err)
	}
	for _, k := range keys {
		if _, ok := tb.Lookup(k); !ok {
			t.Fatalf("key %d lost", k)
		}
	}
}

func TestSweepStale(t *testing.T) {
	tb := NewTable(3, 64)
	for k := uint32(0); k < 30; k++ {
		_ = tb.Insert(k, uint64(k+1))
	}
	removed := tb.SweepStale(10)
	if removed != 10 {
		t.Fatalf("removed %d, want 10 (seqs 1..10)", removed)
	}
	if _, ok := tb.Lookup(5); ok {
		t.Fatal("stale entry survived sweep")
	}
	if _, ok := tb.Lookup(20); !ok {
		t.Fatal("fresh entry removed by sweep")
	}
}

func TestCleanSlotIfStale(t *testing.T) {
	tb := NewTable(3, 64)
	_ = tb.Insert(7, 3)
	if !tb.CleanSlotIfStale(7, 5) {
		t.Fatal("stale slot not cleaned")
	}
	_ = tb.Insert(8, 9)
	if tb.CleanSlotIfStale(8, 5) {
		t.Fatal("fresh slot cleaned")
	}
}

func TestReset(t *testing.T) {
	tb := NewTable(3, 8)
	for k := uint32(0); k < 10; k++ {
		_ = tb.Insert(k, 1)
	}
	tb.Reset()
	if tb.Used() != 0 {
		t.Fatalf("Used after Reset = %d", tb.Used())
	}
	for k := uint32(0); k < 10; k++ {
		if _, ok := tb.Lookup(k); ok {
			t.Fatalf("key %d survived Reset", k)
		}
	}
}

func TestMemoryBytesMatchesPaper(t *testing.T) {
	// §8: 3 stages × 64K slots, 32-bit IDs + 32-bit seqs ⇒ 1.5 MB.
	tb := NewTable(3, 64000)
	if got := tb.MemoryBytes(); got != 3*64000*8 {
		t.Fatalf("MemoryBytes = %d", got)
	}
}

// TestPaperTableHoldsOnlyLiveCells pins what the paper's 3 × 64 000
// geometry costs to build: the occupancy bitmaps and the initial cell
// tables, under 64 KB where full register arrays took 3 MB, while the
// model's geometry and accounting stay those of the full arrays.
func TestPaperTableHoldsOnlyLiveCells(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb := NewTable(3, 64000)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("NewTable(3, 64000) allocated %d bytes, want under 64 KB", n)
	}
	if tb.SlotsPerStage() != 64000 || tb.Capacity() != 3*64000 || tb.MemoryBytes() != 3*64000*8 {
		t.Fatalf("SlotsPerStage %d Capacity %d MemoryBytes %d", tb.SlotsPerStage(), tb.Capacity(), tb.MemoryBytes())
	}
}

// checkCells holds every stage's cell table to its invariants and
// returns the cells in use: one cell per set occupancy bit, the count
// kept right, and no free cell between a cell and its home, which is
// what a backward-shift delete must preserve.
func checkCells(t *testing.T, tb *Table) (n int) {
	t.Helper()
	for i := range tb.stages {
		arr, cells := tb.stages[i].arr, 0
		mask := len(arr.cells) - 1
		for j, c := range arr.cells {
			if c.at == 0 {
				continue
			}
			cells++
			if !arr.used(int(c.at - 1)) {
				t.Fatalf("stage %d: a cell for free slot %d", i, c.at-1)
			}
			for k := arr.home(c.at); k != j; k = (k + 1) & mask {
				if arr.cells[k].at == 0 {
					t.Fatalf("stage %d: slot %d's cell at %d is cut off from its home by free cell %d", i, c.at-1, j, k)
				}
			}
		}
		bitsSet := 0
		arr.each(func(int) { bitsSet++ })
		if cells != arr.n || cells != bitsSet {
			t.Fatalf("stage %d: %d cells in use, %d counted, %d occupancy bits", i, cells, arr.n, bitsSet)
		}
		n += cells
	}
	return n
}

// TestLiveCellsGrowAndDrain fills a small table's stages well past their
// initial cell tables, empties them by each way a slot is freed, and
// refills them: every entry stays reachable through the doublings and
// backward shifts, and a drained table holds no cell.
func TestLiveCellsGrowAndDrain(t *testing.T) {
	tb := NewTable(3, 130)
	initial := len(tb.stages[0].arr.cells)
	fill := func(round uint64) {
		var held []uint32
		for k := uint32(0); k < 256; k++ {
			if tb.Insert(k, round<<8|uint64(k)) == nil {
				held = append(held, k)
			}
		}
		for _, k := range held {
			if v, ok := tb.Lookup(k); !ok || v != round<<8|uint64(k) {
				t.Fatalf("round %d: key %d holds %d (present %v)", round, k, v, ok)
			}
		}
		if n := checkCells(t, tb); tb.Used() != len(held) || n != len(held) {
			t.Fatalf("round %d: Used %d, %d live cells, %d inserts held", round, tb.Used(), n, len(held))
		}
	}
	fill(1)
	if got := len(tb.stages[0].arr.cells); got < initial<<3 {
		t.Fatalf("first stage grew %d → %d cells, want three doublings", initial, got)
	}
	for k := uint32(0); k < 256; k += 2 {
		tb.Delete(k, 1<<8|uint64(k))
	}
	tb.SweepStale(1<<8 | 200)
	if n := checkCells(t, tb); n == 0 || n != tb.Used() {
		t.Fatalf("after Delete and SweepStale: Used %d, %d live cells", tb.Used(), n)
	}
	tb.SweepStale(2 << 8)
	if n := checkCells(t, tb); n != 0 || tb.Used() != 0 {
		t.Fatalf("after a full sweep: Used %d, %d live cells", tb.Used(), n)
	}
	fill(2)
	tb.Reset()
	if n := checkCells(t, tb); n != 0 || tb.Used() != 0 {
		t.Fatalf("after Reset: Used %d, %d live cells", tb.Used(), n)
	}
	fill(3)
}

func TestInvalidTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTable(0, 10)
}

// Property: the table behaves like a map[uint32]uint64 restricted by
// capacity — on a random op sequence where inserts never fail (table
// big enough), Lookup always matches the model.
func TestTableMatchesMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable(4, 256)
		model := map[uint32]uint64{}
		for i := 0; i < 2000; i++ {
			key := uint32(rng.Intn(200)) // bounded keyspace, far below capacity
			switch rng.Intn(3) {
			case 0: // insert with increasing seq
				seq := uint64(i + 1)
				if err := tb.Insert(key, seq); err != nil {
					return false // must not fill at this load
				}
				if old, ok := model[key]; !ok || seq > old {
					model[key] = seq
				}
			case 1: // delete ≤ stored
				if v, ok := model[key]; ok {
					if !tb.Delete(key, v) {
						return false
					}
					delete(model, key)
				} else if tb.Delete(key, ^uint64(0)) {
					return false
				}
			case 2: // lookup
				v, ok := tb.Lookup(key)
				mv, mok := model[key]
				if ok != mok || (ok && v != mv) {
					return false
				}
			}
		}
		// Final full comparison.
		for k, v := range model {
			got, ok := tb.Lookup(k)
			if !ok || got != v {
				return false
			}
		}
		return tb.Used() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: inserts never lose a key that was reported stored, until
// deleted, even under collision pressure.
func TestNoSilentEviction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable(3, 8)
		present := map[uint32]uint64{}
		for i := 0; i < 500; i++ {
			key := uint32(rng.Intn(64))
			seq := uint64(i + 1)
			if err := tb.Insert(key, seq); err == nil {
				if old, ok := present[key]; !ok || seq > old {
					present[key] = seq
				}
			} else if _, ok := present[key]; ok {
				return false // claimed full for a key it already holds
			}
			if rng.Intn(4) == 0 {
				for k, v := range present {
					tb.Delete(k, v)
					delete(present, k)
					break
				}
			}
		}
		for k, v := range present {
			got, ok := tb.Lookup(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceModelPaperNumbers(t *testing.T) {
	r := PaperExample()
	// §6.2: 96 MRPS writes, 1.92 BRPS total, 1.5 MB of memory.
	if got := r.WriteRate(); got != 96e6 {
		t.Fatalf("WriteRate = %g, want 96e6", got)
	}
	if got := r.TotalRate(); got != 1.92e9 {
		t.Fatalf("TotalRate = %g, want 1.92e9", got)
	}
	if got := r.MemoryBytes(); got != 1536000 {
		t.Fatalf("MemoryBytes = %g, want 1.536e6 (~1.5MB)", got)
	}
	if got := r.ConcurrentWrites(); got != 96000 {
		t.Fatalf("ConcurrentWrites = %g", got)
	}
}

func TestResourceModelDegenerate(t *testing.T) {
	r := ResourceModel{Stages: 1, SlotsPerStage: 1, Utilization: 1}
	if r.WriteRate() != 0 || r.TotalRate() != 0 {
		t.Fatal("zero durations/ratios should yield zero rates")
	}
}

func BenchmarkTableInsertDelete(b *testing.B) {
	tb := NewTable(3, 64000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := uint32(i) % 50000
		_ = tb.Insert(k, uint64(i))
		tb.Delete(k, uint64(i))
	}
}

func BenchmarkTableLookup(b *testing.B) {
	tb := NewTable(3, 64000)
	for k := uint32(0); k < 1000; k++ {
		_ = tb.Insert(k, 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Lookup(uint32(i) % 2000)
	}
}

func TestScanVisitsLiveEntries(t *testing.T) {
	tbl := NewTable(2, 8)
	want := map[uint32]uint64{3: 1, 9: 2, 27: 3}
	for k, v := range want {
		if err := tbl.Insert(k, v); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Delete(9, 2)
	delete(want, 9)
	got := make(map[uint32]uint64)
	tbl.Scan(func(k uint32, v uint64) { got[k] = v })
	if len(got) != len(want) {
		t.Fatalf("Scan saw %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Scan[%d] = %d, want %d", k, got[k], v)
		}
	}
}
