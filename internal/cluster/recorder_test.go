package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"harmonia/internal/lincheck"
	"harmonia/internal/wire"
)

// TestRecordSize pins the record the cluster keeps per operation: the
// recorded history is most of a checked run's heap.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n != 16 {
		t.Fatalf("record is %d bytes, want 16", n)
	}
}

// The fuzz stream's edge values: every field at and one past the
// widths a record packs.
var (
	fuzzRecValues = []int64{
		0, 1, -1, 42, -42, // -42 is a delete
		math.MaxInt32, math.MaxInt32 + 1, math.MinInt32, math.MinInt32 - 1,
		math.MaxInt64, math.MinInt64, 1 << 40,
	}
	fuzzRecKeys = []uint32{0, 1, math.MaxUint32, 0x9E3779B9, 12345}
)

func fuzzRecKey(a byte) uint32 {
	if int(a) < len(fuzzRecKeys) {
		return fuzzRecKeys[a]
	}
	return uint32(a) * 2654435761 // spread over the routing slots
}

// FuzzRecorderAgainstSlice drives the recorder and a plain []lincheck.Op
// through the same invoke/ret/preload stream, four bytes a step, and
// checks that all, gather over random slot sets and the per-slot counts
// match the slice: a packed record and a boxed one must both give back
// exactly the op that was stored, and the side map holds the boxed
// records' ops and nothing else.
//
//	kind%4 == 0  invoke: key a, write b&1, value b>>1, time c (the last
//	             invoke, plus 1 or 977, the chunk base plus 2³²−1 or
//	             2³², one before the base, 0, −1, or either int64 end)
//	kind%4 == 1  ret of the a-th latest op: observed value b, time c
//	             (the invoke plus 0, 1, the largest packed latency, the
//	             two sentinels, 2³¹ or 2³²; the invoke minus 1; or −1)
//	kind%4 == 2  preload: key a, value b
//	kind%4 == 3  burst: a<<4|b&15 invokes c+1 ns apart, every other one
//	             returned, to carry the history across chunks
func FuzzRecorderAgainstSlice(f *testing.F) {
	f.Add([]byte{0, 5, 0, 1, 1, 0, 3, 1, 2, 7, 4, 0, 1, 0, 1, 0})
	// Values at each int32 edge and one past it, written and observed.
	f.Add([]byte{0, 1, 11, 1, 0, 2, 13, 1, 0, 3, 15, 1, 0, 4, 17, 1,
		0, 5, 0, 1, 1, 0, 5, 0, 0, 6, 0, 1, 1, 0, 6, 0, 0, 7, 0, 1, 1, 0, 7, 0,
		0, 8, 0, 1, 1, 0, 8, 0, 0, 9, 9, 1, 1, 0, 4, 1})
	// Invokes at the chunk base plus 2³²−1 and 2³², and before it.
	f.Add([]byte{0, 20, 0, 2, 0, 21, 1, 3, 0, 22, 0, 4, 0, 23, 1, 5,
		1, 0, 0, 0, 1, 1, 0, 0, 1, 2, 0, 0, 1, 3, 0, 1})
	// Latencies at the largest packed value, the sentinels and beyond,
	// a negative return, and a ret whose observed value boxes a packed
	// read and a second one that packs it again.
	f.Add([]byte{0, 30, 0, 1, 1, 0, 0, 2, 0, 31, 0, 1, 1, 0, 0, 3,
		0, 32, 0, 1, 1, 0, 0, 4, 0, 33, 0, 1, 1, 0, 0, 5, 0, 34, 0, 1, 1, 0, 0, 6,
		0, 35, 0, 1, 1, 0, 0, 7, 0, 36, 0, 1, 1, 0, 0, 8, 0, 37, 0, 1, 1, 0, 9, 1,
		0, 38, 0, 1, 1, 0, 10, 1, 1, 0, 3, 1})
	// Negative delete IDs, ops still pending at the end, and preloads
	// behind a chunk base set by traffic.
	f.Add([]byte{0, 40, 9, 2, 0, 41, 3, 1, 0, 42, 8, 1, 1, 2, 0, 1,
		2, 43, 2, 0, 2, 1, 10, 0, 2, 2, 7, 0, 0, 44, 0, 1})
	// Bursts across chunk boundaries with edge ops between them, a
	// preload starting a chunk, and the int64 ends.
	f.Add([]byte{3, 255, 15, 0, 0, 50, 7, 3, 2, 51, 5, 0, 3, 1, 1, 9,
		0, 52, 0, 8, 0, 53, 1, 9, 1, 0, 0, 8, 3, 0, 5, 0, 2, 54, 3, 0, 1, 1, 6, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newRecorder()
		var oracle []lincheck.Op
		invoke := func(key uint32, write bool, value, at int64) {
			if idx := r.invoke(wire.ObjectID(key), write, value, at); idx != len(oracle) {
				t.Fatalf("invoke %d returned slot %d", len(oracle), idx)
			}
			oracle = append(oracle, lincheck.Op{Key: key, Write: write, Value: value, Invoke: at, Return: -1})
		}
		ret := func(idx int, at, observed int64) {
			r.ret(idx, at, observed)
			oracle[idx].Return = at
			if !oracle[idx].Write {
				oracle[idx].Value = observed
			}
		}
		var last int64
		for ; len(data) >= 4 && len(oracle) < 4*recorderChunkSize; data = data[4:] {
			kind, a, b, c := data[0], data[1], data[2], data[3]
			switch kind % 4 {
			case 0:
				base := last
				if n := len(oracle); n%recorderChunkSize != 0 {
					base = oracle[n&^(recorderChunkSize-1)].Invoke
				}
				times := []int64{last, last + 1, last + 977, base + 1<<32 - 1, base + 1<<32,
					base - 1, 0, -1, math.MaxInt64, math.MinInt64}
				at := times[int(c)%len(times)]
				invoke(fuzzRecKey(a), b&1 != 0, fuzzRecValues[int(b>>1)%len(fuzzRecValues)], at)
				last = at
			case 1:
				if len(oracle) == 0 {
					continue
				}
				idx := len(oracle) - 1 - int(a)%len(oracle)
				inv := oracle[idx].Invoke
				times := []int64{inv, inv + 1, inv + recBoxed - 1, inv + recBoxed, inv + recPending,
					inv + 1<<31, inv + 1<<32, inv - 1, -1}
				ret(idx, times[int(c)%len(times)], fuzzRecValues[int(b)%len(fuzzRecValues)])
			case 2:
				r.preload(wire.ObjectID(fuzzRecKey(a)), fuzzRecValues[int(b)%len(fuzzRecValues)])
				oracle = append(oracle, lincheck.Op{Key: fuzzRecKey(a), Write: true,
					Value: fuzzRecValues[int(b)%len(fuzzRecValues)]})
			case 3:
				first := len(oracle)
				for i := range int(a)<<4 | int(b)&15 {
					last += int64(c) + 1
					invoke(uint32(i)*2654435761, i%3 == 0, int64(len(oracle)+1), last)
				}
				for i := first; i < len(oracle); i += 2 {
					ret(i, oracle[i].Invoke+int64(i%1000), int64(i))
				}
			}
		}

		if r.n != len(oracle) {
			t.Fatalf("recorder holds %d ops, slice %d", r.n, len(oracle))
		}
		if got := r.all(); !slices.Equal(got, oracle) {
			for i := range oracle {
				if got[i] != oracle[i] {
					t.Fatalf("all()[%d] = %+v, want %+v", i, got[i], oracle[i])
				}
			}
			t.Fatalf("all() has %d ops, want %d", len(got), len(oracle))
		}
		boxed := 0
		for _, ch := range r.chunks {
			for _, rec := range ch.recs {
				if rec.lat == recBoxed {
					boxed++
				}
			}
		}
		if boxed != len(r.boxed) {
			t.Fatalf("%d records are boxed, the side map holds %d ops", boxed, len(r.boxed))
		}
		var perSlot [wire.NumSlots]int
		for _, op := range oracle {
			perSlot[wire.SlotOf(wire.ObjectID(op.Key))]++
		}
		if perSlot != r.perSlot {
			t.Fatal("per-slot counts differ from the slice's")
		}
		rng := rand.New(rand.NewSource(int64(len(oracle))))
		for range 4 {
			var slots [wire.NumSlots]bool
			for s := range slots {
				slots[s] = rng.Intn(4) == 0
			}
			if len(oracle) > 0 { // at least one slot that has ops
				slots[wire.SlotOf(wire.ObjectID(oracle[rng.Intn(len(oracle))].Key))] = true
			}
			want := slices.DeleteFunc(slices.Clone(oracle), func(op lincheck.Op) bool {
				return !slots[wire.SlotOf(wire.ObjectID(op.Key))]
			})
			got := r.gather(&slots)
			if !slices.Equal(got, want) {
				t.Fatalf("gather: %d ops, want %d, or they differ", len(got), len(want))
			}
			if cap(got) != len(want) {
				t.Fatalf("gather sized its slice %d for %d ops", cap(got), len(want))
			}
		}
	})
}
