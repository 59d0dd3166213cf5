package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"harmonia/internal/lincheck"
	"harmonia/internal/wire"
	"harmonia/internal/workload"
)

// recorder captures the operation history for linearizability
// checking in fixed-size chunks: an append-only arena, so recording an
// op never re-copies the accumulated history the way a single growing
// slice would, and the slot index arithmetic stays two shifts.
//
// A chunk holds 16-byte records, half a lincheck.Op: the history is
// most of a checked run's heap. An op outside the record's widths is
// kept exactly, as a full Op in the boxed side map, and its record is
// marked boxed, so every history stays representable.
type recorder struct {
	chunks []recChunk
	boxed  map[int]lincheck.Op
	n      int
	// perSlot counts the records of each routing slot's keys, so that a
	// group's share of the history is gathered in one pass into a slice
	// of its exact size.
	perSlot [wire.NumSlots]int
}

// recChunk holds up to recorderChunkSize records; base is the invoke
// time of its first.
type recChunk struct {
	recs []record
	base int64
}

// record is one op packed into 16 bytes: Invoke is the chunk's base
// plus off, Return is Invoke plus the latency in lat's low 31 bits
// (recPending for a pending op), and lat's top bit is the write flag.
// A boxed record (recBoxed) keeps only its key; the op is in the side map.
type record struct {
	key   uint32
	value int32 // a write's value (negative: a delete) or a read's observation
	off   uint32
	lat   uint32
}

const (
	recorderChunkShift = 12
	recorderChunkSize  = 1 << recorderChunkShift

	recWrite   = 1 << 31
	recPending = recWrite - 1 // lat sentinel: no response yet
	recBoxed   = recWrite - 2 // lat sentinel: the op is in the side map
)

func newRecorder() *recorder { return &recorder{} }

// add appends one op and returns its slot index. A chunk's first op
// sets the chunk's base.
func (r *recorder) add(op lincheck.Op) int {
	ci := r.n >> recorderChunkShift
	if ci == len(r.chunks) {
		r.chunks = append(r.chunks, recChunk{make([]record, 0, recorderChunkSize), op.Invoke})
	}
	r.chunks[ci].recs = append(r.chunks[ci].recs, record{})
	r.perSlot[wire.SlotOf(wire.ObjectID(op.Key))]++
	idx := r.n
	r.n++
	r.put(idx, op)
	return idx
}

// put stores op in slot idx: packed when it fits the record's widths,
// boxed otherwise. Offsets are differences modulo 2⁶⁴, and op adds them
// back the same way, so a packed op comes back exactly.
func (r *recorder) put(idx int, op lincheck.Op) {
	ch := &r.chunks[idx>>recorderChunkShift]
	rec := &ch.recs[idx&(recorderChunkSize-1)]
	if rec.lat == recBoxed {
		delete(r.boxed, idx)
	}
	off := uint64(op.Invoke) - uint64(ch.base)
	lat := uint64(op.Return) - uint64(op.Invoke)
	latFits := lat < recBoxed
	if op.Return == -1 {
		lat, latFits = recPending, true
	}
	if off <= math.MaxUint32 && latFits && op.Value == int64(int32(op.Value)) {
		if op.Write {
			lat |= recWrite
		}
		*rec = record{key: op.Key, value: int32(op.Value), off: uint32(off), lat: uint32(lat)}
		return
	}
	if r.boxed == nil {
		r.boxed = make(map[int]lincheck.Op)
	}
	r.boxed[idx] = op
	*rec = record{key: op.Key, lat: recBoxed}
}

// op unpacks the record at position i of chunk ci.
func (r *recorder) op(ci, i int) lincheck.Op {
	ch := &r.chunks[ci]
	rec := ch.recs[i]
	if rec.lat == recBoxed {
		return r.boxed[ci<<recorderChunkShift|i]
	}
	op := lincheck.Op{
		Key: rec.key, Value: int64(rec.value), Write: rec.lat&recWrite != 0,
		Invoke: ch.base + int64(rec.off), Return: -1,
	}
	if lat := rec.lat &^ recWrite; lat != recPending {
		op.Return = op.Invoke + int64(lat)
	}
	return op
}

// all flattens the history into one slice (checker input; cold path).
func (r *recorder) all() []lincheck.Op {
	out := make([]lincheck.Op, 0, r.n)
	for ci, ch := range r.chunks {
		for i := range ch.recs {
			out = append(out, r.op(ci, i))
		}
	}
	return out
}

// invoke registers an operation start and returns its slot index.
func (r *recorder) invoke(key wire.ObjectID, write bool, value int64, at int64) int {
	return r.add(lincheck.Op{
		Key: uint32(key), Write: write, Value: value, Invoke: at, Return: -1,
	})
}

// ret completes the op in slot idx. Reads record the observed value.
func (r *recorder) ret(idx int, at int64, observed int64) {
	op := r.op(idx>>recorderChunkShift, idx&(recorderChunkSize-1))
	op.Return = at
	if !op.Write {
		op.Value = observed
	}
	r.put(idx, op)
}

// preload records an instantaneous write at time 0, representing data
// installed before the run.
func (r *recorder) preload(key wire.ObjectID, value int64) {
	r.add(lincheck.Op{Key: uint32(key), Write: true, Value: value, Invoke: 0, Return: 0})
}

// History returns the recorded operations.
func (c *Cluster) History() []lincheck.Op {
	return c.hist.all()
}

// CheckLinearizability verifies the recorded history.
func (c *Cluster) CheckLinearizability() lincheck.Result {
	return lincheck.Check(c.hist.all())
}

// CheckLinearizabilityGroup verifies the slice of the recorded history
// owned by replica group g. Because the key space is partitioned and
// linearizability is compositional, each group's history stands on its
// own — this is the per-shard verdict a sharded deployment monitors.
// Ownership follows the front-end's current slot table, so a migrated
// key's entire history (including operations served by its old group
// before the handoff) is checked as one piece in its new group's
// slice, never split across verdicts.
func (c *Cluster) CheckLinearizabilityGroup(g int) lincheck.Result {
	if g < 0 || g >= len(c.groups) {
		return lincheck.Result{Reason: fmt.Sprintf("group %d out of range", g)}
	}
	var owned [wire.NumSlots]bool
	for slot, og := range c.SlotTable() {
		owned[slot] = og == g
	}
	return lincheck.Check(c.hist.gather(&owned))
}

// CheckLinearizabilityKey verifies the slice of the recorded history
// touching a single key. The whole-history check already decides every
// key on its own; this one narrows the check, and the key a failure
// reports, to one register — a promoted hot key's operations span
// several replica groups, so no per-group verdict isolates it.
func (c *Cluster) CheckLinearizabilityKey(key string) lincheck.Result {
	id := wire.HashKey(key)
	var slot [wire.NumSlots]bool
	slot[wire.SlotOf(id)] = true
	ops := slices.DeleteFunc(c.hist.gather(&slot), func(o lincheck.Op) bool { return o.Key != uint32(id) })
	return lincheck.Check(ops)
}

// gather copies the records of keys in the given routing slots, in
// recorded order.
func (r *recorder) gather(slots *[wire.NumSlots]bool) []lincheck.Op {
	n := 0
	for slot, in := range slots {
		if in {
			n += r.perSlot[slot]
		}
	}
	out := make([]lincheck.Op, 0, n)
	for ci, ch := range r.chunks {
		for i, rec := range ch.recs {
			if slots[wire.SlotOf(wire.ObjectID(rec.key))] {
				out = append(out, r.op(ci, i))
			}
		}
	}
	return out
}

// --- key generators (thin adapters over internal/workload) ---

func newUniformGen(n int, rng *rand.Rand) keyGen { return workload.NewUniform(n, rng) }

func newZipfGen(n int, theta float64, rng *rand.Rand) keyGen {
	return workload.NewZipfianTheta(n, theta, rng)
}
