package cluster

import (
	"fmt"
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
type recorder struct {
	chunks [][]lincheck.Op // every chunk is capped at recorderChunkSize
	n      int
	// perSlot counts the records of each routing slot's keys, so that a
	// group's share of the history is gathered in one pass into a slice
	// of its exact size.
	perSlot [wire.NumSlots]int
}

const (
	recorderChunkShift = 12
	recorderChunkSize  = 1 << recorderChunkShift
)

func newRecorder() *recorder { return &recorder{} }

// add appends one record and returns its slot index.
func (r *recorder) add(op lincheck.Op) int {
	ci := r.n >> recorderChunkShift
	if ci == len(r.chunks) {
		r.chunks = append(r.chunks, make([]lincheck.Op, 0, recorderChunkSize))
	}
	r.chunks[ci] = append(r.chunks[ci], op)
	r.perSlot[wire.SlotOf(wire.ObjectID(op.Key))]++
	idx := r.n
	r.n++
	return idx
}

// at returns the record in slot idx.
func (r *recorder) at(idx int) *lincheck.Op {
	return &r.chunks[idx>>recorderChunkShift][idx&(recorderChunkSize-1)]
}

// all flattens the history into one slice (checker input; cold path).
func (r *recorder) all() []lincheck.Op {
	out := make([]lincheck.Op, 0, r.n)
	for _, c := range r.chunks {
		out = append(out, c...)
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
	op := r.at(idx)
	op.Return = at
	if !op.Write {
		op.Value = observed
	}
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
	for _, ch := range r.chunks {
		for i := range ch {
			if slots[wire.SlotOf(wire.ObjectID(ch[i].Key))] {
				out = append(out, ch[i])
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
