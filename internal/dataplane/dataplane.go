// Package dataplane emulates the parts of a programmable switching
// ASIC (e.g. Barefoot Tofino) that Harmonia's conflict-detection module
// uses: per-stage register arrays accessed at line rate, per-stage hash
// functions, and the multi-stage open-addressing hash table of the
// paper's Figure 4.
//
// The emulation enforces the hardware's structural constraints rather
// than merely reproducing functional behaviour:
//
//   - a packet visits stages strictly in order, once;
//   - each stage performs at most one register-array access per packet
//     (one read-modify-write of one slot);
//   - state is partitioned per stage — a stage cannot see another
//     stage's registers.
//
// Anything expressible against this interface is therefore plausibly
// compilable to a real pipeline, which is the point of substituting
// this model for the Tofino ASIC (README, Layout).
package dataplane

import (
	"errors"
	"fmt"
	"math/bits"
)

// RegisterArray is one stage's array of 64-bit registers. Real switch
// stages expose register arrays to the match-action units; Harmonia
// stores an object ID and its pending-write sequence number per slot,
// which fits in two 32-bit registers or one paired 64-bit register.
//
// The model has m slots, but the emulation holds only the occupied
// ones. A slot's valid bit sits in an m-bit occupancy bitmap; the
// registers of an occupied slot sit in a small open-addressed table of
// cells keyed by slot index (linear probing, at most 7/8 full, deletion
// by backward shift, doubling growth). The dirty set is nearly empty by
// design (a few dozen pending writes in 3 × 64 000 slots), so almost
// every probe stops at the bitmap, which stays in cache, and the cells
// of a 3 × 64 000 table start at 36 KB where the registers themselves
// would take 3 MB. None of this changes the model: same hash, same
// placement, same (stage, index) visiting order, and each, and with it
// Scan and SweepStale, walks the bitmap in index order.
type RegisterArray struct {
	m     uint32
	occ   []uint64 // bit i set: slot i holds an entry
	cells []cell   // power-of-two length
	n     int      // occupied cells
	shift uint8    // 32 - log2(len(cells))
}

// cell holds one occupied slot's registers.
type cell struct {
	at  uint32 // slot index + 1; 0 marks a free cell
	key uint32 // object ID
	val uint64 // largest pending sequence number (per-epoch counter)
}

// A table's first stage claims every key whose slot there is free, so
// it holds nearly the whole dirty set: its cells start at 1/32 of its
// slots, at 64 000 slots room for 1 792 entries at 7/8 full, where the
// most any workload keeps pending in one stage is a little over 800
// (the benchmark's rack at its top offered rate). A later stage holds
// only the keys whose slots in every earlier stage were taken, a share
// of them no larger than the first stage's occupancy, so its cells
// start at 1/512 of its slots.
const firstStageShare, laterStageShare = 32, 512

// newRegisterArray allocates an array with m slots whose cell table
// starts with room for cells (at least 8, rounded up to a power of two).
func newRegisterArray(m, cells int) *RegisterArray {
	size := 8
	for size < cells {
		size *= 2
	}
	r := &RegisterArray{m: uint32(m), occ: make([]uint64, (m+63)/64)}
	r.alloc(size)
	return r
}

func (r *RegisterArray) alloc(size int) {
	r.cells = make([]cell, size)
	r.shift = uint8(32 - bits.TrailingZeros(uint(size)))
}

// home is a slot's preferred cell, from its index + 1.
func (r *RegisterArray) home(at uint32) int { return int(at * 0x9E3779B1 >> r.shift) }

func (r *RegisterArray) used(i int) bool { return r.occ[i>>6]&(1<<uint(i&63)) != 0 }

// pos returns the position of occupied slot i's cell.
func (r *RegisterArray) pos(i int) int {
	at, mask := uint32(i)+1, len(r.cells)-1
	for j := r.home(at); ; j = (j + 1) & mask {
		if r.cells[j].at == at {
			return j
		}
	}
}

// claim occupies free slot i with (key, val) and returns its cell.
func (r *RegisterArray) claim(i int, key uint32, val uint64) *cell {
	if 8*(r.n+1) > 7*len(r.cells) {
		r.grow()
	}
	r.occ[i>>6] |= 1 << uint(i&63)
	r.n++
	return r.link(cell{at: uint32(i) + 1, key: key, val: val})
}

// link places a cell at the first free position from its home.
func (r *RegisterArray) link(c cell) *cell {
	mask := len(r.cells) - 1
	j := r.home(c.at)
	for r.cells[j].at != 0 {
		j = (j + 1) & mask
	}
	r.cells[j] = c
	return &r.cells[j]
}

// grow doubles the cell table and re-links what it holds.
func (r *RegisterArray) grow() {
	old := r.cells
	r.alloc(2 * len(old))
	for _, c := range old {
		if c.at != 0 {
			r.link(c)
		}
	}
}

// free empties occupied slot i, whose cell is at position hole.
// Backward shift: walk the rest of the probe run and pull into the hole
// every cell whose home lies at or before it (cyclically), so each
// remaining cell stays reachable from its home.
func (r *RegisterArray) free(i, hole int) {
	mask := len(r.cells) - 1
	for j := hole; ; {
		j = (j + 1) & mask
		c := r.cells[j]
		if c.at == 0 {
			break
		}
		if (j-r.home(c.at))&mask >= (j-hole)&mask {
			r.cells[hole] = c
			hole = j
		}
	}
	r.cells[hole] = cell{}
	r.occ[i>>6] &^= 1 << uint(i&63)
	r.n--
}

// reset empties every slot.
func (r *RegisterArray) reset() {
	clear(r.occ)
	clear(r.cells)
	r.n = 0
}

// each calls fn with the index of every occupied slot, in index order;
// fn may free the slot it is shown.
func (r *RegisterArray) each(fn func(i int)) {
	for w, word := range r.occ {
		for ; word != 0; word &= word - 1 {
			fn(w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// Size returns the slot count.
func (r *RegisterArray) Size() int { return int(r.m) }

// Stage couples a register array with a hash function, mirroring one
// physical pipeline stage used by the dirty-set table.
type Stage struct {
	arr  *RegisterArray
	seed uint32
}

// hash32 is a Murmur3-style finalizer-based hash. Tofino stages provide
// configurable CRC-based hash units; any well-mixed 32-bit hash stands
// in for them.
func hash32(key, seed uint32) uint32 {
	h := key ^ seed
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// index computes this stage's slot index for an object ID.
func (s *Stage) index(key uint32) int {
	return int(hash32(key, s.seed) % s.arr.m)
}

// Table is the multi-stage hash table of Figure 4. Each stage holds one
// register array and its own hash function; an object lives in at most
// one stage's slot at a time.
//
// Operations follow the paper exactly:
//
//   - Insert (write): place the object ID in the first stage whose slot
//     for this object is empty or already holds the object. If every
//     stage's slot is occupied by a different object, the insert fails
//     and the switch drops the write (§6.1).
//   - Search (read): probe every stage; the object is present if any
//     stage's slot holds it.
//   - Delete (write completion): probe every stage and clear the slot
//     holding the object, but only when the completing sequence number
//     is at least the stored one (Algorithm 1, line 6).
type Table struct {
	stages []Stage
	used   int // occupied slots, for stats
}

// ErrTableFull is returned by Insert when no stage has a usable slot
// for the object; the caller (the scheduler) drops the write.
var ErrTableFull = errors.New("dataplane: no free slot in any stage")

// NewTable builds a table with the given number of stages and slots per
// stage. Stage hash seeds differ so that objects colliding in one stage
// are unlikely to collide in the next.
func NewTable(stages, slotsPerStage int) *Table {
	if stages <= 0 || slotsPerStage <= 0 {
		panic(fmt.Sprintf("dataplane: invalid table %dx%d", stages, slotsPerStage))
	}
	t := &Table{stages: make([]Stage, stages)}
	for i := range t.stages {
		share := laterStageShare
		if i == 0 {
			share = firstStageShare
		}
		t.stages[i] = Stage{
			arr: newRegisterArray(slotsPerStage, slotsPerStage/share),
			// Distinct fixed seeds per stage; values are arbitrary
			// odd-ish constants.
			seed: 0x9e3779b9*uint32(i) + 0x7f4a7c15,
		}
	}
	return t
}

// SlotsPerStage returns the per-stage slot count.
func (t *Table) SlotsPerStage() int { return t.stages[0].arr.Size() }

// Capacity returns the total slot count.
func (t *Table) Capacity() int { return len(t.stages) * t.SlotsPerStage() }

// Used returns the number of occupied slots.
func (t *Table) Used() int { return t.used }

// Insert records (key → seq), overwriting the sequence number if the
// key is already present (concurrent writes to one object keep only the
// largest sequence number; the scheduler always inserts increasing
// ones). Returns ErrTableFull when no stage can hold the key.
//
// The single pipeline pass carries one bit of metadata ("claimed"): the
// first stage with an empty slot claims the key, and if a later stage
// turns out to already hold the key (possible when the earlier slot was
// freed by an unrelated deletion since the key last moved in), that
// older entry is cleared as the packet passes it. Because the scheduler
// assigns strictly increasing sequence numbers, the claimed entry is
// always at least as new as the cleared one, so the table never holds
// two live entries for one key.
func (t *Table) Insert(key uint32, seq uint64) error {
	var claimed *cell
	for i := range t.stages {
		st := &t.stages[i]
		idx := st.index(key)
		if !st.arr.used(idx) {
			if claimed == nil {
				claimed = st.arr.claim(idx, key, seq)
				t.used++
			}
			continue
		}
		j := st.arr.pos(idx)
		sl := &st.arr.cells[j]
		if sl.key != key {
			continue
		}
		if claimed != nil {
			// Deduplicate: fold this stale entry into the claim.
			if sl.val > claimed.val {
				claimed.val = sl.val
			}
			st.arr.free(idx, j)
			t.used--
			return nil
		}
		if seq > sl.val {
			sl.val = seq
		}
		return nil
	}
	if claimed != nil {
		return nil
	}
	return ErrTableFull
}

// Lookup probes all stages for key; it returns the stored sequence
// number and whether the key is present.
func (t *Table) Lookup(key uint32) (uint64, bool) {
	for i := range t.stages {
		st := &t.stages[i]
		if idx := st.index(key); st.arr.used(idx) {
			if c := &st.arr.cells[st.arr.pos(idx)]; c.key == key {
				return c.val, true
			}
		}
	}
	return 0, false
}

// Delete removes key if present with stored seq ≤ upTo (the write-
// completion rule: a completion only clears the entry when no newer
// write to the object is still pending). It reports whether an entry
// was removed.
func (t *Table) Delete(key uint32, upTo uint64) bool {
	for i := range t.stages {
		st := &t.stages[i]
		if idx := st.index(key); st.arr.used(idx) {
			if j := st.arr.pos(idx); st.arr.cells[j].key == key {
				if st.arr.cells[j].val > upTo {
					return false
				}
				st.arr.free(idx, j)
				t.used--
				return true
			}
		}
	}
	return false
}

// SweepStale removes every entry whose sequence number is ≤ commit.
// This implements §5.2's stray-entry cleanup ("any stray entries in the
// dirty set can be removed as soon as a WRITE-COMPLETION message with a
// higher sequence number arrives... This removal can also be done
// periodically"). A real pipeline does it incrementally as reads probe
// slots; sweeping is the periodic variant and touches each occupied
// slot once.
func (t *Table) SweepStale(commit uint64) int {
	removed := 0
	for i := range t.stages {
		arr := t.stages[i].arr
		arr.each(func(i int) {
			if j := arr.pos(i); arr.cells[j].val <= commit {
				arr.free(i, j)
				removed++
			}
		})
	}
	t.used -= removed
	return removed
}

// Scan visits every live entry (key, seq). The control plane uses it
// to answer "does the dirty set still hold anything for this routing
// slot?" during a slot handoff — it reads register state the way a
// switch-local CPU would, off the packet path.
func (t *Table) Scan(fn func(key uint32, seq uint64)) {
	for i := range t.stages {
		arr := t.stages[i].arr
		arr.each(func(i int) {
			c := &arr.cells[arr.pos(i)]
			fn(c.key, c.val)
		})
	}
}

// CleanSlotIfStale implements the per-read incremental variant of
// stray-entry removal: given a key that a read probed and found, clear
// it when its sequence number is ≤ commit. Returns true if cleared.
func (t *Table) CleanSlotIfStale(key uint32, commit uint64) bool {
	return t.Delete(key, commit)
}

// Reset clears all slots (switch reboot: register state is soft and is
// lost).
func (t *Table) Reset() {
	for i := range t.stages {
		t.stages[i].arr.reset()
	}
	t.used = 0
}

// MemoryBytes reports the register memory the table consumes, using the
// paper's accounting: 32-bit object ID + 32-bit sequence number per
// slot (§6.2: 192K slots → 1.5 MB).
func (t *Table) MemoryBytes() int {
	return t.Capacity() * 8
}
