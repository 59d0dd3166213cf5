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
// A slot's valid bit is kept apart from its registers, one bit per
// slot. The dirty set is nearly empty by design (a few dozen pending
// writes in 3 × 64 000 slots), so almost every probe finds a free slot:
// testing the bit touches an 8 KB bitmap that stays in cache instead
// of a random 16-byte slot of a megabyte array, and a sweep visits the
// set bits instead of every slot. The bitmap stands in front of the
// model and changes nothing about it: same hash, same placement, same
// (stage, index) visiting order.
type RegisterArray struct {
	slots []slot
	occ   []uint64 // bit i set: slots[i] holds an entry
}

type slot struct {
	key uint32 // object ID
	val uint64 // largest pending sequence number (per-epoch counter)
}

// NewRegisterArray allocates an array with m slots.
func NewRegisterArray(m int) *RegisterArray {
	return &RegisterArray{slots: make([]slot, m), occ: make([]uint64, (m+63)/64)}
}

func (r *RegisterArray) used(i int) bool { return r.occ[i>>6]&(1<<uint(i&63)) != 0 }
func (r *RegisterArray) claim(i int)     { r.occ[i>>6] |= 1 << uint(i&63) }
func (r *RegisterArray) free(i int)      { r.occ[i>>6] &^= 1 << uint(i&63) }

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
func (r *RegisterArray) Size() int { return len(r.slots) }

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
	return int(hash32(key, s.seed) % uint32(len(s.arr.slots)))
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
		t.stages[i] = Stage{
			arr: NewRegisterArray(slotsPerStage),
			// Distinct fixed seeds per stage; values are arbitrary
			// odd-ish constants.
			seed: 0x9e3779b9*uint32(i) + 0x7f4a7c15,
		}
	}
	return t
}

// Stages returns the stage count.
func (t *Table) Stages() int { return len(t.stages) }

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
	var claimed *slot
	for i := range t.stages {
		st := &t.stages[i]
		idx := st.index(key)
		if !st.arr.used(idx) {
			if claimed == nil {
				claimed = &st.arr.slots[idx]
				*claimed = slot{key: key, val: seq}
				st.arr.claim(idx)
				t.used++
			}
			continue
		}
		sl := &st.arr.slots[idx]
		if sl.key != key {
			continue
		}
		if claimed != nil {
			// Deduplicate: fold this stale entry into the claim.
			if sl.val > claimed.val {
				claimed.val = sl.val
			}
			st.arr.free(idx)
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
		if idx := st.index(key); st.arr.used(idx) && st.arr.slots[idx].key == key {
			return st.arr.slots[idx].val, true
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
		if idx := st.index(key); st.arr.used(idx) && st.arr.slots[idx].key == key {
			if st.arr.slots[idx].val <= upTo {
				st.arr.free(idx)
				t.used--
				return true
			}
			return false
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
		arr.each(func(j int) {
			if arr.slots[j].val <= commit {
				arr.free(j)
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
		arr.each(func(j int) { fn(arr.slots[j].key, arr.slots[j].val) })
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
		clear(t.stages[i].arr.occ) // a register without its valid bit is never read
	}
	t.used = 0
}

// MemoryBytes reports the register memory the table consumes, using the
// paper's accounting: 32-bit object ID + 32-bit sequence number per
// slot (§6.2: 192K slots → 1.5 MB).
func (t *Table) MemoryBytes() int {
	return t.Capacity() * 8
}
