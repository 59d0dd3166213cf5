package cluster

// pendingTab maps in-flight request IDs to their op records without
// touching the heap on the steady path: open addressing with linear
// probing over power-of-two arrays. Request IDs are assigned
// sequentially from 1 and are scattered by a splitmix64-style mixer —
// identity hashing would lay an open-loop client's whole in-flight
// window out as one contiguous probe run, and the backward-shift
// delete below would then scan the entire window per completion. 0 is
// the empty marker and never a legal request ID; deletion
// backward-shifts the displaced probe run, so lookups never see
// tombstones and the table stays dense no matter how many ops cycle
// through it.
type pendingTab struct {
	keys []uint64 // 0 = empty slot
	vals []*opState
	n    int
}

// pendingTabMinSize is the initial capacity; a closed-loop client has
// one op in flight, an open-loop pool grows as deep as the offered
// backlog.
const pendingTabMinSize = 16

// ptabHash scatters sequential request IDs across the table (the
// 64-bit finalizer from splitmix64).
func ptabHash(req uint64) uint64 {
	req ^= req >> 33
	req *= 0xff51afd7ed558ccd
	req ^= req >> 33
	return req
}

func (t *pendingTab) len() int { return t.n }

// get returns the op record for req, if present.
func (t *pendingTab) get(req uint64) (*opState, bool) {
	if t.n == 0 {
		return nil, false
	}
	mask := uint64(len(t.keys) - 1)
	for i := ptabHash(req) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case req:
			return t.vals[i], true
		case 0:
			return nil, false
		}
	}
}

// put inserts or replaces req's record, growing at 3/4 load (and on
// first use).
func (t *pendingTab) put(req uint64, st *opState) {
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	for i := ptabHash(req) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case 0:
			t.keys[i], t.vals[i] = req, st
			t.n++
			return
		case req:
			t.vals[i] = st
			return
		}
	}
}

func (t *pendingTab) grow() {
	ok, ov := t.keys, t.vals
	t.keys = make([]uint64, max(2*len(ok), pendingTabMinSize))
	t.vals = make([]*opState, len(t.keys))
	t.n = 0
	for i, k := range ok {
		if k != 0 {
			t.put(k, ov[i])
		}
	}
}

// del removes req, reporting whether it was present.
func (t *pendingTab) del(req uint64) bool {
	if t.n == 0 {
		return false
	}
	mask := uint64(len(t.keys) - 1)
	i := ptabHash(req) & mask
	for t.keys[i] != req {
		if t.keys[i] == 0 {
			return false
		}
		i = (i + 1) & mask
	}
	// Backward shift: walk the rest of the probe run and pull every
	// entry whose home slot lies at or before the hole into it, keeping
	// all remaining entries reachable from their home slots.
	j := i
	for {
		j = (j + 1) & mask
		k := t.keys[j]
		if k == 0 {
			break
		}
		if (j-ptabHash(k))&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = k, t.vals[j]
			i = j
		}
	}
	t.keys[i] = 0
	t.vals[i] = nil
	t.n--
	return true
}

// each calls fn for every in-flight record, in table order.
func (t *pendingTab) each(fn func(*opState)) {
	for i, k := range t.keys {
		if k != 0 {
			fn(t.vals[i])
		}
	}
}
