// Package lincheck verifies that a recorded operation history is
// linearizable with respect to per-key register semantics — the
// correctness property Harmonia promises to preserve (§7.1: a read
// sees all writes that finished before it started, and never sees
// uncommitted data).
//
// Linearizability is compositional, so the history is checked key by
// key. The history is bucketed by key in linear passes — a count
// through an open-addressed key table, then a stable scatter — and is
// never sorted as a whole.
//
// Every write the harness records carries a unique value, so every read
// names the write it saw. For a key whose writes all carry distinct
// positive values that makes the register decidable without search
// (Gibbons & Korach, Testing Shared Memories, SIAM J. Comput. 1997):
// each write forms a cluster with the reads of its value, reads of 0
// join a virtual initial write at −∞, and the key is linearizable iff
// no read returns before its write was invoked and the clusters' zones
// are ordered (see zones). Such a key is decided in O(n log n) for any
// n: no op limit, no state limit, never undecided.
//
// A key with a delete (a negative value, after which a read of 0 no
// longer names one write) or a repeated write value falls back to a
// Wing & Gong search memoised on (linearized set, last write) and
// bounded by Config — the only path that can leave a key undecided.
//
// Operations that never received a response (client timeouts) are
// pending: a pending write may take effect at any point after its
// invocation or not at all; pending reads impose no constraints and are
// dropped.
package lincheck

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Op is one operation in a history. Timestamps are arbitrary units
// (the harness uses simulated nanoseconds); Return < 0 marks an
// operation with no response (pending at history end). Key is as wide
// as the switch's object ID.
//
// Values: writes carry a unique positive Value (or a unique negative
// value for deletes). Reads carry the observed Value, with 0 meaning
// "not found". A read of 0 matches both the initial state and any
// deleted state.
type Op struct {
	Invoke int64
	Return int64
	Value  int64
	Key    uint32
	Write  bool
}

// Pending reports whether the op never returned.
func (o Op) Pending() bool { return o.Return < 0 }

// Result is the checker's verdict.
type Result struct {
	// Ok reports linearizability. Only meaningful when Decided.
	Ok bool
	// Decided is false when the search for a key with a delete or a
	// repeated write value exceeded Config limits. Every other key is
	// always decided.
	Decided bool
	// Key identifies the offending key when !Ok; of several, the
	// smallest.
	Key uint32
	// Reason describes the violation or limit.
	Reason string
}

// Config bounds the search, which only keys with a delete or a
// repeated write value take.
type Config struct {
	// MaxOpsPerKey rejects absurdly contended keys rather than
	// searching forever. 0 means the default (512).
	MaxOpsPerKey int
	// StateLimit bounds visited memo states per key. 0 means the
	// default (4M).
	StateLimit int
}

func (c Config) maxOps() int {
	if c.MaxOpsPerKey > 0 {
		return c.MaxOpsPerKey
	}
	return 512
}

func (c Config) stateLimit() int {
	if c.StateLimit > 0 {
		return c.StateLimit
	}
	return 4 << 20
}

// Check verifies the full history with default limits.
func Check(ops []Op) Result { return CheckConfig(ops, Config{}) }

// CheckConfig verifies the full history. When several keys fail, the
// verdict names the smallest.
func CheckConfig(ops []Op, cfg Config) Result {
	p, res := partition(ops)
	if !res.Ok {
		return res
	}
	var c checker
	start := int32(0)
	for g, key := range p.keys {
		end := p.ends[g]
		at := p.idx[start:end]
		start = end
		// Once a key has failed, only a smaller one can change the
		// verdict.
		if !res.Ok && key > res.Key {
			continue
		}
		if r := c.checkKey(key, ops, at, cfg); !r.Ok || !r.Decided {
			res = r
		}
	}
	return res
}

// byKey is a history grouped by key: group g holds the ops of keys[g],
// whose indexes in the history are idx[ends[g-1]:ends[g]], ascending.
type byKey struct {
	idx  []int32
	keys []uint32
	ends []int32
}

// partition groups the ops worth checking by key — pending reads
// constrain nothing and are left out — in two linear passes: one
// numbers the keys in order of first appearance and counts their ops,
// the other scatters every op's index to its key's range, stably. It
// fails on the first op, in recorded order, that returns before its
// invocation.
func partition(ops []Op) (byKey, Result) {
	t := newKeyTable(len(ops) / 8)
	group := make([]int32, len(ops))
	for i, o := range ops {
		if !o.Pending() && o.Return < o.Invoke {
			return byKey{}, Result{Ok: false, Decided: true, Key: o.Key,
				Reason: fmt.Sprintf("op returns (%d) before invocation (%d)", o.Return, o.Invoke)}
		}
		if o.Pending() && !o.Write {
			group[i] = -1
			continue
		}
		group[i] = t.add(o.Key)
	}
	// Counts become each group's write cursor, and after the scatter its
	// end.
	var off int32
	for g, n := range t.counts {
		t.counts[g] = off
		off += n
	}
	idx := make([]int32, off)
	for i, g := range group {
		if g >= 0 {
			idx[t.counts[g]] = int32(i)
			t.counts[g]++
		}
	}
	return byKey{idx: idx, keys: t.keys, ends: t.counts}, Result{Ok: true, Decided: true}
}

// keyTable numbers the distinct keys of a history in order of first
// appearance and counts each key's ops: open addressing with linear
// probing, doubled when half full.
type keyTable struct {
	slots  []uint64 // key<<32 | group+1; 0 is empty
	shift  uint     // 64 - log2(len(slots))
	keys   []uint32 // group → key
	counts []int32  // group → ops
}

func newKeyTable(hint int) *keyTable {
	t := &keyTable{}
	t.resize(max(16, 1<<bits.Len(uint(hint))))
	return t
}

// resize rebuilds the table with size slots (a power of two) and room
// for size/2 groups.
func (t *keyTable) resize(size int) {
	t.slots = make([]uint64, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.keys = slices.Grow(t.keys, size/2-len(t.keys))
	t.counts = slices.Grow(t.counts, size/2-len(t.counts))
	for g, key := range t.keys {
		t.slots[t.home(key)] = uint64(key)<<32 | uint64(g+1)
	}
}

// home is the slot holding key, or the free slot where it belongs.
func (t *keyTable) home(key uint32) int {
	mask := len(t.slots) - 1
	i := int(uint64(key) * 0x9E3779B97F4A7C15 >> t.shift)
	for t.slots[i] != 0 && uint32(t.slots[i]>>32) != key {
		i = (i + 1) & mask
	}
	return i
}

// add counts one op of key and returns key's group.
func (t *keyTable) add(key uint32) int32 {
	i := t.home(key)
	if s := t.slots[i]; s != 0 {
		g := int32(uint32(s)) - 1
		t.counts[g]++
		return g
	}
	if 2*(len(t.keys)+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
		i = t.home(key)
	}
	g := int32(len(t.keys))
	t.slots[i] = uint64(key)<<32 | uint64(g+1)
	t.keys = append(t.keys, key)
	t.counts = append(t.counts, 1)
	return g
}

// checker carries the scratch one CheckConfig call reuses from key to
// key: a history has tens of thousands of keys with a handful of ops
// each, and fresh scratch per key would be most of the checker's
// garbage. None of it outlives the call.
type checker struct {
	// The zone test's clusters and zones.
	clusters  []cluster
	fwd, back []zone

	// The search's ops, linearized set and memo tables.
	keyOps []Op
	mask   []uint64
	word   map[memo[uint64]]struct{}    // keys of up to 64 ops
	array  map[memo[[8]uint64]]struct{} // up to 512, the default bound
}

// checkKey decides the ops of one key, ops[at[0]], ops[at[1]], ….
func (c *checker) checkKey(key uint32, ops []Op, at []int32, cfg Config) Result {
	if ok, decided := c.zones(ops, at); decided {
		if ok {
			return Result{Ok: true, Decided: true}
		}
		return noLinearization(key, len(at))
	}
	// The search tries candidates in invocation order, ties in recorded
	// order.
	keyOps := slices.Grow(c.keyOps[:0], len(at))
	for _, i := range at {
		keyOps = append(keyOps, ops[i])
	}
	c.keyOps = keyOps
	slices.SortStableFunc(keyOps, func(a, b Op) int { return cmp.Compare(a.Invoke, b.Invoke) })
	return c.searchKey(key, keyOps, cfg)
}

func noLinearization(key uint32, n int) Result {
	return Result{Ok: false, Decided: true, Key: key,
		Reason: fmt.Sprintf("no linearization for %d ops on key %d", n, key)}
}

// cluster is a write and the reads that returned its value.
type cluster struct {
	value       int64
	inv         int64 // the write's invocation
	first, last int64 // the cluster's earliest return and latest invocation
}

// zone is a closed interval of time.
type zone struct{ lo, hi int64 }

// zones decides the ops of a key, ops[at[0]], ops[at[1]], …, if its
// writes all carry distinct positive values, and reports decided ==
// false for any other key.
//
// A linearization places each cluster contiguously, its write first,
// so the key is linearizable iff no read returns before its write was
// invoked and the clusters can be ordered so that no op of a later one
// returned before an op of an earlier one was invoked. Reads of 0 form
// the cluster of a virtual initial write at −∞; a write that never
// returned returns at +∞, so unless a read saw it its zone reaches +∞
// and constrains nothing — it need not take effect. Cluster X must
// precede Y iff X's earliest return is before Y's latest invocation,
// and that order is acyclic iff it has no 2-cycle: with [first return,
// last invocation] a forward zone when first < last and [last
// invocation, first return] a backward zone otherwise, iff no two
// forward zones overlap and no backward zone lies strictly inside a
// forward one. Intervals of ops are closed — an op returning at the
// instant another is invoked is concurrent with it — so zones that only
// touch do not conflict.
func (c *checker) zones(ops []Op, at []int32) (ok, decided bool) {
	cls := c.clusters[:0]
	for _, i := range at {
		if w := &ops[i]; w.Write {
			if w.Value <= 0 {
				return false, false // a delete
			}
			ret := w.Return
			if w.Pending() {
				ret = math.MaxInt64
			}
			cls = append(cls, cluster{value: w.Value, inv: w.Invoke, first: ret, last: w.Invoke})
		}
	}
	c.clusters = cls
	slices.SortFunc(cls, func(a, b cluster) int { return cmp.Compare(a.value, b.value) })
	for i := 1; i < len(cls); i++ {
		if cls[i].value == cls[i-1].value {
			return false, false // a repeated write value
		}
	}
	initial := int64(math.MinInt64) // the latest invocation of a read of 0
	for _, i := range at {
		r := &ops[i]
		switch {
		case r.Write:
			continue
		case r.Value == 0:
			initial = max(initial, r.Invoke)
			continue
		}
		// The cluster of the read's value, by bisection.
		lo, hi := 0, len(cls)
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); cls[m].value < r.Value {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo == len(cls) || cls[lo].value != r.Value || r.Return < cls[lo].inv {
			return false, true // a value no write wrote, or read before it was written
		}
		cl := &cls[lo]
		cl.first, cl.last = min(cl.first, r.Return), max(cl.last, r.Invoke)
	}
	fwd, back := c.fwd[:0], c.back[:0]
	if initial > math.MinInt64 {
		fwd = append(fwd, zone{math.MinInt64, initial})
	}
	for _, cl := range cls {
		if cl.first < cl.last {
			fwd = append(fwd, zone{cl.first, cl.last})
		} else {
			back = append(back, zone{cl.last, cl.first})
		}
	}
	c.fwd, c.back = fwd, back
	slices.SortFunc(fwd, func(a, b zone) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(fwd); i++ {
		if fwd[i].lo < fwd[i-1].hi {
			return false, true
		}
	}
	// The forward zones are now disjoint, so the only one that can hold a
	// backward zone is the last to open before it does.
	for _, b := range back {
		i, _ := slices.BinarySearchFunc(fwd, b.lo, func(z zone, t int64) int { return cmp.Compare(z.lo, t) })
		if i > 0 && b.hi < fwd[i-1].hi {
			return false, true
		}
	}
	return true, true
}

// memo is one visited search state: the set of linearized ops and the
// last write among them. M holds the set in the narrowest comparable
// form that fits the key's op count, so recording a state builds no
// byte slice and no string.
type memo[M comparable] struct {
	mask M
	last int32 // index of the last linearized write, -1 initially
}

func packWord(m []uint64) uint64 { return m[0] }

func packArray(m []uint64) (a [8]uint64) {
	copy(a[:], m)
	return a
}

// packString is the unbounded form, for keys above 512 ops (reachable
// only with a raised Config.MaxOpsPerKey).
func packString(m []uint64) string {
	b := make([]byte, 0, 8*len(m))
	for _, v := range m {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return string(b)
}

// recycled empties a memo table for the next key. A table that one
// contended key blew up is dropped instead: clearing costs its size,
// and the next thousand keys need a few entries each.
func recycled[K comparable](m map[K]struct{}) map[K]struct{} {
	if m == nil || len(m) > 1<<12 {
		return make(map[K]struct{})
	}
	clear(m)
	return m
}

// searchKey runs the Wing & Gong search over one key's ops, sorted by
// invocation.
func (c *checker) searchKey(key uint32, ops []Op, cfg Config) Result {
	if len(ops) > cfg.maxOps() {
		return Result{Decided: false, Key: key,
			Reason: fmt.Sprintf("key has %d ops, above limit %d", len(ops), cfg.maxOps())}
	}
	words := (len(ops) + 63) / 64
	if cap(c.mask) < words {
		c.mask = make([]uint64, words)
	}
	c.mask = c.mask[:words]
	clear(c.mask)
	switch {
	case words == 1:
		c.word = recycled(c.word)
		return runSearch(key, ops, cfg, c.mask, c.word, packWord)
	case words <= 8:
		c.array = recycled(c.array)
		return runSearch(key, ops, cfg, c.mask, c.array, packArray)
	default:
		return runSearch(key, ops, cfg, c.mask, make(map[memo[string]]struct{}), packString)
	}
}

// search is the state of one key's Wing & Gong search.
type search[M comparable] struct {
	ops     []Op
	mask    []uint64 // linearized set, bit i = ops[i]
	pack    func([]uint64) M
	visited map[memo[M]]struct{}
	states  int
	limit   int
	over    bool // the state limit was hit; unwind without a verdict
}

func runSearch[M comparable](key uint32, ops []Op, cfg Config, mask []uint64,
	visited map[memo[M]]struct{}, pack func([]uint64) M) Result {
	s := search[M]{ops: ops, mask: mask, pack: pack, visited: visited, limit: cfg.stateLimit()}
	completed := 0
	for _, o := range ops {
		if !o.Pending() {
			completed++
		}
	}
	switch found := s.dfs(-1, completed); {
	case found:
		return Result{Ok: true, Decided: true}
	case s.over:
		return Result{Decided: false, Key: key, Reason: "state limit exceeded"}
	default:
		return noLinearization(key, len(ops))
	}
}

func (s *search[M]) has(i int) bool { return s.mask[i/64]&(1<<(i%64)) != 0 }

// valueOf is the register state after the write at index last: -1 is
// the initial state, and both it and a delete read as "missing" (0).
func (s *search[M]) valueOf(last int) int64 {
	if last < 0 {
		return 0
	}
	return max(s.ops[last].Value, 0)
}

// dfs reports whether the remaining completed ops can be linearized
// from the current state. A false return with s.over set means the
// search gave up, not that it failed.
func (s *search[M]) dfs(last, remaining int) bool {
	if remaining == 0 {
		return true
	}
	sk := memo[M]{mask: s.pack(s.mask), last: int32(last)}
	if _, seen := s.visited[sk]; seen {
		return false
	}
	s.visited[sk] = struct{}{}
	s.states++
	if s.states > s.limit {
		s.over = true
		return false
	}
	// Earliest return among unlinearized completed ops bounds
	// which ops may linearize next.
	minReturn := int64(1<<63 - 1)
	for i, o := range s.ops {
		if !s.has(i) && !o.Pending() && o.Return < minReturn {
			minReturn = o.Return
		}
	}
	for i, o := range s.ops {
		if s.has(i) || o.Invoke > minReturn {
			continue
		}
		next, rem := last, remaining
		if o.Write {
			next = i
		} else if o.Value != s.valueOf(last) {
			continue // a read must observe the current state
		}
		if !o.Pending() {
			rem--
		}
		s.mask[i/64] |= 1 << (i % 64)
		if s.dfs(next, rem) {
			return true
		}
		if s.over {
			return false
		}
		s.mask[i/64] &^= 1 << (i % 64)
	}
	return false
}
