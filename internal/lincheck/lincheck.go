// Package lincheck verifies that a recorded operation history is
// linearizable with respect to per-key register semantics — the
// correctness property Harmonia promises to preserve (§7.1: a read
// sees all writes that finished before it started, and never sees
// uncommitted data).
//
// The checker partitions the history by key (linearizability is
// compositional) and runs a Wing & Gong style search per key with
// memoization on (linearized-set, last-write) states. Operations that
// never received a response (client timeouts) are treated as pending:
// a pending write may take effect at any point after its invocation or
// not at all; pending reads impose no constraints and are dropped.
package lincheck

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// Op is one operation in a history. Timestamps are arbitrary units
// (the harness uses simulated nanoseconds); Return < 0 marks an
// operation with no response (pending at history end).
//
// Values: writes carry a unique positive Value (or a unique negative
// value for deletes). Reads carry the observed Value, with 0 meaning
// "not found". A read of 0 matches both the initial state and any
// deleted state.
type Op struct {
	Key    uint64
	Write  bool
	Value  int64
	Invoke int64
	Return int64
}

// Pending reports whether the op never returned.
func (o Op) Pending() bool { return o.Return < 0 }

// Result is the checker's verdict.
type Result struct {
	// Ok reports linearizability. Only meaningful when Decided.
	Ok bool
	// Decided is false when the search exceeded Config limits.
	Decided bool
	// Key identifies the offending key when !Ok.
	Key uint64
	// Reason describes the violation or limit.
	Reason string
}

// Config bounds the search.
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

// CheckConfig verifies the full history. Keys are checked in ascending
// order, so when several keys fail the verdict names the smallest.
func CheckConfig(ops []Op, cfg Config) Result {
	// One sort both partitions the history by key and puts each key's
	// ops in invocation order, ties in recorded order — the order the
	// search tries candidates in. It runs over 24-byte references, not
	// the ops themselves, and the recorded index makes the order total,
	// so an unstable sort yields the stable result.
	type ref struct {
		key    uint64
		invoke int64
		idx    int
	}
	refs := make([]ref, 0, len(ops))
	for i, o := range ops {
		if !o.Pending() && o.Return < o.Invoke {
			return Result{Ok: false, Decided: true, Key: o.Key,
				Reason: fmt.Sprintf("op returns (%d) before invocation (%d)", o.Return, o.Invoke)}
		}
		if o.Pending() && !o.Write {
			continue // pending reads constrain nothing
		}
		refs = append(refs, ref{o.Key, o.Invoke, i})
	}
	slices.SortFunc(refs, func(a, b ref) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		if a.invoke != b.invoke {
			return cmp.Compare(a.invoke, b.invoke)
		}
		return a.idx - b.idx
	})
	sorted := make([]Op, len(refs))
	for i, r := range refs {
		sorted[i] = ops[r.idx]
	}
	var c checker
	for lo := 0; lo < len(sorted); {
		hi := lo + 1
		for hi < len(sorted) && sorted[hi].Key == sorted[lo].Key {
			hi++
		}
		if res := c.checkKey(sorted[lo:hi], cfg); !res.Ok || !res.Decided {
			return res
		}
		lo = hi
	}
	return Result{Ok: true, Decided: true}
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

// checker carries the scratch one CheckConfig call reuses from key to
// key: a history has tens of thousands of keys with a handful of ops
// each, and a fresh mask and memo table per key was most of the
// checker's garbage.
type checker struct {
	mask  []uint64
	word  map[memo[uint64]]struct{}    // keys of up to 64 ops
	array map[memo[[8]uint64]]struct{} // up to 512, the default bound
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

// checkKey runs the search for one key's ops, sorted by invocation.
func (c *checker) checkKey(ops []Op, cfg Config) Result {
	key := ops[0].Key
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

// search is the Wing & Gong search over one key's ops.
type search[M comparable] struct {
	ops     []Op
	mask    []uint64 // linearized set, bit i = ops[i]
	pack    func([]uint64) M
	visited map[memo[M]]struct{}
	states  int
	limit   int
	over    bool // the state limit was hit; unwind without a verdict
}

func runSearch[M comparable](key uint64, ops []Op, cfg Config, mask []uint64,
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
		return Result{Ok: false, Decided: true, Key: key,
			Reason: fmt.Sprintf("no linearization for %d ops on key %d", len(ops), key)}
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
