package lincheck

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refCheckKey is the per-key search as it stood before the memo key
// became fixed-width, kept verbatim as the reference the differential
// test holds the checker to: a byte slice and a string per search
// state, reflection-based sort, closures and all.
func refCheckKey(key uint64, ops []Op, cfg Config) Result {
	if len(ops) > cfg.maxOps() {
		return Result{Decided: false, Key: key,
			Reason: fmt.Sprintf("key has %d ops, above limit %d", len(ops), cfg.maxOps())}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Invoke < ops[j].Invoke })

	n := len(ops)
	words := (n + 63) / 64
	type stateKey struct {
		mask string
		last int // index of last linearized write, -1 initially
	}
	visited := make(map[stateKey]bool)
	mask := make([]uint64, words)

	var completedLeft int
	for _, o := range ops {
		if !o.Pending() {
			completedLeft++
		}
	}

	set := func(i int) { mask[i/64] |= 1 << (i % 64) }
	unset := func(i int) { mask[i/64] &^= 1 << (i % 64) }
	has := func(i int) bool { return mask[i/64]&(1<<(i%64)) != 0 }
	keyOf := func(last int) stateKey {
		b := make([]byte, words*8)
		for w, v := range mask {
			for k := 0; k < 8; k++ {
				b[w*8+k] = byte(v >> (8 * k))
			}
		}
		return stateKey{mask: string(b), last: last}
	}

	// current register state derived from the last linearized write:
	// -1 → initial missing.
	valueOf := func(last int) int64 {
		if last < 0 {
			return 0
		}
		v := ops[last].Value
		if v < 0 {
			return 0 // delete: state is "missing"
		}
		return v
	}

	states := 0
	var dfs func(last, remaining int) (bool, Result)
	dfs = func(last, remaining int) (bool, Result) {
		if remaining == 0 {
			return true, Result{Ok: true, Decided: true}
		}
		sk := keyOf(last)
		if visited[sk] {
			return false, Result{}
		}
		visited[sk] = true
		states++
		if states > cfg.stateLimit() {
			return false, Result{Decided: false, Key: key, Reason: "state limit exceeded"}
		}
		// Earliest return among unlinearized completed ops bounds
		// which ops may linearize next.
		minReturn := int64(1<<63 - 1)
		for i, o := range ops {
			if !has(i) && !o.Pending() && o.Return < minReturn {
				minReturn = o.Return
			}
		}
		for i, o := range ops {
			if has(i) || o.Invoke > minReturn {
				continue
			}
			if !o.Write {
				// Read must observe the current state.
				cur := valueOf(last)
				if o.Value != cur {
					continue
				}
				set(i)
				ok, res := dfs(last, remaining-1)
				if ok || !res.Decided && res.Reason != "" {
					return ok, res
				}
				unset(i)
				continue
			}
			set(i)
			rem := remaining
			if !o.Pending() {
				rem--
			}
			ok, res := dfs(i, rem)
			if ok || !res.Decided && res.Reason != "" {
				return ok, res
			}
			unset(i)
		}
		return false, Result{}
	}

	ok, res := dfs(-1, completedLeft)
	if ok {
		return Result{Ok: true, Decided: true}
	}
	if !res.Decided && res.Reason != "" {
		return res
	}
	return Result{Ok: false, Decided: true, Key: key,
		Reason: fmt.Sprintf("no linearization for %d ops on key %d", n, key)}
}

// refCheck is the reference for a whole history: CheckConfig's filter,
// a map partition, keys in ascending order (the old loop ranged over
// the map, so which of several failing keys it named was arbitrary).
func refCheck(ops []Op, cfg Config) Result {
	byKey := make(map[uint64][]Op)
	for _, o := range ops {
		if !o.Pending() && o.Return < o.Invoke {
			return Result{Ok: false, Decided: true, Key: o.Key,
				Reason: fmt.Sprintf("op returns (%d) before invocation (%d)", o.Return, o.Invoke)}
		}
		if o.Pending() && !o.Write {
			continue
		}
		byKey[o.Key] = append(byKey[o.Key], o)
	}
	keys := make([]uint64, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if res := refCheckKey(k, byKey[k], cfg); !res.Ok || !res.Decided {
			return res
		}
	}
	return Result{Ok: true, Decided: true}
}

// genHistory simulates clients of an atomic register per key: each op
// gets an invocation, a response and a linearization point between
// them, and the ops take effect in linearization order — linearizable
// by construction. Times are drawn from a small range so that ties are
// common; some writes are deletes, some never return (and then may or
// may not have taken effect), some reads never return.
func genHistory(rng *rand.Rand, keys, opsPerKey, span, maxDur int) []Op {
	type timed struct {
		op  Op
		lin int64
		eff bool
	}
	var all []timed
	val := int64(0)
	for k := 0; k < keys; k++ {
		n := 1 + rng.Intn(opsPerKey)
		for i := 0; i < n; i++ {
			inv := int64(rng.Intn(span))
			dur := int64(1 + rng.Intn(maxDur))
			t := timed{op: Op{Key: uint64(k * 7), Invoke: inv, Return: inv + dur}, eff: true}
			t.lin = inv + rng.Int63n(dur+1)
			if rng.Intn(3) == 0 {
				val++
				t.op.Write, t.op.Value = true, val
				if rng.Intn(5) == 0 {
					t.op.Value = -val // delete
				}
			}
			if rng.Intn(12) == 0 {
				t.op.Return = -1
				t.eff = rng.Intn(2) == 0
			}
			all = append(all, t)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].lin < all[j].lin })
	state := map[uint64]int64{}
	for i := range all {
		t := &all[i]
		switch {
		case t.op.Write && t.eff:
			state[t.op.Key] = max(t.op.Value, 0)
		case !t.op.Write:
			t.op.Value = state[t.op.Key]
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	ops := make([]Op, len(all))
	for i, t := range all {
		ops[i] = t.op
	}
	return ops
}

// corrupt breaks a history in one of the ways a replication bug would:
// a read observes some other write's value, a read observes "missing",
// or an op's interval moves.
func corrupt(rng *rand.Rand, ops []Op) {
	if len(ops) == 0 {
		return
	}
	i := rng.Intn(len(ops))
	switch rng.Intn(3) {
	case 0:
		ops[i].Value = ops[rng.Intn(len(ops))].Value
	case 1:
		ops[i].Value = 0
	case 2:
		ops[i].Invoke += int64(rng.Intn(20))
		if !ops[i].Pending() {
			ops[i].Return = ops[i].Invoke + int64(rng.Intn(3))
		}
	}
}

// TestMatchesReferenceChecker holds the checker to the reference copy
// of the search it replaced, on random valid and broken histories:
// the whole Result must agree — verdict, Decided, Key and Reason — in
// every memo-key width (up to 64 ops, up to 512, above), and also when
// a small state limit cuts the search short, which only agrees if both
// visit the same states in the same order.
func TestMatchesReferenceChecker(t *testing.T) {
	rng := rand.New(rand.NewSource(20260101))
	shapes := []struct {
		name                          string
		rounds                        int
		keys, opsPerKey, span, maxDur int
		cfg                           Config
	}{
		{"many small keys", 150, 40, 6, 200, 30, Config{}},
		{"one word", 150, 2, 60, 600, 12, Config{}},
		{"eight words", 40, 1, 300, 3000, 10, Config{}},
		{"above the default bound", 6, 1, 900, 9000, 8, Config{MaxOpsPerKey: 1 << 14}},
		{"over the op limit", 6, 2, 900, 9000, 8, Config{}},
		{"state limit", 150, 2, 60, 300, 40, Config{StateLimit: 50}},
	}
	var okN, failN, undecidedN int
	for _, sh := range shapes {
		for round := 0; round < sh.rounds; round++ {
			ops := genHistory(rng, sh.keys, sh.opsPerKey, sh.span, sh.maxDur)
			if round%2 == 1 {
				for k := 0; k <= rng.Intn(3); k++ {
					corrupt(rng, ops)
				}
			}
			in := append([]Op(nil), ops...)
			got := CheckConfig(ops, sh.cfg)
			for i := range ops {
				if ops[i] != in[i] {
					t.Fatalf("%s round %d: CheckConfig reordered the caller's history", sh.name, round)
				}
			}
			if want := refCheck(in, sh.cfg); got != want {
				t.Fatalf("%s round %d (%d ops):\n  checker   %+v\n  reference %+v", sh.name, round, len(ops), got, want)
			}
			switch {
			case !got.Decided:
				undecidedN++
			case got.Ok:
				okN++
			default:
				failN++
			}
		}
	}
	if okN < 50 || failN < 50 || undecidedN < 10 {
		t.Fatalf("coverage: %d linearizable, %d not, %d undecided — want each well represented", okN, failN, undecidedN)
	}
}

// TestCheckAllocatesPerHistoryNotPerState: the checker's garbage is a
// copy of the history plus a few reusable tables — not something per
// key, let alone per search state.
func TestCheckAllocatesPerHistoryNotPerState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := genHistory(rng, 2000, 8, 4000, 20)
	if res := Check(ops); !res.Ok || !res.Decided {
		t.Fatalf("generated history rejected: %+v", res)
	}
	if allocs := testing.AllocsPerRun(5, func() { Check(ops) }); allocs > 40 {
		t.Fatalf("checking %d ops over 2000 keys allocates %v times, want a few dozen at most", len(ops), allocs)
	}
}

// BenchmarkCheck times the checker and the reference on the shape the
// benchmark's reconfig_chaos history has: tens of thousands of keys, a
// few ops each.
func BenchmarkCheck(b *testing.B) {
	ops := genHistory(rand.New(rand.NewSource(7)), 20000, 8, 40000, 20)
	for _, impl := range []struct {
		name  string
		check func([]Op, Config) Result
	}{{"checker", CheckConfig}, {"reference", refCheck}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if res := impl.check(ops, Config{}); !res.Ok {
					b.Fatalf("%+v", res)
				}
			}
			b.ReportMetric(float64(len(ops))*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}
