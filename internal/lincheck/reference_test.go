package lincheck

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refCheckKey is the per-key search as it stood before the memo key
// became fixed-width, kept verbatim as the reference the differential
// tests hold the checker to: a byte slice and a string per search
// state, reflection-based sort, closures and all.
func refCheckKey(key uint32, ops []Op, cfg Config) Result {
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
	byKey := make(map[uint32][]Op)
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
	keys := make([]uint32, 0, len(byKey))
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

// shape is what genHistory draws a history from.
type shape struct {
	keys      int // keys 0, 7, 14, …
	opsPerKey int // each key gets 1 … opsPerKey ops
	span      int // invocations are drawn from [0, span)
	maxDur    int // durations from [1, maxDur]
	deletes   bool
	pending   int // 1 in pending ops never returns (0: none)
	writes    int // 1 in writes ops is a write
}

// genHistory simulates clients of an atomic register per key: each op
// gets an invocation, a response and a linearization point between
// them, and the ops take effect in linearization order — linearizable
// by construction. Times are drawn from a small range so that ties are
// common; with deletes set one write in five is a delete; some ops
// never return (a pending write then may or may not have taken effect).
func genHistory(rng *rand.Rand, sh shape) []Op {
	type timed struct {
		op  Op
		lin int64
		eff bool
	}
	var all []timed
	val := int64(0)
	for k := 0; k < sh.keys; k++ {
		n := 1 + rng.Intn(sh.opsPerKey)
		for i := 0; i < n; i++ {
			inv := int64(rng.Intn(sh.span))
			dur := int64(1 + rng.Intn(sh.maxDur))
			t := timed{op: Op{Key: uint32(k * 7), Invoke: inv, Return: inv + dur}, eff: true}
			t.lin = inv + rng.Int63n(dur+1)
			if rng.Intn(sh.writes) == 0 {
				val++
				t.op.Write, t.op.Value = true, val
				if sh.deletes && rng.Intn(5) == 0 {
					t.op.Value = -val
				}
			}
			if sh.pending > 0 && rng.Intn(sh.pending) == 0 {
				t.op.Return = -1
				t.eff = rng.Intn(2) == 0
			}
			all = append(all, t)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].lin < all[j].lin })
	state := map[uint32]int64{}
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

// searched reports whether a key's ops take the search: a write that
// deletes (or writes 0), or a write value repeated.
func searched(ops []Op) bool {
	seen := map[int64]bool{}
	for _, o := range ops {
		if o.Write && (o.Value <= 0 || seen[o.Value]) {
			return true
		}
		seen[o.Value] = o.Write || seen[o.Value]
	}
	return false
}

// tally counts, over a differential run, how each key was decided.
type tally struct {
	zoneOk, zoneFail   int // delete-free keys the reference also decides
	searchOk, searchNo int // keys with a delete, decided either way
	undecided          int // keys with a delete left undecided by both
	beyond             int // delete-free keys only the checker decides
}

// compareKeyByKey holds CheckConfig to the reference on every key of
// ops, and the whole-history verdict to the smallest failing key. On a
// key the reference decides, and on every key the search takes, the
// Result must be identical — verdict, Decided, Key and Reason. A
// delete-free key the reference cannot decide must still be decided.
// When the reference decides every key, the whole Result must also
// equal the reference's.
func compareKeyByKey(t *testing.T, what string, ops []Op, cfg Config, n *tally) {
	t.Helper()
	in := append([]Op(nil), ops...)
	got := CheckConfig(ops, cfg)
	for i := range ops {
		if ops[i] != in[i] {
			t.Fatalf("%s: CheckConfig reordered the caller's history", what)
		}
	}
	byKey := map[uint32][]Op{}
	var keys []uint32
	for _, o := range in {
		if _, ok := byKey[o.Key]; !ok {
			keys = append(keys, o.Key)
		}
		byKey[o.Key] = append(byKey[o.Key], o)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	want := Result{Ok: true, Decided: true}
	allDecided := true
	for _, k := range keys {
		kops := byKey[k]
		gotK := CheckConfig(append([]Op(nil), kops...), cfg)
		ref := refCheck(kops, cfg)
		switch s := searched(kops); {
		case ref.Decided || s:
			if gotK != ref {
				t.Fatalf("%s, key %d (%d ops):\n  checker   %+v\n  reference %+v", what, k, len(kops), gotK, ref)
			}
			switch {
			case !s && ref.Ok:
				n.zoneOk++
			case !s:
				n.zoneFail++
			case !ref.Decided:
				n.undecided++
			case ref.Ok:
				n.searchOk++
			default:
				n.searchNo++
			}
		case !gotK.Decided:
			t.Fatalf("%s, key %d (%d ops): a delete-free key left undecided: %+v", what, k, len(kops), gotK)
		default:
			n.beyond++
		}
		allDecided = allDecided && ref.Decided
		if want.Ok && !gotK.Ok {
			want = gotK
		}
	}
	if got != want {
		t.Fatalf("%s: whole history %+v, but its smallest failing key gives %+v", what, got, want)
	}
	if ref := refCheck(in, cfg); allDecided && got != ref {
		t.Fatalf("%s (%d ops):\n  checker   %+v\n  reference %+v", what, len(in), got, ref)
	}
}

// TestMatchesReferenceChecker holds the checker to the reference search
// key by key, on random valid and broken histories: with deletes (the
// search's memo key in every width — up to 64 ops, up to 512, above —
// and a small state limit, which only agrees if both visit the same
// states in the same order), and without (the zone test, including
// pending writes seen and unseen, reads of the initial state, dense
// ties, and keys above both of the search's limits).
func TestMatchesReferenceChecker(t *testing.T) {
	rng := rand.New(rand.NewSource(20260101))
	shapes := []struct {
		name   string
		rounds int
		sh     shape
		cfg    Config
	}{
		{"many small keys", 150, shape{keys: 40, opsPerKey: 6, span: 200, maxDur: 30, deletes: true, pending: 12, writes: 3}, Config{}},
		{"one word", 150, shape{keys: 2, opsPerKey: 60, span: 600, maxDur: 12, deletes: true, pending: 12, writes: 3}, Config{}},
		{"eight words", 40, shape{keys: 1, opsPerKey: 300, span: 3000, maxDur: 10, deletes: true, pending: 12, writes: 3}, Config{}},
		{"above the default bound", 6, shape{keys: 1, opsPerKey: 900, span: 9000, maxDur: 8, deletes: true, pending: 12, writes: 3}, Config{MaxOpsPerKey: 1 << 14}},
		{"over the op limit", 6, shape{keys: 2, opsPerKey: 900, span: 9000, maxDur: 8, deletes: true, pending: 12, writes: 3}, Config{}},
		{"state limit", 150, shape{keys: 2, opsPerKey: 60, span: 300, maxDur: 40, deletes: true, pending: 12, writes: 3}, Config{StateLimit: 50}},
		{"delete-free, pending writes", 300, shape{keys: 8, opsPerKey: 14, span: 60, maxDur: 12, pending: 4, writes: 2}, Config{}},
		{"delete-free, reads of the initial state", 300, shape{keys: 8, opsPerKey: 14, span: 80, maxDur: 10, pending: 8, writes: 6}, Config{}},
		{"delete-free, dense ties", 300, shape{keys: 4, opsPerKey: 16, span: 12, maxDur: 3, pending: 10, writes: 3}, Config{}},
		{"delete-free, above the search's limits", 30, shape{keys: 3, opsPerKey: 700, span: 2000, maxDur: 12, pending: 12, writes: 3}, Config{StateLimit: 1 << 12}},
	}
	var n tally
	for _, s := range shapes {
		for round := 0; round < s.rounds; round++ {
			ops := genHistory(rng, s.sh)
			if round%2 == 1 {
				for k := 0; k <= rng.Intn(3); k++ {
					corrupt(rng, ops)
				}
			}
			compareKeyByKey(t, fmt.Sprintf("%s round %d", s.name, round), ops, s.cfg, &n)
		}
	}
	t.Logf("%+v", n)
	if n.zoneOk < 500 || n.zoneFail < 200 || n.searchOk < 50 || n.searchNo < 50 || n.undecided < 10 || n.beyond < 20 {
		t.Fatalf("coverage %+v — want each well represented", n)
	}
}

// decodeHistory turns fuzz bytes into at most 16 ops on keys 0 and 1,
// four bytes an op: writes carry unique positive values except for the
// occasional delete or repeated value, reads observe a written value,
// the initial state or a value nobody wrote, and times are small so
// that ties are dense.
func decodeHistory(data []byte) []Op {
	ops := make([]Op, min(len(data)/4, 16))
	var written []int64
	for i := range ops {
		b, o := data[4*i:4*i+4], &ops[i]
		o.Key = uint32(b[0] & 1)
		o.Write = b[0]&2 != 0
		o.Invoke = int64(b[1] & 31)
		o.Return = o.Invoke + int64(b[2]&7)
		if b[2]&0x18 == 0x18 {
			o.Return = -1
		}
		if !o.Write {
			continue
		}
		o.Value = int64(len(written) + 1)
		switch b[0] >> 5 {
		case 6:
			o.Value = -o.Value // a delete
		case 7:
			if len(written) > 0 {
				o.Value = written[int(b[3])%len(written)] // a repeated value
			}
		}
		written = append(written, o.Value)
	}
	for i := range ops {
		if ops[i].Write {
			continue
		}
		switch k := int(data[4*i+3]) % (len(written) + 2); {
		case k == 0:
		case k <= len(written):
			ops[i].Value = max(written[k-1], 0)
		default:
			ops[i].Value = 1000 // nobody wrote it
		}
	}
	return ops
}

// FuzzCheckAgainstReference: on small histories the reference search
// always decides, so the two Results must be identical.
func FuzzCheckAgainstReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		b := make([]byte, 4*(1+rng.Intn(16)))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeHistory(data)
		in := append([]Op(nil), ops...)
		if got, want := Check(ops), refCheck(in, Config{}); got != want {
			t.Fatalf("%+v:\n  checker   %+v\n  reference %+v", in, got, want)
		}
	})
}

// TestLargeSingleKeyHistories: one key with over 10⁴ and 10⁵ ops, far past
// anything the search decides, is decided — linearizable as generated,
// and not once any one anomaly is injected, each failing verdict naming
// the key.
func TestLargeSingleKeyHistories(t *testing.T) {
	const key = 0 // genHistory's first key
	for _, size := range []int{10_000, 100_000} {
		rng := rand.New(rand.NewSource(int64(size)))
		sh := shape{keys: 1, opsPerKey: 2 * size, span: size * 4, maxDur: 40, pending: 50, writes: 3}
		ops := genHistory(rng, sh)
		for len(ops) < size { // opsPerKey is an upper bound
			ops = genHistory(rng, sh)
		}
		if res := Check(ops); !res.Decided || !res.Ok {
			t.Fatalf("%d ops, linearizable by construction: %+v", len(ops), res)
		}
		// Two completed writes, the first returned before the second was
		// invoked and the second long enough for two reads inside it.
		var w1, w2 Op
		for i := range ops {
			if o := ops[i]; o.Write && !o.Pending() && o.Return-o.Invoke >= 4 && o.Invoke >= 4 {
				for _, p := range ops {
					if p.Write && !p.Pending() && p.Return < o.Invoke {
						w1, w2 = p, o
						break
					}
				}
			}
			if w2.Write {
				break
			}
		}
		if !w2.Write {
			t.Fatal("no write pair to build anomalies around")
		}
		anomalies := map[string][]Op{
			// w2 becomes visible, then w1's value is back while w2 is
			// still in flight.
			"flicker": {
				{Key: key, Value: w2.Value, Invoke: w2.Invoke, Return: w2.Invoke + 1},
				{Key: key, Value: w1.Value, Invoke: w2.Invoke + 2, Return: w2.Invoke + 3},
			},
			// w1's value read after w2, which follows it, returned.
			"stale read": {{Key: key, Value: w1.Value, Invoke: w2.Return + 1, Return: w2.Return + 2}},
			// w2's value read and returned before w2 was invoked.
			"read before write": {{Key: key, Value: w2.Value, Invoke: w2.Invoke - 3, Return: w2.Invoke - 1}},
			"unwritten value":   {{Key: key, Value: 1 << 40, Invoke: 5, Return: 6}},
		}
		for name, extra := range anomalies {
			bad := append(append([]Op(nil), ops...), extra...)
			if res := Check(bad); !res.Decided || res.Ok || res.Key != key {
				t.Fatalf("%d ops, %s: %+v", len(bad), name, res)
			}
		}
	}
}

// TestCheckAllocatesPerHistoryNotPerState: the checker's garbage is a
// copy of the history plus a few reusable tables — not something per
// key, let alone per search state.
func TestCheckAllocatesPerHistoryNotPerState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := genHistory(rng, shape{keys: 2000, opsPerKey: 8, span: 4000, maxDur: 20, deletes: true, pending: 12, writes: 3})
	if res := Check(ops); !res.Ok || !res.Decided {
		t.Fatalf("generated history rejected: %+v", res)
	}
	if allocs := testing.AllocsPerRun(5, func() { Check(ops) }); allocs > 40 {
		t.Fatalf("checking %d ops over 2000 keys allocates %v times, want a few dozen at most", len(ops), allocs)
	}
}

// BenchmarkCheck times the checker and the reference on the shape of
// one group's share of the benchmark's reconfig_chaos history: ten
// thousand keys, fifteen-odd ops each, no deletes.
func BenchmarkCheck(b *testing.B) {
	ops := genHistory(rand.New(rand.NewSource(7)), shape{keys: 10000, opsPerKey: 30, span: 40000, maxDur: 20, pending: 50, writes: 5})
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
