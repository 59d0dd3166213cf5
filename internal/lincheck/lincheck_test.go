package lincheck

import (
	"math/rand"
	"testing"
	"unsafe"
)

// w and r build ops tersely. Times are (invoke, ret).
func w(key uint32, v int64, inv, ret int64) Op {
	return Op{Key: key, Write: true, Value: v, Invoke: inv, Return: ret}
}

func r(key uint32, v int64, inv, ret int64) Op {
	return Op{Key: key, Write: false, Value: v, Invoke: inv, Return: ret}
}

func mustOk(t *testing.T, ops []Op) {
	t.Helper()
	res := Check(ops)
	if !res.Decided {
		t.Fatalf("undecided: %s", res.Reason)
	}
	if !res.Ok {
		t.Fatalf("valid history rejected: %s", res.Reason)
	}
}

func mustFail(t *testing.T, ops []Op) {
	t.Helper()
	res := Check(ops)
	if !res.Decided {
		t.Fatalf("undecided: %s", res.Reason)
	}
	if res.Ok {
		t.Fatal("invalid history accepted")
	}
}

func TestEmptyAndTrivial(t *testing.T) {
	mustOk(t, nil)
	mustOk(t, []Op{w(1, 10, 0, 1)})
	mustOk(t, []Op{r(1, 0, 0, 1)}) // read of initial missing state
}

func TestSequentialReadSeesWrite(t *testing.T) {
	mustOk(t, []Op{
		w(1, 10, 0, 1),
		r(1, 10, 2, 3),
	})
}

func TestStaleReadAfterWriteRejected(t *testing.T) {
	// Write finished before the read started, but the read misses it.
	mustFail(t, []Op{
		w(1, 10, 0, 1),
		r(1, 0, 2, 3),
	})
}

func TestReadOfNeverWrittenValueRejected(t *testing.T) {
	mustFail(t, []Op{
		w(1, 10, 0, 1),
		r(1, 99, 2, 3),
	})
}

func TestConcurrentWriteEitherOrder(t *testing.T) {
	// Two overlapping writes: later reads may see either, but both
	// readers after completion must agree on one final value...
	mustOk(t, []Op{
		w(1, 10, 0, 5),
		w(1, 20, 1, 6),
		r(1, 20, 7, 8),
	})
	mustOk(t, []Op{
		w(1, 10, 0, 5),
		w(1, 20, 1, 6),
		r(1, 10, 7, 8),
	})
}

func TestFlickerRejected(t *testing.T) {
	// The §3 read-ahead anomaly: value appears, then disappears.
	mustFail(t, []Op{
		w(1, 10, 0, 1), // committed: value 10
		w(1, 20, 2, 10),
		r(1, 20, 3, 4), // sees 20 (uncommitted write visible)…
		r(1, 10, 5, 6), // …then 10 again: not linearizable
	})
}

func TestReadConcurrentWithWriteMaySeeOldOrNew(t *testing.T) {
	mustOk(t, []Op{
		w(1, 10, 0, 1),
		w(1, 20, 2, 10),
		r(1, 10, 3, 4), // old value while write in flight: fine
		r(1, 20, 5, 6), // new value later: fine (write took effect in between)
	})
}

func TestReadBehindAnomalyRejected(t *testing.T) {
	// §3 read-behind anomaly: client writes, write completes, then a
	// lagging replica returns the old value.
	mustFail(t, []Op{
		w(1, 10, 0, 1),
		w(1, 20, 2, 3), // completed
		r(1, 10, 4, 5), // stale
	})
}

func TestDeleteSemantics(t *testing.T) {
	mustOk(t, []Op{
		w(1, 10, 0, 1),
		w(1, -2, 2, 3), // delete (unique negative id)
		r(1, 0, 4, 5),  // not found
	})
	mustFail(t, []Op{
		w(1, 10, 0, 1),
		w(1, -2, 2, 3),
		r(1, 10, 4, 5), // deleted value resurfaced
	})
}

func TestPendingWriteMayOrMayNotApply(t *testing.T) {
	// A write with no response may have taken effect…
	mustOk(t, []Op{
		w(1, 10, 0, -1), // pending forever
		r(1, 10, 5, 6),  // observed: write linearized before the read
	})
	// …or not.
	mustOk(t, []Op{
		w(1, 10, 0, -1),
		r(1, 0, 5, 6),
	})
	// But it cannot both apply and unapply.
	mustFail(t, []Op{
		w(1, 10, 0, -1),
		r(1, 10, 5, 6),
		r(1, 0, 7, 8),
	})
}

func TestPendingWriteCannotApplyBeforeInvocation(t *testing.T) {
	mustFail(t, []Op{
		r(1, 10, 0, 1), // reads the value before the write was even invoked
		w(1, 10, 5, -1),
	})
}

func TestPendingReadsDropped(t *testing.T) {
	mustOk(t, []Op{
		w(1, 10, 0, 1),
		{Key: 1, Write: false, Value: 999, Invoke: 2, Return: -1}, // never returned
	})
}

func TestKeysIndependent(t *testing.T) {
	mustOk(t, []Op{
		w(1, 10, 0, 1),
		w(2, 20, 0, 1),
		r(1, 10, 2, 3),
		r(2, 20, 2, 3),
	})
	// Violation localized to key 2.
	res := Check([]Op{
		w(1, 10, 0, 1),
		r(1, 10, 2, 3),
		w(2, 20, 0, 1),
		r(2, 0, 2, 3),
	})
	if res.Ok || res.Key != 2 {
		t.Fatalf("violation not localized: %+v", res)
	}
}

func TestInvertedTimestampsRejected(t *testing.T) {
	res := Check([]Op{{Key: 1, Write: true, Value: 1, Invoke: 5, Return: 2}})
	if res.Ok || !res.Decided {
		t.Fatalf("inverted timestamps accepted: %+v", res)
	}
}

// TestOpsPerKeyLimit: only a key the search decides — one with a
// delete — has an op limit; the same key without its delete is decided
// at any size.
func TestOpsPerKeyLimit(t *testing.T) {
	var ops []Op
	for i := int64(0); i < 600; i++ {
		ops = append(ops, w(1, i+1, i*2, i*2+1))
	}
	if res := Check(ops); !res.Decided || !res.Ok {
		t.Fatalf("delete-free 600-op key: %+v", res)
	}
	ops[300].Value = -ops[300].Value // a delete
	res := Check(ops)
	if res.Decided || res.Key != 1 {
		t.Fatalf("over-limit key with a delete: %+v", res)
	}
	res = CheckConfig(ops, Config{MaxOpsPerKey: 1000})
	if !res.Decided || !res.Ok {
		t.Fatalf("sequential 600-op history should verify quickly: %+v", res)
	}
}

// TestOpSize pins the checker's input op. It is not the record the
// cluster keeps per operation: the cluster's recorder packs an op into
// 16 bytes and unpacks the history into Ops to check it.
func TestOpSize(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n != 32 {
		t.Fatalf("Op is %d bytes, want 32", n)
	}
}

func TestLongValidConcurrentHistory(t *testing.T) {
	// Simulated closed-loop clients against an atomic register: always
	// linearizable by construction; exercises the search at depth.
	rng := rand.New(rand.NewSource(42))
	var ops []Op
	var cur int64 // register value
	now := int64(0)
	nextVal := int64(1)
	for i := 0; i < 120; i++ {
		now += int64(rng.Intn(3) + 1)
		if rng.Intn(3) == 0 {
			cur = nextVal
			ops = append(ops, w(7, nextVal, now, now+2))
			nextVal++
		} else {
			ops = append(ops, r(7, cur, now, now+2))
		}
		now += 3 // strictly sequential: no overlap
	}
	mustOk(t, ops)
}

func TestOverlappingWritesWithInterleavedReads(t *testing.T) {
	// A tangle of overlapping ops with a consistent explanation.
	mustOk(t, []Op{
		w(1, 1, 0, 10),
		w(1, 2, 1, 9),
		w(1, 3, 2, 8),
		r(1, 3, 3, 7),
		r(1, 3, 11, 12),
	})
}

func TestWriteCycleRejected(t *testing.T) {
	// Sequential writes 1 then 2; reads observe 2 then 1 after both
	// writes returned: impossible.
	mustFail(t, []Op{
		w(1, 1, 0, 1),
		w(1, 2, 2, 3),
		r(1, 2, 4, 5),
		r(1, 1, 6, 7),
	})
}
