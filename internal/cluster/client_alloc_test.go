package cluster

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"harmonia/internal/metrics"
	"harmonia/internal/wire"
)

// TestPendingTabMatchesMap drives the open-addressed pending table and
// a reference map through the same randomized insert/lookup/delete
// sequence; the backward-shift delete must keep every surviving entry
// reachable.
func TestPendingTabMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tab pendingTab
	ref := make(map[uint64]*opState)
	var live []uint64
	var next uint64
	for i := 0; i < 200000; i++ {
		switch op := rng.Intn(10); {
		case op < 4: // insert
			next++
			st := &opState{}
			tab.put(next, st)
			ref[next] = st
			live = append(live, next)
		case op < 7: // delete (live key, or a guaranteed miss)
			if len(live) == 0 {
				if tab.del(next + 1) {
					t.Fatal("del of absent key reported true")
				}
				continue
			}
			j := rng.Intn(len(live))
			k := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if !tab.del(k) {
				t.Fatalf("del(%d) reported absent, want present", k)
			}
			delete(ref, k)
		default: // lookup
			if len(live) == 0 {
				continue
			}
			k := live[rng.Intn(len(live))]
			got, ok := tab.get(k)
			if !ok || got != ref[k] {
				t.Fatalf("get(%d) = (%p, %v), want (%p, true)", k, got, ok, ref[k])
			}
		}
		if tab.len() != len(ref) {
			t.Fatalf("len = %d, want %d", tab.len(), len(ref))
		}
	}
	seen := 0
	tab.each(func(st *opState) { seen++ })
	if seen != len(ref) {
		t.Fatalf("each visited %d entries, want %d", seen, len(ref))
	}
	for k, want := range ref {
		if got, ok := tab.get(k); !ok || got != want {
			t.Fatalf("final get(%d) = (%p, %v), want (%p, true)", k, got, ok, want)
		}
	}
}

// TestPendingTabSequentialWindow is the open-loop shape: a sliding
// window of sequential request IDs inserted and completed in order —
// the pattern that made identity hashing degenerate into one giant
// probe run.
func TestPendingTabSequentialWindow(t *testing.T) {
	var tab pendingTab
	const window, total = 512, 20000
	var lo, hi uint64
	for hi < total {
		for hi-lo < window {
			hi++
			tab.put(hi, &opState{})
		}
		lo++
		if !tab.del(lo) {
			t.Fatalf("del(%d) missed", lo)
		}
		if _, ok := tab.get(lo); ok {
			t.Fatalf("get(%d) found a deleted key", lo)
		}
		if _, ok := tab.get(lo + 1); !ok && lo+1 <= hi {
			t.Fatalf("get(%d) lost a live key after backward shift", lo+1)
		}
	}
	if tab.len() != int(hi-lo) {
		t.Fatalf("len = %d, want %d", tab.len(), hi-lo)
	}
}

// TestClientOpPathAllocs pins the client op path's allocation floor
// with tracing off: pending-table insert+delete, retry-timer arm via
// AfterCallT, the full completion path (reply match, timer stop, op
// recycle, packet release), and the chunked history record.
func TestClientOpPathAllocs(t *testing.T) {
	c := New(Config{
		UseHarmonia: true,
		GroupSpecs:  []GroupSpec{{Protocol: Chain, Replicas: 3}},
		Seed:        7,
	})

	// Pending-table insert + delete, steady state.
	var tab pendingTab
	st := &opState{}
	for i := uint64(1); i <= 64; i++ { // pre-grow past the test's load
		tab.put(i, st)
	}
	for i := uint64(1); i <= 64; i++ {
		tab.del(i)
	}
	req := uint64(64)
	if a := testing.AllocsPerRun(1000, func() {
		req++
		tab.put(req, st)
		tab.del(req)
	}); a != 0 {
		t.Errorf("pending insert+delete: %.2f allocs/op, want 0", a)
	}

	// Retry arm: AfterCallT + Stop must recycle the wheel node.
	eng := c.Engine()
	fn := func(any) {}
	if a := testing.AllocsPerRun(1000, func() {
		tm := eng.AfterCallT(time.Millisecond, fn, st)
		tm.Stop()
	}); a != 0 {
		t.Errorf("retry arm+stop: %.2f allocs/op, want 0", a)
	}

	// Completion: a pooled reply delivered to a client with the op
	// pending. collect is off (no measurement window), tracing off.
	meas := &measurement{
		c:    c,
		lat:  metrics.NewHistogram(),
		rlat: metrics.NewHistogram(),
		wlat: metrics.NewHistogram(),
	}
	v := c.newVClients(1, meas, nil, false)[0]
	if a := testing.AllocsPerRun(1000, func() {
		v.nextReq++
		op := c.opFree.Get()
		op.histIdx = -1
		op.pkt = wire.Packet{Op: wire.OpRead, ClientID: v.id, ReqID: v.nextReq}
		v.pending.put(v.nextReq, op)
		rep := c.pkts.New()
		rep.Op, rep.ClientID, rep.ReqID = wire.OpReadReply, v.id, v.nextReq
		v.Recv(0, rep)
	}); a != 0 {
		t.Errorf("completion path: %.2f allocs/op, want 0", a)
	}

	// History record: invoke+ret amortize to one chunk allocation per
	// recorderChunkSize ops.
	rec := newRecorder()
	if a := testing.AllocsPerRun(2*recorderChunkSize, func() {
		idx := rec.invoke(1, false, 0, 10)
		rec.ret(idx, 20, 42)
	}); a > 0.01 {
		t.Errorf("history record: %.4f allocs/op, want ≤ 1/%d", a, recorderChunkSize)
	}
	// A packed ret rewrites its record in place: no allocation.
	idx := rec.invoke(1, false, 0, 30)
	if a := testing.AllocsPerRun(1000, func() { rec.ret(idx, 40, 42) }); a != 0 || len(rec.boxed) != 0 {
		t.Errorf("packed ret: %.2f allocs/op, %d boxed ops, want 0 and 0", a, len(rec.boxed))
	}

	// Value encode from the arena: one chunk per 8192 writes.
	var va valueArena
	id := int64(0)
	if a := testing.AllocsPerRun(10000, func() {
		id++
		b := va.encode(id)
		if decodeValue(b) != id {
			t.Fatal("arena value roundtrip failed")
		}
	}); a > 0.01 {
		t.Errorf("value encode: %.4f allocs/op, want ≤ 8/%d", a, valueArenaChunk)
	}
}

// TestRunLoadsAllocatesPerGroup: a closed-loop load group's clients are
// built in blocks, so 512 of them cost RunLoads a few more allocations
// than 64 (a block of simnet nodes per 64 clients, a node-table page
// per 256), never some per client. Pools are warmed first, so only
// client assembly differs between the two runs.
func TestRunLoadsAllocatesPerGroup(t *testing.T) {
	c := New(Config{GroupSpecs: []GroupSpec{{Protocol: Chain, Replicas: 3}}, Seed: 3})
	run := func(clients int) uint64 {
		spec := LoadSpec{Clients: clients, Duration: 200 * time.Microsecond, Keys: 1000}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c.RunLoads([]LoadSpec{spec})
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	run(512)
	run(512)
	small, large := run(64), run(512)
	if large > small+32 {
		t.Fatalf("RunLoads allocates %d times with 64 clients, %d with 512", small, large)
	}
}
