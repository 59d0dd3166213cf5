package simnet

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"harmonia/internal/sim"
	"harmonia/internal/wire"
)

// TestCrashRecoverMidServiceKeepsWorkerCount crashes a 1-worker node
// while it serves a message and revives it before that service would
// have finished. The abandoned message must never reach the handler,
// and its late completion must not hand back a worker the crash
// already reset: two fresh messages are still served one at a time.
func TestCrashRecoverMidServiceKeepsWorkerCount(t *testing.T) {
	eng, net := newNet(1, LinkConfig{})
	c := &collector{eng: eng}
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.AddNode(2, c, ProcConfig{
		Workers: 1,
		Cost:    func(Message) time.Duration { return time.Millisecond },
	})
	net.Send(1, 2, "in-service")
	eng.RunFor(50 * time.Microsecond)
	net.SetDown(2, true)
	eng.RunFor(50 * time.Microsecond)
	net.SetDown(2, false)
	net.Send(1, 2, "a")
	net.Send(1, 2, "b")
	eng.RunFor(1500 * time.Microsecond) // past the abandoned completion and a's, short of b's
	if len(c.msgs) != 1 || c.msgs[0] != "a" {
		t.Fatalf("by 1.6 ms a 1-worker node delivered %v, want [a]", c.msgs)
	}
	eng.RunFor(time.Millisecond)
	if len(c.msgs) != 2 || c.msgs[1] != "b" {
		t.Fatalf("delivered %v, want [a b]", c.msgs)
	}
	if got := c.times[1] - c.times[0]; got != sim.Time(time.Millisecond) {
		t.Fatalf("b completed %d ns after a, want one full service time", got)
	}
}

// sent is a packet the model test put on the wire. Packet structs are
// pooled, so identity is the pointer plus the request ID stamped on
// this use of it.
type sent struct {
	p   *wire.Packet
	req uint64
}

func (s sent) released() bool { return !s.p.Managed() || s.p.ReqID != s.req }

// queueModel is the reference for one node's processor: a plain slice
// FIFO driven by the same arrivals (through the Tracer hooks) that
// states what the node must do next.
type queueModel struct {
	t              *testing.T
	nd             *Node
	workers, limit int

	idle      int
	queue     []sent
	serving   map[*wire.Packet]uint64
	nextServe *wire.Packet
	dropped   uint64
	mustFree  []sent // dropped or abandoned: released by the time the engine is idle
}

func (m *queueModel) PacketArrive(_ NodeID, msg Message) {
	p := msg.(*wire.Packet)
	switch {
	case m.idle > 0:
		m.idle--
		m.nextServe = p
	case m.limit > 0 && len(m.queue) >= m.limit:
		m.dropped++
		m.mustFree = append(m.mustFree, sent{p, p.ReqID})
	default:
		m.queue = append(m.queue, sent{p, p.ReqID})
	}
}

func (m *queueModel) PacketServe(_ NodeID, msg Message) {
	p := msg.(*wire.Packet)
	if p != m.nextServe {
		m.t.Fatalf("served req %d, model expects req %d next", p.ReqID, m.nextServe.ReqID)
	}
	m.nextServe = nil
	m.serving[p] = p.ReqID
}

func (m *queueModel) PacketDone(NodeID, Message) {}

func (m *queueModel) Recv(_ NodeID, msg Message) {
	p := msg.(*wire.Packet)
	if req, ok := m.serving[p]; !ok || req != p.ReqID {
		m.t.Fatalf("handler got req %d, which the model does not have in service", p.ReqID)
	}
	delete(m.serving, p)
	if got := m.nd.QueueLen(); got != len(m.queue) {
		m.t.Fatalf("QueueLen %d at completion, model %d", got, len(m.queue))
	}
	p.Release()
	if len(m.queue) > 0 {
		m.nextServe = m.queue[0].p
		m.queue = m.queue[1:]
	} else {
		m.idle++
	}
}

func (m *queueModel) crash() {
	m.dropped += uint64(len(m.queue))
	m.mustFree = append(m.mustFree, m.queue...)
	m.queue = nil
	for p, req := range m.serving {
		m.mustFree = append(m.mustFree, sent{p, req})
	}
	clear(m.serving)
	m.idle = m.workers
}

func (m *queueModel) check(when string) {
	m.t.Helper()
	if got := m.nd.QueueLen(); got != len(m.queue) {
		m.t.Fatalf("%s: QueueLen %d, model %d", when, got, len(m.queue))
	}
	if m.nd.Dropped != m.dropped {
		m.t.Fatalf("%s: Dropped %d, model %d", when, m.nd.Dropped, m.dropped)
	}
}

// TestQueueMatchesSliceFIFO drives one node with random bursts, service
// times, queue limits and crashes and holds it to the slice model:
// service order, QueueLen, Dropped, and every dropped or abandoned
// packet released. Unbounded rounds push hundreds of messages through
// a ring that starts at 16, so it grows with its head anywhere.
func TestQueueMatchesSliceFIFO(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng, net := newNet(seed, LinkConfig{})
		m := &queueModel{t: t, workers: 1 + rng.Intn(3), serving: make(map[*wire.Packet]uint64)}
		if seed%2 == 0 {
			m.limit = 1 + rng.Intn(40)
		}
		m.idle = m.workers
		net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
		var pool wire.Pool
		m.nd = net.AddNode(2, m, ProcConfig{
			Workers:    m.workers,
			QueueLimit: m.limit,
			Cost:       func(Message) time.Duration { return time.Duration(1+rng.Intn(20)) * time.Microsecond },
		})
		net.SetTracer(m)
		var req uint64
		down := false
		for round := 0; round < 300; round++ {
			for n := rng.Intn(120); n > 0; n-- {
				req++
				p := pool.New()
				p.ReqID = req
				if down {
					m.dropped++
					m.mustFree = append(m.mustFree, sent{p, req})
				}
				net.Send(1, 2, p)
			}
			// Zero link latency: every arrival fires in this run, so no
			// message is on the wire when the node's state flips below.
			eng.RunFor(time.Duration(rng.Intn(400)) * time.Microsecond)
			m.check(fmt.Sprintf("seed %d round %d", seed, round))
			if rng.Intn(10) == 0 {
				down = !down
				net.SetDown(2, down)
				if down {
					m.crash()
				}
				m.check(fmt.Sprintf("seed %d round %d SetDown(%v)", seed, round, down))
			}
		}
		eng.RunFor(time.Second)
		m.check(fmt.Sprintf("seed %d drained", seed))
		if len(m.serving) != 0 || len(m.queue) != 0 {
			t.Fatalf("seed %d: %d in service and %d queued after the drain", seed, len(m.serving), len(m.queue))
		}
		for _, s := range m.mustFree {
			if !s.released() {
				t.Fatalf("seed %d: dropped req %d was never released", seed, s.req)
			}
		}
		if n := pool.Live(); n != 0 {
			t.Fatalf("seed %d: %d packet references live after the drain", seed, n)
		}
	}
}

// hopRig keeps an 8-worker node's queue at a fixed depth: every handled
// message is sent again.
func hopRig(depth int) (eng *sim.Engine, handled *int) {
	eng = sim.NewEngine(1)
	net := New(eng, LinkConfig{Latency: 5 * time.Microsecond})
	const src, dst, workers = 1, 2, 8
	handled = new(int)
	net.AddNode(src, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.AddNode(dst, HandlerFunc(func(_ NodeID, msg Message) {
		*handled++
		net.Send(src, dst, msg)
	}), ProcConfig{
		Workers: workers,
		Cost:    func(Message) time.Duration { return 10 * time.Microsecond },
	})
	msg := &struct{}{}
	for i := 0; i < depth+workers; i++ {
		net.Send(src, dst, msg)
	}
	return eng, handled
}

func hops(eng *sim.Engine, handled *int, n int) {
	for target := *handled + n; *handled < target; {
		eng.Step()
	}
}

// TestSteadyHopAllocatesNothing pins send → arrive → serve → complete
// at queue depth 1000 to zero allocations once the ring and the
// engine's event pool have reached their steady size.
func TestSteadyHopAllocatesNothing(t *testing.T) {
	eng, handled := hopRig(1000)
	hops(eng, handled, 5000)
	if avg := testing.AllocsPerRun(100, func() { hops(eng, handled, 100) }); avg != 0 {
		t.Fatalf("%v allocations per 100 hops at depth 1000, want 0", avg)
	}
}

// BenchmarkHopQueueDepth times one hop at two backlog depths; the cost
// of dequeueing must not depend on how much is waiting.
func BenchmarkHopQueueDepth(b *testing.B) {
	for _, depth := range []int{200, 2000} {
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			eng, handled := hopRig(depth)
			hops(eng, handled, 5000)
			b.ResetTimer()
			hops(eng, handled, b.N)
		})
	}
}

// TestFifoPopMovesNothingElse is the queue's O(1) pop, checked on the
// ring itself: a pop clears the slot of the message it returns and
// leaves every other slot as it was. A queue that shifted its backlog on
// every pop made a hop 11× slower at depth 2000 than at depth 200.
func TestFifoPopMovesNothingElse(t *testing.T) {
	var f fifo
	for i := 0; i < 20; i++ {
		f.push(queued{from: NodeID(i)})
	}
	for i := 0; i < 10; i++ {
		f.pop()
	}
	for i := 20; i < 42; i++ { // fills the 32-slot ring, wrapping past its end
		f.push(queued{from: NodeID(i)})
	}
	if len(f.buf) != 32 || f.head != 10 {
		t.Fatalf("ring of %d slots with head %d, want 32 and 10", len(f.buf), f.head)
	}
	for want := NodeID(10); f.n > 0; want++ {
		before, head := append([]queued(nil), f.buf...), f.head
		if got := f.pop(); got.from != want {
			t.Fatalf("popped %d, want %d", got.from, want)
		}
		for i := range before {
			if i != head && f.buf[i] != before[i] || i == head && f.buf[i] != (queued{}) {
				t.Fatalf("popping %d changed slot %d (head %d): %v → %v", want, i, head, before[i], f.buf[i])
			}
		}
	}
}

// TestHopCostIndependentOfDepth is the benchmark's claim as a test:
// ns/hop at depth 2000 within 4× of depth 200. The bound is loose, so
// that a busy machine cannot fail it (best of several interleaved trials
// per depth has read up to 1.54×), and a queue whose pop costs O(depth)
// still does (it read 11×). TestFifoPopMovesNothingElse checks the same
// without a clock.
func TestHopCostIndependentOfDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("timing")
	}
	const n = 200000
	best := map[int]time.Duration{}
	for trial := 0; trial < 5; trial++ {
		for _, depth := range []int{200, 2000} {
			eng, handled := hopRig(depth)
			hops(eng, handled, 5000)
			t0 := time.Now()
			hops(eng, handled, n)
			if d := time.Since(t0); best[depth] == 0 || d < best[depth] {
				best[depth] = d
			}
		}
	}
	if ratio := float64(best[2000]) / float64(best[200]); ratio > 4 {
		t.Fatalf("hop at depth 2000 costs %.2f× depth 200 (%v vs %v per %d hops)", ratio, best[2000], best[200], n)
	}
}

// TestNodeTableSparseIDs registers nodes across the ID ranges cluster
// assembly uses and checks lookups in pages that exist, pages that do
// not, and below zero.
func TestNodeTableSparseIDs(t *testing.T) {
	eng, net := newNet(1, LinkConfig{})
	ids := []NodeID{1, 2, 9, 10, 10 + 3*1024 + 64, 1<<20 + 1, 1<<20 + 700}
	got := map[NodeID]int{}
	for _, id := range ids {
		id := id
		nd := net.AddNode(id, HandlerFunc(func(NodeID, Message) { got[id]++ }), ProcConfig{})
		if nd.ID() != id || net.Node(id) != nd {
			t.Fatalf("node %d not found after AddNode", id)
		}
	}
	for _, id := range []NodeID{Broadcast, 0, 3, 11, 5000, 1 << 20, 1 << 24} {
		if net.Node(id) != nil || net.IsDown(id) {
			t.Fatalf("unregistered node %d found", id)
		}
		net.Send(1, id, "x") // dropped like UDP
		net.SetDown(id, true)
	}
	for _, id := range ids {
		net.Send(Broadcast, id, "x") // an unregistered sender is not silenced
	}
	eng.Run(sim.Time(time.Second))
	for _, id := range ids {
		if got[id] != 1 {
			t.Fatalf("node %d received %d messages, want 1", id, got[id])
		}
	}
}

func TestSetLinkFromUnknownNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on a link override from an unregistered node")
		}
	}()
	_, net := newNet(1, LinkConfig{})
	net.AddNode(2, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.SetLink(1, 2, LinkConfig{Latency: time.Microsecond})
}

// TestNodeSize pins a Node at 192 bytes. Nodes are carved 64 to a block,
// and 64 × 192 bytes fills a size class (12 KiB) exactly, where 200
// bytes would round each block up to 13.25 KiB. Every client is a node.
func TestNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(Node{}); n != 192 {
		t.Fatalf("Node is %d bytes, want 192", n)
	}
}
