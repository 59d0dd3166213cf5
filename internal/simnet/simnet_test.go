package simnet

import (
	"slices"
	"testing"
	"time"

	"harmonia/internal/sim"
)

type collector struct {
	msgs  []Message
	froms []NodeID
	times []sim.Time
	eng   *sim.Engine
}

func (c *collector) Recv(from NodeID, msg Message) {
	c.msgs = append(c.msgs, msg)
	c.froms = append(c.froms, from)
	if c.eng != nil {
		c.times = append(c.times, c.eng.Now())
	}
}

func newNet(seed int64, def LinkConfig) (*sim.Engine, *Network) {
	eng := sim.NewEngine(seed)
	return eng, New(eng, def)
}

func TestDeliveryWithLatency(t *testing.T) {
	eng, net := newNet(1, LinkConfig{Latency: 5 * time.Microsecond})
	c := &collector{eng: eng}
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.AddNode(2, c, ProcConfig{})
	net.Send(1, 2, "hello")
	eng.Run(sim.Time(time.Second))
	if len(c.msgs) != 1 || c.msgs[0] != "hello" || c.froms[0] != 1 {
		t.Fatalf("delivery wrong: %v from %v", c.msgs, c.froms)
	}
	if c.times[0] != sim.Time(5*time.Microsecond) {
		t.Fatalf("arrival at %d, want 5us", c.times[0])
	}
}

func TestSendToUnknownNode(t *testing.T) {
	eng, net := newNet(1, LinkConfig{})
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.Send(1, 99, "x") // must not panic
	eng.Run(100)
}

func TestDropAll(t *testing.T) {
	eng, net := newNet(1, LinkConfig{DropProb: 1})
	c := &collector{}
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.AddNode(2, c, ProcConfig{})
	for i := 0; i < 50; i++ {
		net.Send(1, 2, i)
	}
	eng.Run(sim.Time(time.Second))
	if len(c.msgs) != 0 {
		t.Fatalf("lossy link delivered %d messages", len(c.msgs))
	}
}

func TestDuplication(t *testing.T) {
	eng, net := newNet(1, LinkConfig{DupProb: 1})
	c := &collector{}
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.AddNode(2, c, ProcConfig{})
	net.Send(1, 2, "x")
	eng.Run(sim.Time(time.Second))
	if len(c.msgs) != 2 {
		t.Fatalf("dup link delivered %d, want 2", len(c.msgs))
	}
}

func TestLinkOverride(t *testing.T) {
	eng, net := newNet(1, LinkConfig{Latency: time.Millisecond})
	c := &collector{eng: eng}
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.AddNode(2, c, ProcConfig{})
	net.SetLink(1, 2, LinkConfig{Latency: time.Microsecond})
	net.Send(1, 2, "fast")
	eng.Run(sim.Time(time.Second))
	if c.times[0] != sim.Time(time.Microsecond) {
		t.Fatalf("override not applied: arrival %d", c.times[0])
	}
}

// TestJitteredLinkStaysFIFO: a configured link without reordering is a
// TCP-like channel — jitter varies each delay, but no message overtakes
// the one sent before it. The same jitter on the default link does
// reorder, which is what makes the first half of the test mean
// something.
func TestJitteredLinkStaysFIFO(t *testing.T) {
	jittered := LinkConfig{Latency: time.Microsecond, Jitter: 30 * time.Microsecond}
	eng, net := newNet(1, jittered)
	fifo, free := &collector{eng: eng}, &collector{eng: eng}
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.AddNode(2, fifo, ProcConfig{})
	net.AddNode(3, free, ProcConfig{})
	net.SetLink(1, 2, jittered)
	for i := 0; i < 1000; i++ {
		net.Send(1, 2, i)
		net.Send(1, 3, i)
		eng.RunFor(time.Microsecond)
	}
	eng.Run(sim.Time(time.Second))
	inOrder := func(c *collector) bool {
		for i, m := range c.msgs {
			if m != i {
				return false
			}
		}
		return len(c.msgs) == 1000
	}
	if !inOrder(fifo) {
		t.Fatal("a message on the configured jittered link overtook an earlier one")
	}
	if inOrder(free) {
		t.Fatal("the default link never reordered: the jitter is too small to test anything")
	}
}

func TestProcessorSerialService(t *testing.T) {
	// 1 worker, 10us per message: 3 arrivals at t=0 complete at 10,
	// 20, 30us.
	eng, net := newNet(1, LinkConfig{})
	c := &collector{eng: eng}
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.AddNode(2, c, ProcConfig{
		Workers: 1,
		Cost:    func(Message) time.Duration { return 10 * time.Microsecond },
	})
	for i := 0; i < 3; i++ {
		net.Send(1, 2, i)
	}
	eng.Run(sim.Time(time.Second))
	want := []sim.Time{
		sim.Time(10 * time.Microsecond),
		sim.Time(20 * time.Microsecond),
		sim.Time(30 * time.Microsecond),
	}
	for i, w := range want {
		if c.times[i] != w {
			t.Fatalf("completion %d at %d, want %d", i, c.times[i], w)
		}
	}
}

func TestProcessorParallelWorkers(t *testing.T) {
	// 2 workers: 2 messages finish together at 10us, third at 20us.
	eng, net := newNet(1, LinkConfig{})
	c := &collector{eng: eng}
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.AddNode(2, c, ProcConfig{
		Workers: 2,
		Cost:    func(Message) time.Duration { return 10 * time.Microsecond },
	})
	for i := 0; i < 3; i++ {
		net.Send(1, 2, i)
	}
	eng.Run(sim.Time(time.Second))
	if c.times[0] != sim.Time(10*time.Microsecond) ||
		c.times[1] != sim.Time(10*time.Microsecond) ||
		c.times[2] != sim.Time(20*time.Microsecond) {
		t.Fatalf("times = %v", c.times)
	}
}

func TestQueueLimitDrops(t *testing.T) {
	eng, net := newNet(1, LinkConfig{})
	c := &collector{}
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	nd := net.AddNode(2, c, ProcConfig{
		Workers:    1,
		Cost:       func(Message) time.Duration { return time.Millisecond },
		QueueLimit: 2,
	})
	for i := 0; i < 10; i++ {
		net.Send(1, 2, i)
	}
	eng.Run(sim.Time(time.Second))
	// 1 in service + 2 queued survive = 3 delivered, 7 dropped.
	if len(c.msgs) != 3 {
		t.Fatalf("delivered %d, want 3", len(c.msgs))
	}
	if nd.Dropped != 7 {
		t.Fatalf("dropped %d, want 7", nd.Dropped)
	}
}

func TestDownNodeDropsAndRecovers(t *testing.T) {
	eng, net := newNet(1, LinkConfig{})
	c := &collector{}
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.AddNode(2, c, ProcConfig{})
	net.SetDown(2, true)
	net.Send(1, 2, "lost")
	eng.Run(100)
	if len(c.msgs) != 0 {
		t.Fatal("down node received a message")
	}
	net.SetDown(2, false)
	net.Send(1, 2, "found")
	eng.Run(200)
	if len(c.msgs) != 1 || c.msgs[0] != "found" {
		t.Fatalf("recovery delivery wrong: %v", c.msgs)
	}
}

func TestDownDiscardsQueue(t *testing.T) {
	eng, net := newNet(1, LinkConfig{})
	c := &collector{}
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.AddNode(2, c, ProcConfig{
		Workers: 1,
		Cost:    func(Message) time.Duration { return time.Millisecond },
	})
	for i := 0; i < 5; i++ {
		net.Send(1, 2, i)
	}
	// Let first delivery start, then crash mid-service.
	eng.RunFor(100 * time.Microsecond)
	net.SetDown(2, true)
	eng.Run(sim.Time(time.Second))
	if len(c.msgs) != 0 {
		t.Fatalf("crashed node completed %d messages", len(c.msgs))
	}
}

func TestLineRateNodeNeverQueues(t *testing.T) {
	eng, net := newNet(1, LinkConfig{})
	c := &collector{eng: eng}
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.AddNode(2, c, ProcConfig{Workers: 0}) // line rate
	for i := 0; i < 1000; i++ {
		net.Send(1, 2, i)
	}
	eng.Run(sim.Time(time.Second))
	if len(c.msgs) != 1000 {
		t.Fatalf("delivered %d", len(c.msgs))
	}
	for _, at := range c.times {
		if at != 0 {
			t.Fatalf("line-rate node delayed a message to %d", at)
		}
	}
}

func TestUtilization(t *testing.T) {
	eng, net := newNet(1, LinkConfig{})
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	nd := net.AddNode(2, HandlerFunc(func(NodeID, Message) {}), ProcConfig{
		Workers: 1,
		Cost:    func(Message) time.Duration { return 10 * time.Millisecond },
	})
	for i := 0; i < 10; i++ {
		net.Send(1, 2, i)
	}
	eng.Run(sim.Time(100 * time.Millisecond))
	if u := nd.Utilization(100 * time.Millisecond); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %v, want ~1.0", u)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	run := func() []sim.Time {
		eng, net := newNet(42, LinkConfig{
			Latency: 5 * time.Microsecond, Jitter: 3 * time.Microsecond,
			DropProb: 0.2, ReorderProb: 0.3, ReorderDelay: 20 * time.Microsecond,
		})
		c := &collector{eng: eng}
		net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
		net.AddNode(2, c, ProcConfig{})
		for i := 0; i < 200; i++ {
			net.Send(1, 2, i)
		}
		eng.Run(sim.Time(time.Second))
		return c.times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different delivery counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d", i)
		}
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate node")
		}
	}()
	_, net := newNet(1, LinkConfig{})
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
}

func TestReorderingCanInvertOrder(t *testing.T) {
	// With reordering enabled, some pair of messages must arrive out
	// of send order (statistically certain with 500 sends).
	eng, net := newNet(7, LinkConfig{
		Latency: time.Microsecond, ReorderProb: 0.5, ReorderDelay: 100 * time.Microsecond,
	})
	c := &collector{}
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.AddNode(2, c, ProcConfig{})
	for i := 0; i < 500; i++ {
		net.Send(1, 2, i)
	}
	eng.Run(sim.Time(time.Second))
	inverted := false
	for i := 1; i < len(c.msgs); i++ {
		if c.msgs[i].(int) < c.msgs[i-1].(int) {
			inverted = true
			break
		}
	}
	if !inverted {
		t.Fatal("no reordering observed")
	}
}

// hinter records each Prefetch and Recv with the simulated time it ran.
type hinter struct {
	eng *sim.Engine
	log []string
	at  map[string]sim.Time // a message's Prefetch time
}

func (h *hinter) Prefetch(msg Message) {
	h.log = append(h.log, "prefetch "+msg.(string))
	h.at[msg.(string)] = h.eng.Now()
}

func (h *hinter) Recv(_ NodeID, msg Message) {
	h.log = append(h.log, "recv "+msg.(string))
}

// TestPrefetchAtServiceStart: a serving node's handler is hinted once
// per message, with that message, when a worker starts it (a service
// cost before its Recv), both for a message that finds a worker idle
// and for one that waited in the queue. A line-rate node's handler is
// never hinted, nor is a message dropped at a down node, on arrival or
// from the queue it was waiting in.
func TestPrefetchAtServiceStart(t *testing.T) {
	const cost = 10 * time.Microsecond
	eng, net := newNet(1, LinkConfig{Latency: time.Microsecond})
	served := &hinter{eng: eng, at: map[string]sim.Time{}}
	lineRate := &hinter{eng: eng, at: map[string]sim.Time{}}
	net.AddNode(1, HandlerFunc(func(NodeID, Message) {}), ProcConfig{})
	net.AddNode(2, served, ProcConfig{Workers: 2, Cost: func(Message) time.Duration { return cost }})
	net.AddNode(3, lineRate, ProcConfig{})
	for _, m := range []string{"a", "b", "c", "d"} {
		net.Send(1, 2, m)
		net.Send(1, 3, m)
	}
	eng.Run(sim.Time(time.Millisecond))
	want := []string{"prefetch a", "prefetch b", "recv a", "prefetch c", "recv b", "prefetch d", "recv c", "recv d"}
	if !slices.Equal(served.log, want) {
		t.Fatalf("served node saw %q, want %q", served.log, want)
	}
	// a and b start on arrival at 1µs, c and d when a and b finish.
	for m, start := range map[string]time.Duration{"a": 1, "b": 1, "c": 11, "d": 11} {
		if got := served.at[m]; got != sim.Time(start*time.Microsecond) {
			t.Fatalf("%s hinted at %v, want %v", m, time.Duration(got), start*time.Microsecond)
		}
	}
	if len(lineRate.log) != 4 || len(lineRate.at) != 0 {
		t.Fatalf("line-rate node saw %q", lineRate.log)
	}

	// Down node: one message in service and two queued when it goes
	// down, then one more arrival while it is down.
	served.log = nil
	for _, m := range []string{"e", "f", "g", "h"} {
		net.Send(1, 2, m)
	}
	eng.RunFor(2 * time.Microsecond) // e and f in service, g and h queued
	net.SetDown(2, true)
	net.Send(1, 2, "i")
	eng.RunFor(time.Millisecond)
	if want := []string{"prefetch e", "prefetch f"}; !slices.Equal(served.log, want) {
		t.Fatalf("down node saw %q, want %q", served.log, want)
	}
}
