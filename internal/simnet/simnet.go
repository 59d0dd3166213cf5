// Package simnet simulates a rack-scale network on top of the
// discrete-event engine in internal/sim.
//
// Each node is an endpoint with a handler and a processor model: k
// workers that each serve one message at a time, with a per-message
// service cost supplied by the node's owner. Messages travel over links
// with configurable latency, jitter, drop, duplication, and reordering.
// The processor model is what turns protocol structure into throughput:
// a chain-replication tail saturates when its workers are busy full
// time, exactly like the Redis backends in the paper's testbed.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"harmonia/internal/sim"
	"harmonia/internal/wire"
)

// NodeID identifies an endpoint. Cluster assembly assigns stable IDs:
// clients, switch, replicas.
type NodeID int32

// Broadcast is a reserved pseudo-address; the network does not route
// it, but components use it to mean "all replicas" in their own logic.
const Broadcast NodeID = -1

// Message is anything deliverable to a node. Client-facing traffic is
// *wire.Packet; protocol-internal messages are plain Go values or
// pointers to recycled records the receiver puts back (the ownership
// rule is in internal/protocol/msgs.go). The network copies neither: a
// duplicating link delivers the same Message twice, which a *Packet's
// reference count covers and a recycled record does not.
type Message any

// Discard releases the packet references of a message the network
// drops (down node, missing destination, link loss, queue overflow, a
// crash): a *wire.Packet's own, or those of any message with a Release
// method.
func Discard(msg Message) {
	if m, ok := msg.(interface{ Release() }); ok {
		m.Release()
	}
}

// Handler consumes delivered messages. Handlers run to completion on
// the simulation's single thread; they may send messages and set
// timers but must not block.
type Handler interface {
	Recv(from NodeID, msg Message)
}

// Prefetcher is an optional Handler method: Prefetch runs when a worker
// starts serving msg, a service time before Recv handles it, so a handler
// can start loading the memory Recv will read and the load overlaps the
// events in between. It must not change any state, send or schedule; it
// only hints. Line-rate nodes serve nothing and never call it.
type Prefetcher interface {
	Prefetch(msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from NodeID, msg Message)

// Recv implements Handler.
func (f HandlerFunc) Recv(from NodeID, msg Message) { f(from, msg) }

// LinkConfig describes one direction of a link.
type LinkConfig struct {
	// Latency is the one-way propagation + switching delay.
	Latency time.Duration
	// Jitter adds a uniform random [0, Jitter) to each message.
	Jitter time.Duration
	// DropProb drops a message with this probability.
	DropProb float64
	// DropFilter, when set, restricts DropProb to messages it matches;
	// everything else passes untouched. Used to inject targeted loss
	// (e.g. only write-completions).
	DropFilter func(msg Message) bool
	// DupProb delivers a duplicate copy with this probability.
	DupProb float64
	// ReorderProb delays a message by an extra uniform [0,
	// ReorderDelay) with this probability, letting later messages pass
	// it.
	ReorderProb  float64
	ReorderDelay time.Duration
}

// ProcConfig describes a node's processing capacity.
type ProcConfig struct {
	// Workers is the number of parallel servers (e.g. 8 Redis shards
	// per storage node in the paper's prototype). Workers == 0 models
	// a line-rate device: messages are handled at arrival with zero
	// service time and no queueing, which is how the Tofino switch
	// behaves relative to server-scale load.
	Workers int
	// Cost returns the service time for a message. Only consulted when
	// Workers > 0. A nil Cost means zero service time.
	Cost func(msg Message) time.Duration
	// QueueLimit bounds the wait queue; excess arrivals are dropped.
	// 0 means unbounded.
	QueueLimit int
}

// link is one configured outgoing link: its config and the latest
// arrival scheduled on it.
type link struct {
	cfg  LinkConfig
	last sim.Time
}

type queued struct {
	from NodeID
	msg  Message
}

// Tracer observes the life of a message inside a node's processor
// model: arrival off the link, service start on a worker, and service
// completion. simnet knows nothing about packets or spans — the
// cluster installs an adapter that inspects the Message and stamps the
// op's trace span. All three hooks fire BEFORE the corresponding
// handler runs, so a handler that completes the op observes a fully
// stamped span. Line-rate nodes (Workers == 0) and queue-drop paths
// only see PacketArrive.
type Tracer interface {
	// PacketArrive fires when a message lands on node (after the link
	// delay), before queueing, service, or the handler.
	PacketArrive(node NodeID, msg Message)
	// PacketServe fires when a worker starts serving the message.
	PacketServe(node NodeID, msg Message)
	// PacketDone fires when service completes, before the handler.
	PacketDone(node NodeID, msg Message)
}

// SetTracer installs (or with nil removes) the network-wide tracer.
// The hooks are nil-guarded on the delivery path, so an uninstalled
// tracer costs one branch per event and zero allocations.
func (n *Network) SetTracer(t Tracer) { n.tracer = t }

// Node is a simulated endpoint.
type Node struct {
	id NodeID
	// inc counts crashes. A service completion scheduled before the
	// latest SetDown(true) carries an older value and is discarded, so
	// work abandoned by a crash can neither reach the handler nor hand
	// back a worker the crash already reset.
	inc     uint32
	net     *Network
	handler Handler
	pf      Prefetcher // handler's Prefetch, resolved once; nil if it has none
	cfg     ProcConfig

	// down and idle share a word, as id and inc do: a Node is 192 bytes,
	// so a block of 64 fills its size class exactly.
	down bool
	idle int32 // idle workers
	q    fifo

	// linkTo/links are this node's outgoing link overrides, parallel
	// slices scanned linearly by Send: a node overrides a handful of
	// links (a replica: its peers and the controller), and most sends —
	// every client, every switch — leave a node that overrides none.
	linkTo []NodeID
	links  []link

	// Stats
	Delivered uint64 // messages handed to the handler
	Dropped   uint64 // messages dropped (down node or full queue)
	BusyTime  time.Duration
}

// fifo is a node's wait queue: a power-of-two ring, so a message is
// enqueued and dequeued in constant time however deep the backlog (a
// saturated VR leader holds ~1000 waiting messages).
type fifo struct {
	buf  []queued
	head int
	n    int
}

func (f *fifo) push(q queued) {
	if f.n == len(f.buf) { // full: the oldest entry is at head, the newest just before it
		grown := make([]queued, max(2*len(f.buf), 16))
		k := copy(grown, f.buf[f.head:])
		copy(grown[k:], f.buf[:f.head])
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = q
	f.n++
}

func (f *fifo) pop() queued {
	q := f.buf[f.head]
	f.buf[f.head] = queued{} // the ring must not pin a served message
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return q
}

// arrival and completion are a node's two message callbacks: the
// engine carries an in-flight message in its event and hands it back
// with one word, the sender in the low half and, for a completion, the
// destination's crash count when service began in the high half (see
// Node.inc). Payloads are NOT copied anywhere on this path —
// duplication delivers the same Message twice — which is why packets
// are immutable once sequenced (see internal/wire).
type (
	arrival    Node
	completion Node
)

func (a *arrival) Call(msg any, w uint64) { (*Node)(a).arrive(NodeID(int32(w)), msg) }

func (c *completion) Call(msg any, w uint64) {
	(*Node)(c).complete(NodeID(int32(w)), uint32(w>>32), msg)
}

// pageBits sizes the node table's pages. Node IDs are sparse — switches
// and controller below 10, one 1024-wide window per replica group,
// clients from 1<<20 — so the table is a directory of 256-entry pages
// allocated on first use: two indexed loads find a node, no hashing.
const pageBits = 8

type nodePage [1 << pageBits]*Node

// Network owns the nodes and links.
type Network struct {
	eng         *sim.Engine
	rng         *rand.Rand
	pages       []*nodePage
	defaultLink LinkConfig

	// nodes is the list every Node is carved from; none is put back.
	nodes sim.FreeList[Node]

	// tracer, when non-nil, observes arrive/serve/complete on every
	// node (see Tracer).
	tracer Tracer

	// Sent counts every Send call, delivered or not.
	Sent uint64
}

// New creates a network on eng with the given default link config.
func New(eng *sim.Engine, def LinkConfig) *Network {
	return &Network{eng: eng, rng: eng.Rand(), defaultLink: def}
}

// AddNode registers a node. Panics on duplicate or negative IDs:
// topology is fixed at assembly time and either is a harness bug.
func (n *Network) AddNode(id NodeID, h Handler, cfg ProcConfig) *Node {
	if id < 0 {
		panic(fmt.Sprintf("simnet: negative node ID %d", id))
	}
	if n.Node(id) != nil {
		panic(fmt.Sprintf("simnet: duplicate node %d", id))
	}
	p := int(id >> pageBits)
	if p >= len(n.pages) {
		n.pages = append(n.pages, make([]*nodePage, p+1-len(n.pages))...)
	}
	if n.pages[p] == nil {
		n.pages[p] = new(nodePage)
	}
	nd := n.nodes.Get()
	*nd = Node{id: id, net: n, handler: h, cfg: cfg, idle: int32(cfg.Workers)}
	nd.pf, _ = h.(Prefetcher)
	n.pages[p][id&(1<<pageBits-1)] = nd
	return nd
}

// Node returns the node with the given ID, or nil.
func (n *Network) Node(id NodeID) *Node {
	p := int(id >> pageBits)
	if id < 0 || p >= len(n.pages) || n.pages[p] == nil {
		return nil
	}
	return n.pages[p][id&(1<<pageBits-1)]
}

// SetLink overrides the link config for the directed pair (from, to).
// The override lives on the sending node, which must exist. A
// configured link without ReorderProb is a FIFO channel, as TCP is:
// Jitter varies each message's delay, but a message never arrives
// before the one sent ahead of it on the same link.
func (n *Network) SetLink(from, to NodeID, cfg LinkConfig) {
	src := n.Node(from)
	if src == nil {
		panic(fmt.Sprintf("simnet: link override from unknown node %d", from))
	}
	for i, t := range src.linkTo {
		if t == to {
			src.links[i].cfg = cfg
			return
		}
	}
	src.linkTo = append(src.linkTo, to)
	src.links = append(src.links, link{cfg: cfg})
}

// SetLinkBoth overrides both directions.
func (n *Network) SetLinkBoth(a, b NodeID, cfg LinkConfig) {
	n.SetLink(a, b, cfg)
	n.SetLink(b, a, cfg)
}

// Send transmits msg from one node to another, applying the link's
// loss/latency model and then the destination's processor model. A
// down sender is silenced: its timers may still fire in the simulation
// but nothing it emits reaches the network, which is observationally
// equivalent to a crashed process.
func (n *Network) Send(from, to NodeID, msg Message) {
	n.Sent++
	src := n.Node(from)
	if src != nil && src.down {
		Discard(msg)
		return
	}
	dst := n.Node(to)
	if dst == nil {
		Discard(msg) // destination never existed; silently dropped like UDP
		return
	}
	cfg, last := &n.defaultLink, (*sim.Time)(nil)
	if src != nil {
		for i, t := range src.linkTo {
			if t == to {
				cfg, last = &src.links[i].cfg, &src.links[i].last
				break
			}
		}
	}
	if cfg.DupProb > 0 {
		// Take a provisional reference before the first transmit can
		// consume the sender's: each transmit call owns exactly one,
		// whether it schedules the arrival or drops the message.
		p, _ := msg.(*wire.Packet)
		if p != nil {
			p.Retain()
		}
		n.transmit(cfg, last, from, dst, msg)
		if n.rng.Float64() < cfg.DupProb {
			n.transmit(cfg, last, from, dst, msg)
		} else if p != nil {
			p.Release()
		}
		return
	}
	n.transmit(cfg, last, from, dst, msg)
}

// transmit schedules one arrival over a link; last, non-nil on a
// configured link, is that link's latest scheduled arrival.
func (n *Network) transmit(cfg *LinkConfig, last *sim.Time, from NodeID, dst *Node, msg Message) {
	if cfg.DropProb > 0 && (cfg.DropFilter == nil || cfg.DropFilter(msg)) &&
		n.rng.Float64() < cfg.DropProb {
		Discard(msg)
		return
	}
	d := cfg.Latency
	if cfg.Jitter > 0 {
		d += time.Duration(n.rng.Int63n(int64(cfg.Jitter)))
	}
	if cfg.ReorderProb > 0 && n.rng.Float64() < cfg.ReorderProb && cfg.ReorderDelay > 0 {
		d += time.Duration(n.rng.Int63n(int64(cfg.ReorderDelay)))
	}
	if last != nil && cfg.ReorderProb == 0 {
		// FIFO: never overtake the previous message (ties fire in
		// scheduling order).
		d = max(d, time.Duration(*last-n.eng.Now()))
		*last = n.eng.Now() + sim.Time(d)
	}
	n.eng.AfterMsg(d, (*arrival)(dst), msg, uint64(uint32(from)))
}

// SetDown marks a node failed (true) or recovered (false). A down node
// drops all arrivals and loses its queued messages, matching a crashed
// process or a switch that stops forwarding.
func (n *Network) SetDown(id NodeID, down bool) {
	nd := n.Node(id)
	if nd == nil {
		return
	}
	nd.down = down
	if down {
		nd.Dropped += uint64(nd.q.n)
		for nd.q.n > 0 {
			Discard(nd.q.pop().msg)
		}
		nd.q = fifo{}
		// In-service work is abandoned and its workers are idle again
		// at once; bumping inc makes complete() discard the completions
		// still scheduled for it, even if the node is back up by then.
		nd.inc++
		nd.idle = int32(nd.cfg.Workers)
	}
}

// IsDown reports the node's failure state.
func (n *Network) IsDown(id NodeID) bool {
	nd := n.Node(id)
	return nd != nil && nd.down
}

// arrive runs at message delivery time (after the link delay).
func (nd *Node) arrive(from NodeID, msg Message) {
	if nd.down {
		nd.Dropped++
		Discard(msg)
		return
	}
	if t := nd.net.tracer; t != nil {
		t.PacketArrive(nd.id, msg)
	}
	if nd.cfg.Workers == 0 {
		// Line-rate device: no queueing, no service delay.
		nd.Delivered++
		nd.handler.Recv(from, msg)
		return
	}
	if nd.idle > 0 {
		nd.idle--
		nd.serve(from, msg)
		return
	}
	if nd.cfg.QueueLimit > 0 && nd.q.n >= nd.cfg.QueueLimit {
		nd.Dropped++
		Discard(msg)
		return
	}
	nd.q.push(queued{from, msg})
}

// serve begins service for a message on a (now busy) worker.
func (nd *Node) serve(from NodeID, msg Message) {
	if nd.pf != nil {
		nd.pf.Prefetch(msg)
	}
	if t := nd.net.tracer; t != nil {
		t.PacketServe(nd.id, msg)
	}
	var cost time.Duration
	if nd.cfg.Cost != nil {
		cost = nd.cfg.Cost(msg)
	}
	nd.BusyTime += cost
	nd.net.eng.AfterMsg(cost, (*completion)(nd), msg, uint64(uint32(from))|uint64(nd.inc)<<32)
}

// complete runs when service finishes: the handler executes and the
// worker picks up the next queued message, if any. inc is the node's
// crash count when the service began.
func (nd *Node) complete(from NodeID, inc uint32, msg Message) {
	if inc != nd.inc {
		Discard(msg) // abandoned by a crash since
		return
	}
	if t := nd.net.tracer; t != nil {
		t.PacketDone(nd.id, msg)
	}
	nd.Delivered++
	nd.handler.Recv(from, msg)
	if nd.q.n > 0 {
		next := nd.q.pop()
		nd.serve(next.from, next.msg)
		return
	}
	nd.idle++
}

// QueueLen returns the number of waiting (not in-service) messages.
func (nd *Node) QueueLen() int { return nd.q.n }

// Utilization returns busy-time / (workers × elapsed), a 0..1 load
// factor, for the elapsed duration since the run started.
func (nd *Node) Utilization(elapsed time.Duration) float64 {
	if nd.cfg.Workers == 0 || elapsed <= 0 {
		return 0
	}
	return float64(nd.BusyTime) / (float64(nd.cfg.Workers) * float64(elapsed))
}

// ID returns the node's ID.
func (nd *Node) ID() NodeID { return nd.id }
