// Package ptest provides a lightweight in-memory harness for unit
// testing protocol replicas without the full cluster assembly: messages
// are delivered instantly (or manually), timers run on a real sim
// engine, and every switch-bound packet is captured for inspection.
package ptest

import (
	"math/rand"
	"time"

	"harmonia/internal/protocol"
	"harmonia/internal/sim"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// Handler mirrors simnet.Handler for registered replicas.
type Handler interface {
	Recv(from simnet.NodeID, msg simnet.Message)
}

// Env is a fake protocol.Env. All replicas in one Harness share a sim
// engine; Send delivers either immediately (synchronous) or via the
// engine with a fixed delay.
type Env struct {
	h    *Harness
	id   simnet.NodeID
	self int
}

var _ protocol.Env = (*Env)(nil)

// ID implements protocol.Env.
func (e *Env) ID() simnet.NodeID { return e.id }

// Send implements protocol.Env. A delayed send rides a recycled flight
// record, so the harness adds no allocation of its own to a protocol's
// message path.
func (e *Env) Send(to simnet.NodeID, msg any) {
	if e.h.Delay > 0 {
		f := e.h.flights.Get()
		*f = flight{from: e.id, to: to, msg: msg}
		e.h.Eng.AfterCall(e.h.Delay, e.h.land, f)
		return
	}
	e.h.deliver(e.id, to, msg)
}

// flight is one delayed message on its way.
type flight struct {
	from, to simnet.NodeID
	msg      any
}

// SendSwitch implements protocol.Env: packets to the switch are
// captured in order. Dead nodes' packets are swallowed and released.
func (e *Env) SendSwitch(pkt *wire.Packet) {
	if e.h.Dead[e.id] {
		pkt.Release()
		return
	}
	e.h.ToSwitch = append(e.h.ToSwitch, SwitchPacket{From: e.id, Pkt: pkt})
}

// After implements protocol.Env.
func (e *Env) After(d time.Duration, fn func()) sim.Timer { return e.h.Eng.After(d, fn) }

// Now implements protocol.Env.
func (e *Env) Now() sim.Time { return e.h.Eng.Now() }

// Rand implements protocol.Env.
func (e *Env) Rand() *rand.Rand { return e.h.Eng.Rand() }

// Msgs implements protocol.Env: one pool per harness.
func (e *Env) Msgs() *protocol.MsgPool { return e.h.msgs }

// Packets implements protocol.Env: the harness's packet pool.
func (e *Env) Packets() *wire.Pool { return &e.h.Pkts }

// SwitchPacket is a captured switch-bound packet.
type SwitchPacket struct {
	From simnet.NodeID
	Pkt  *wire.Packet
}

// Harness hosts a set of replicas with direct delivery.
type Harness struct {
	Eng      *sim.Engine
	Delay    time.Duration // 0 = synchronous delivery
	handlers map[simnet.NodeID]Handler
	msgs     *protocol.MsgPool
	flights  protocol.FreeList[flight]
	// Pkts is the packet pool of every replica on the harness. Tests
	// draw the packets they inject from it, so its Live count is their
	// leak check.
	Pkts wire.Pool
	land func(any) // delivers a *flight; bound once

	// ToSwitch records every SendSwitch call in order.
	ToSwitch []SwitchPacket
	// Dropped counts sends to unknown, blackholed or dead nodes.
	Dropped int
	// Blackhole, when set, swallows protocol messages to these nodes.
	Blackhole map[simnet.NodeID]bool
	// Dead nodes neither receive nor send anything (crash model).
	Dead map[simnet.NodeID]bool
}

// NewHarness builds an empty harness.
func NewHarness(seed int64) *Harness {
	h := &Harness{
		Eng:       sim.NewEngine(seed),
		handlers:  make(map[simnet.NodeID]Handler),
		msgs:      protocol.NewMsgPool(),
		Blackhole: make(map[simnet.NodeID]bool),
		Dead:      make(map[simnet.NodeID]bool),
	}
	h.land = func(a any) {
		f := h.flights.Take(a.(*flight))
		h.deliver(f.from, f.to, f.msg)
	}
	return h
}

// Env creates the environment for a replica at address id with group
// index self.
func (h *Harness) Env(id simnet.NodeID, self int) *Env {
	return &Env{h: h, id: id, self: self}
}

// Register attaches a handler to an address.
func (h *Harness) Register(id simnet.NodeID, hd Handler) { h.handlers[id] = hd }

// deliver hands msg to its destination; a message it drops is
// released, as the network releases it.
func (h *Harness) deliver(from, to simnet.NodeID, msg any) {
	hd, ok := h.handlers[to]
	if !ok || h.Blackhole[to] || h.Dead[to] || h.Dead[from] {
		h.Dropped++
		simnet.Discard(msg)
		return
	}
	hd.Recv(from, msg)
}

// Inject delivers a message to a node as if from "from".
func (h *Harness) Inject(from, to simnet.NodeID, msg any) { h.deliver(from, to, msg) }

// Run advances simulated time (drives timers and delayed sends).
func (h *Harness) Run(d time.Duration) { h.Eng.RunFor(d) }

// LastToSwitch returns the most recent switch-bound packet, or nil.
func (h *Harness) LastToSwitch() *wire.Packet {
	if len(h.ToSwitch) == 0 {
		return nil
	}
	return h.ToSwitch[len(h.ToSwitch)-1].Pkt
}

// DrainSwitch releases every captured switch-bound packet, as the
// switch would, and reports how many of them were write replies and
// write completions.
func (h *Harness) DrainSwitch() (replies, completions int) {
	for _, sp := range h.ToSwitch {
		switch sp.Pkt.Op {
		case wire.OpWriteReply:
			replies++
		case wire.OpWriteCompletion:
			completions++
		}
		sp.Pkt.Release()
	}
	h.ToSwitch = h.ToSwitch[:0]
	return replies, completions
}

// Unheld returns the references live in the harness's pool that no
// replica of reps holds: 0 once everything sent has been consumed, and
// positive when a packet leaked.
func Unheld[R interface{ HeldPackets() int }](h *Harness, reps []R) int {
	n := h.Pkts.Live()
	for _, r := range reps {
		n -= r.HeldPackets()
	}
	return n
}

// SwitchPacketsOf filters captured packets by op.
func (h *Harness) SwitchPacketsOf(op wire.Op) []*wire.Packet {
	var out []*wire.Packet
	for _, sp := range h.ToSwitch {
		if sp.Pkt.Op == op {
			out = append(out, sp.Pkt)
		}
	}
	return out
}

// Grant gives every registered replica a fast-read lease for epoch
// lasting d from now, via the control-plane message path.
func (h *Harness) Grant(epoch uint32, d time.Duration) {
	expiry := h.Eng.Now() + sim.Time(d)
	for id, hd := range h.handlers {
		_ = id
		hd.Recv(0, protocol.LeaseGrant{Epoch: epoch, Expiry: expiry})
	}
}
