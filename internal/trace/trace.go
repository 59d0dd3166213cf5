// Package trace is the observability layer: sampled per-operation
// spans with a latency decomposition, and a bounded flight recorder of
// control-plane events (recorder.go).
//
// A Span is a pooled, fixed-size record that rides a sampled operation
// from client enqueue to completion. Every hook along the way — the
// client driver, the simulated network's arrive/serve/complete events,
// the switch sequencer, the front-end's drop paths — stamps the span
// with the current simulated time, and each stamp attributes the time
// since the PREVIOUS stamp to exactly one phase accumulator
// (telescoping deltas). Because the simulation fires events in global
// timestamp order, the deltas are never negative and the five phases
// sum exactly to the span's end-to-end latency; the reconciliation is
// an identity, not an estimate.
//
// The phases and their boundaries:
//
//   - Queue: from a packet's arrival at a busy replica until a worker
//     starts serving it (the simnet queue wait), plus the zero-width
//     switch-sequencing stamp.
//   - Service: from serve start to service completion at a replica
//     (the modeled per-op CPU cost).
//   - Network: everything in flight — link propagation, switch
//     forwarding, and protocol-internal replication legs (chain
//     propagation, multicast fan-out) that carry no stamps of their
//     own and therefore collapse into the in-flight remainder.
//   - Retry: from a resend-triggering moment (timeout, explicit
//     dropped-reply) back to the wire, when the stall was NOT a frozen
//     or stalled slot — lost packets, reordering, crashed switches.
//   - FrozenStall: the same resend gap when the front-end explicitly
//     dropped the packet because its slot was frozen mid-migration or
//     the switch was stalled rebooting — the migration tax, separated
//     from network-loss retries so a chaos run's dip is attributable.
//
// Writes replicated to several replicas in parallel interleave their
// per-replica stamps in event order; each leg's queue/service time is
// counted once and the overlap lands in Network. The attribution of
// overlapped legs is therefore approximate, but the total never
// double-counts and the phase sum stays exact.
//
// Spans are preallocated in a fixed-capacity table and recycled
// through a free list; a span reference encodes both the table index
// and a generation counter, so a stale reference held by a late packet
// (a duplicate reply, a multicast leg landing after completion) stamps
// nothing instead of corrupting the slot's next tenant. With tracing
// disabled every hook is nil-guarded and the data plane stays
// 0 allocs/op.
package trace

import "harmonia/internal/sim"

// Phase indexes one latency-decomposition accumulator. See the package
// comment for each phase's exact boundaries.
type Phase uint8

const (
	PhaseQueue Phase = iota
	PhaseService
	PhaseNetwork
	PhaseRetry
	PhaseFrozenStall
	NumPhases
)

// String names the phase for reports and trace dumps.
func (p Phase) String() string {
	switch p {
	case PhaseQueue:
		return "queue"
	case PhaseService:
		return "service"
	case PhaseNetwork:
		return "network"
	case PhaseRetry:
		return "retry"
	case PhaseFrozenStall:
		return "frozen-stall"
	}
	return "unknown"
}

// HopKind labels one stamped hop of a span's journey.
type HopKind uint8

const (
	// HopIssue is the client enqueueing the operation (span start).
	HopIssue HopKind = iota
	// HopSwitchArrive is the packet landing on a switch front-end.
	HopSwitchArrive
	// HopSwitchSeq is the sequencer assigning the write's sequence
	// number (zero-width: same instant as the switch arrival).
	HopSwitchSeq
	// HopReplicaArrive is the packet landing on a replica node.
	HopReplicaArrive
	// HopReplicaServe is a replica worker starting to serve it.
	HopReplicaServe
	// HopReplicaDone is the replica's service completing.
	HopReplicaDone
	// HopClientArrive is a reply landing back on the client node.
	HopClientArrive
	// HopDrop is the front-end explicitly dropping the packet
	// (frozen slot, stalled switch, or misrouted epoch).
	HopDrop
	// HopResend is the client putting the operation back on the wire
	// (retry timeout or immediate reissue of a dropped reply).
	HopResend
	// HopComplete is the client completing the operation (span end).
	HopComplete
)

// String names the hop kind for trace dumps.
func (k HopKind) String() string {
	switch k {
	case HopIssue:
		return "issue"
	case HopSwitchArrive:
		return "switch-arrive"
	case HopSwitchSeq:
		return "switch-seq"
	case HopReplicaArrive:
		return "replica-arrive"
	case HopReplicaServe:
		return "replica-serve"
	case HopReplicaDone:
		return "replica-done"
	case HopClientArrive:
		return "client-arrive"
	case HopDrop:
		return "drop"
	case HopResend:
		return "resend"
	case HopComplete:
		return "complete"
	}
	return "unknown"
}

// MaxHops bounds the per-span hop log. A span whose op bounces more
// than this keeps accumulating phase time; only the hop LOG saturates.
const MaxHops = 16

// Hop is one stamped waypoint.
type Hop struct {
	Kind HopKind
	Node int32
	At   sim.Time
}

// Span is one sampled operation's record. It is pooled: callers never
// allocate or retain one past Release.
type Span struct {
	Start sim.Time
	End   sim.Time
	Write bool
	Group int16
	Sw    int16

	Hops   [MaxHops]Hop
	NHops  uint8
	Phases [NumPhases]sim.Duration

	// lastT is the previous stamp's time; each stamp attributes
	// now−lastT to one phase, so the phases telescope to End−Start.
	lastT sim.Time
	// frozenPending marks that the most recent stall was an explicit
	// front-end drop (frozen/stalled), so the NEXT resend gap is
	// attributed to FrozenStall rather than Retry.
	frozenPending bool

	gen  uint32
	used bool
}

// Total is the span's end-to-end latency.
func (s *Span) Total() sim.Duration { return sim.Duration(s.End - s.Start) }

// PhaseSum is the sum of the five phase accumulators; by construction
// it equals Total for a completed span.
func (s *Span) PhaseSum() sim.Duration {
	var sum sim.Duration
	for _, d := range s.Phases {
		sum += d
	}
	return sum
}

// Config sizes the span sampler. The zero value disables tracing.
type Config struct {
	// SampleEvery traces one in every SampleEvery operations
	// (1 = every op). 0 disables span tracing entirely; the guarded
	// fast paths then stay 0 allocs/op.
	SampleEvery int
	// Capacity is the span table size — the maximum number of traced
	// operations in flight at once (default 1024). When the table is
	// exhausted sampling skips ops (counted in SpansDropped) until
	// spans are released.
	Capacity int
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	return c
}

// Tracer owns the preallocated span table and the sampling decision.
// It is single-threaded, like the simulation that drives it.
type Tracer struct {
	cfg   Config
	now   func() sim.Time
	spans []Span
	free  []int32
	count uint64 // ops seen by Sample

	// SpansStarted and SpansDropped count sampling outcomes: started
	// spans, and sample hits skipped because the table was exhausted.
	SpansStarted uint64
	SpansDropped uint64
}

// NewTracer builds a tracer reading the injected simulated clock.
// A nil return means tracing is disabled (SampleEvery == 0).
func NewTracer(cfg Config, now func() sim.Time) *Tracer {
	if cfg.SampleEvery <= 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	t := &Tracer{cfg: cfg, now: now, spans: make([]Span, cfg.Capacity)}
	t.free = make([]int32, cfg.Capacity)
	for i := range t.free {
		t.free[i] = int32(cfg.Capacity - 1 - i)
	}
	return t
}

// ref packs a span's table index and generation into the opaque
// reference that rides the packet (0 = untraced).
func ref(idx int32, gen uint32) uint64 {
	return uint64(idx+1) | uint64(gen)<<32
}

// span resolves a reference, returning nil when the reference is 0 or
// stale (the slot was released and recycled since).
func (t *Tracer) span(r uint64) *Span {
	idx := int32(r&0xffffffff) - 1
	if idx < 0 || int(idx) >= len(t.spans) {
		return nil
	}
	s := &t.spans[idx]
	if !s.used || s.gen != uint32(r>>32) {
		return nil
	}
	return s
}

// Sample makes the sampling decision for one operation and, when it
// hits, starts a span stamped HopIssue at the current time. It returns
// the span reference to ride the packet, or 0 (not sampled, or table
// exhausted). Zero allocations on every path.
func (t *Tracer) Sample(write bool, group, sw int16, node int32) uint64 {
	t.count++
	if t.count%uint64(t.cfg.SampleEvery) != 0 {
		return 0
	}
	if len(t.free) == 0 {
		t.SpansDropped++
		return 0
	}
	idx := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	s := &t.spans[idx]
	gen := s.gen + 1
	// Full reset: a recycled slot must not resurrect the previous
	// tenant's hop stamps or phase residue.
	*s = Span{gen: gen, used: true, Write: write, Group: group, Sw: sw}
	now := t.now()
	s.Start, s.lastT = now, now
	s.Hops[0] = Hop{Kind: HopIssue, Node: node, At: now}
	s.NHops = 1
	t.SpansStarted++
	return ref(idx, gen)
}

// Stamp attributes the time since the span's previous stamp to phase
// and logs a hop. Stale or zero references are ignored.
func (t *Tracer) Stamp(r uint64, kind HopKind, node int32, phase Phase) {
	s := t.span(r)
	if s == nil {
		return
	}
	now := t.now()
	s.Phases[phase] += sim.Duration(now - s.lastT)
	s.lastT = now
	if s.NHops < MaxHops {
		s.Hops[s.NHops] = Hop{Kind: kind, Node: node, At: now}
		s.NHops++
	}
}

// StampDrop records an explicit front-end drop: the in-flight time so
// far goes to Network, and the span is marked so the next resend gap
// is attributed to FrozenStall instead of Retry.
func (t *Tracer) StampDrop(r uint64, node int32) {
	s := t.span(r)
	if s == nil {
		return
	}
	t.Stamp(r, HopDrop, node, PhaseNetwork)
	s.frozenPending = true
}

// StampResend records the client putting the op back on the wire: the
// gap since the last stamp is the stall itself, attributed to
// FrozenStall when the front-end explicitly dropped the packet and to
// Retry otherwise (loss, reordering, a dead switch).
func (t *Tracer) StampResend(r uint64, node int32) {
	s := t.span(r)
	if s == nil {
		return
	}
	phase := PhaseRetry
	if s.frozenPending {
		phase = PhaseFrozenStall
		s.frozenPending = false
	}
	t.Stamp(r, HopResend, node, phase)
}

// Finish stamps the completion hop (final in-flight delta to Network),
// closes the span, and returns it for folding into histograms. The
// caller MUST call Release(r) once done reading it. Returns nil for a
// stale or zero reference.
func (t *Tracer) Finish(r uint64, node int32) *Span {
	s := t.span(r)
	if s == nil {
		return nil
	}
	t.Stamp(r, HopComplete, node, PhaseNetwork)
	s.End = s.lastT
	return s
}

// Release returns the span behind r to the free list. Safe on stale
// or zero references (no-op). Any reference to the slot becomes stale
// immediately: a late packet stamping it hits the generation check.
func (t *Tracer) Release(r uint64) {
	s := t.span(r)
	if s == nil {
		return
	}
	s.used = false
	t.free = append(t.free, int32(r&0xffffffff)-1)
}

// InFlight returns the number of live spans (table occupancy).
func (t *Tracer) InFlight() int { return len(t.spans) - len(t.free) }
