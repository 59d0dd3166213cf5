package trace

import "harmonia/internal/sim"

// EventKind identifies one class of control-plane event.
type EventKind uint8

const (
	// EvMigrationStart is a batch slot migration freezing Slot on
	// Group (the source); Arg carries the destination group.
	EvMigrationStart EventKind = iota
	// EvMigrationFlip is the migration's route flip: Slot now routes
	// to Group (the destination); Arg carries the source group.
	EvMigrationFlip
	// EvMigrationAbort is a migration thawing Slot back onto Group
	// after missing its deadline.
	EvMigrationAbort
	// EvRebalanceTick is a rebalancer round firing on Switch; Group
	// is the overloaded group's global ID (hosted on Switch), Arg the
	// number of planned one-way moves, Arg2 the planned swaps.
	EvRebalanceTick
	// EvRebalanceVeto is a tick whose trigger fired but whose round
	// came up empty: every candidate was cost-vetoed or busy. Group is
	// the overloaded group's global ID (hosted on Switch), Slot its
	// hottest slot (the promotion candidate), −1 when unknown.
	EvRebalanceVeto
	// EvHotPromote is a key promoted to per-key hot replication; Arg
	// is the object ID, Arg2 the holder count.
	EvHotPromote
	// EvHotInvalidate is a write landing on a promoted key: the
	// front-end pauses spread reads until the refresh. Arg is the
	// object ID, Arg2 the new write generation.
	EvHotInvalidate
	// EvHotRefresh is the refresh barrier completing: holder copies
	// are consistent again at write generation Arg2 for object Arg.
	EvHotRefresh
	// EvHotDemote is a cooled key dropping its foreign copies; Arg is
	// the object ID.
	EvHotDemote
	// EvTopoEpoch is a membership revision: group add/retire/respec
	// or weight change. Arg is the new topology epoch.
	EvTopoEpoch
	// EvAgreement is a completed §5.3 switch-replacement agreement on
	// Switch; Arg is the agreement latency in nanoseconds.
	EvAgreement
	// EvSwitchCrash is Switch going dark.
	EvSwitchCrash
	// EvSwitchReactivate is a replacement switch booting for Switch;
	// Arg is its new incarnation epoch.
	EvSwitchReactivate
)

// String names the event kind (also the Chrome trace event name).
func (k EventKind) String() string {
	switch k {
	case EvMigrationStart:
		return "migration-start"
	case EvMigrationFlip:
		return "migration-flip"
	case EvMigrationAbort:
		return "migration-abort"
	case EvRebalanceTick:
		return "rebalance-tick"
	case EvRebalanceVeto:
		return "rebalance-veto"
	case EvHotPromote:
		return "hotkey-promote"
	case EvHotInvalidate:
		return "hotkey-invalidate"
	case EvHotRefresh:
		return "hotkey-refresh"
	case EvHotDemote:
		return "hotkey-demote"
	case EvTopoEpoch:
		return "topo-epoch"
	case EvAgreement:
		return "agreement"
	case EvSwitchCrash:
		return "switch-crash"
	case EvSwitchReactivate:
		return "switch-reactivate"
	}
	return "unknown"
}

// Event is one structured flight-recorder entry. Fields not meaningful
// for a kind are left at their zero value (Slot uses −1 for "none").
type Event struct {
	At     sim.Time
	Kind   EventKind
	Switch int16
	Group  int16
	Slot   int16
	Arg    uint64
	Arg2   uint64
}

// DefaultEventCapacity bounds the flight recorder when the caller does
// not size it explicitly.
const DefaultEventCapacity = 4096

// Recorder is the bounded control-plane flight recorder: a ring of
// Events, oldest dropped on overflow. Emission is allocation-free
// after construction; the ring is single-threaded like the simulation.
type Recorder struct {
	now     func() sim.Time
	ring    []Event
	head    int // index of the oldest event
	n       int // live events
	dropped uint64
}

// NewRecorder builds a recorder of the given capacity (<=0 selects
// DefaultEventCapacity) reading the injected simulated clock.
func NewRecorder(capacity int, now func() sim.Time) *Recorder {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &Recorder{now: now, ring: make([]Event, capacity)}
}

// Emit records e, stamping e.At with the current simulated time. When
// the ring is full the oldest event is dropped and counted.
func (r *Recorder) Emit(e Event) {
	e.At = r.now()
	if r.n == len(r.ring) {
		r.ring[r.head] = e
		r.head = (r.head + 1) % len(r.ring)
		r.dropped++
		return
	}
	r.ring[(r.head+r.n)%len(r.ring)] = e
	r.n++
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return r.n }

// DroppedEvents returns how many events overflowed out of the ring.
func (r *Recorder) DroppedEvents() uint64 { return r.dropped }

// Events returns the retained events oldest-first, as a fresh slice.
func (r *Recorder) Events() []Event {
	out := make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.ring[(r.head+i)%len(r.ring)]
	}
	return out
}
