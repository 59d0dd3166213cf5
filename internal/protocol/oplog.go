package protocol

import (
	"fmt"

	"harmonia/internal/wire"
)

// LogEntry is one slot of a replicated op log.
type LogEntry struct {
	// Pkt is the sequenced write; nil marks a NO-OP slot (NOPaxos gap
	// agreement).
	Pkt *wire.Packet
	// Acks is the leader's ack set for the op, one bit per replica index
	// (VR's leader, PB's primary). It is private to the log it sits in:
	// Copy ships it as zero.
	Acks uint64
}

// OpLog is a window (Base, Last] over a history of writes numbered
// from 1, held in a power-of-two ring: the op log of VR and NOPaxos,
// and the in-flight writes of PB's primary, of a chain node's resend
// buffer and of a CRAQ node, which trim at commit. The log owns one
// packet reference per entry — Append takes over the caller's, TrimTo
// and Truncate release — so a write's packet returns to the pool once
// every holder has trimmed it.
//
// In the quorum protocols the trim point is protocol state, not a
// setting: a replica trims only
// what every live member of its group has executed (§7.3's completion
// point in VR, the minimum acknowledged sync point in NOPaxos), so no
// live member can ever need a trimmed entry — state transfer, view
// changes and gap fills are all served from the window, and no snapshot
// path exists. The one party that can truly need what is gone is a
// member that was declared dead and came back, which the protocols (for
// a request) and Adopt (for a received log) panic on, since rejoin is
// not modelled.
//
// The zero value is an empty log. A *LogEntry returned by At points
// into the ring and is valid until the next Append.
type OpLog struct {
	ring []LogEntry // len 0 or a power of two; op lives at (op-1)&mask
	base uint64     // ops 1..base are trimmed
	last uint64     // newest op; base == last when the window is empty
}

// Base returns the number of trimmed ops: the window starts at Base+1.
func (l *OpLog) Base() uint64 { return l.base }

// Last returns the op number of the newest entry (the log's length
// counting what was trimmed).
func (l *OpLog) Last() uint64 { return l.last }

// Len returns the number of entries held.
func (l *OpLog) Len() int { return int(l.last - l.base) }

// Append adds the next op, taking over the caller's reference to pkt
// (nil for a NO-OP).
func (l *OpLog) Append(pkt *wire.Packet, acks uint64) {
	if l.Len() == len(l.ring) {
		l.grow()
	}
	l.ring[l.last&uint64(len(l.ring)-1)] = LogEntry{Pkt: pkt, Acks: acks}
	l.last++
}

func (l *OpLog) grow() {
	ring := make([]LogEntry, max(16, 2*len(l.ring)))
	for op := l.base + 1; op <= l.last; op++ {
		ring[(op-1)&uint64(len(ring)-1)] = *l.slot(op)
	}
	l.ring = ring
}

func (l *OpLog) slot(op uint64) *LogEntry { return &l.ring[(op-1)&uint64(len(l.ring)-1)] }

// At returns the entry of op, which must lie in the window.
func (l *OpLog) At(op uint64) *LogEntry {
	if op-l.base-1 >= l.last-l.base { // op <= base wraps around
		l.outside(op)
	}
	return l.slot(op)
}

func (l *OpLog) outside(op uint64) {
	if op > l.last {
		panic(fmt.Sprintf("protocol: op %d is beyond the log (last op %d)", op, l.last))
	}
	panic(fmt.Sprintf("protocol: op %d is below the log window (first retained op %d): it was trimmed "+
		"because every live member had executed it", op, l.base+1))
}

// Find returns the op whose write carries seq, by bisection: the
// window must hold writes (no NO-OP) in ascending Seq order, as PB's
// pending writes and CRAQ's dirty versions do. ok is false when no
// entry carries seq.
func (l *OpLog) Find(seq wire.Seq) (op uint64, ok bool) {
	lo, hi := l.base+1, l.last+1
	for lo < hi {
		if mid := lo + (hi-lo)/2; l.slot(mid).Pkt.Seq.Less(seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo <= l.last && l.slot(lo).Pkt.Seq == seq
}

// TrimTo releases every entry up to and including op (clamped to Last).
func (l *OpLog) TrimTo(op uint64) {
	for op = min(op, l.last); l.base < op; {
		l.base++
		l.drop(l.base)
	}
}

// truncate releases every entry above op, which becomes Last.
func (l *OpLog) truncate(op uint64) {
	if op < l.base {
		l.outside(op + 1)
	}
	for ; l.last > op; l.last-- {
		l.drop(l.last)
	}
}

func (l *OpLog) drop(op uint64) {
	e := l.slot(op)
	if e.Pkt != nil {
		e.Pkt.Release()
	}
	*e = LogEntry{}
}

// Copy returns the entries of ops from..to for a by-value message, and
// the op number of the first one. The copy owns one reference per
// packet: the message's Release method gives them back through
// ReleaseEntries — called by its handler when done, or by the network
// when it drops the message — and a log that keeps any (Adopt) takes
// its own. An empty range returns nil.
//
// A range that reaches below the window is served from the window's
// start. Nobody live needs what was trimmed, but catch-up requests get
// overtaken: one can arrive after its sender caught up some other way
// and acknowledged executing past it. The sender tells by the first op
// number, and drops a reply that does not continue its log.
func (l *OpLog) Copy(from, to uint64) (first uint64, ents []LogEntry) {
	from = max(from, l.base+1)
	if from > to {
		return from, nil
	}
	l.At(to)
	ents = make([]LogEntry, 0, to-from+1)
	for op := from; op <= to; op++ {
		pkt := l.slot(op).Pkt
		if pkt != nil {
			pkt.Retain()
		}
		ents = append(ents, LogEntry{Pkt: pkt})
	}
	return from, ents
}

// ReleaseEntries drops the references a Copy took.
func ReleaseEntries(ents []LogEntry) {
	for _, e := range ents {
		if e.Pkt != nil {
			e.Pkt.Release()
		}
	}
}

// Adopt installs entries received in a message — ents[0] is op first —
// above the receiver's own prefix 1..keep: whatever the log held above
// keep is released, and the entries from keep+1 on are appended, each
// with a reference of the log's own. The message must reach down to
// keep+1; one that starts higher was cut from a window this replica
// has fallen out of.
func (l *OpLog) Adopt(first uint64, ents []LogEntry, keep uint64) {
	if first > keep+1 {
		panic(fmt.Sprintf("protocol: received log starts at op %d, above this replica's op %d: it fell out "+
			"of the group's log window and would have to rejoin from a snapshot, which is not modelled",
			first, keep+1))
	}
	l.truncate(keep)
	for _, e := range ents[min(keep+1-first, uint64(len(ents))):] {
		if e.Pkt != nil {
			e.Pkt.Retain()
		}
		l.Append(e.Pkt, 0)
	}
}
