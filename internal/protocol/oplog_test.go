package protocol

import (
	"strings"
	"testing"

	"harmonia/internal/wire"
)

// logWrite draws a write from pool, whose Live count then tells what
// the log still holds.
func logWrite(pool *wire.Pool, n uint64) *wire.Packet {
	p := pool.New()
	p.Op, p.Seq = wire.OpWrite, wire.Seq{Epoch: 1, N: n}
	return p
}

// TestOpLogWindow walks a window through appends, trims and ring
// growth: every op stays addressable by its number, and the window
// never holds more than it was given.
func TestOpLogWindow(t *testing.T) {
	var l OpLog
	var pool wire.Pool
	for op := uint64(1); op <= 1000; op++ {
		l.Append(logWrite(&pool, op), op)
		if op%3 == 0 {
			l.TrimTo(op - min(op, 40)) // a window of up to 40, crossing two growths
		}
		if l.Last() != op || l.Len() != int(op-l.Base()) || pool.Live() != l.Len() {
			t.Fatalf("after op %d: last %d, base %d, len %d, %d packets live", op, l.Last(), l.Base(), l.Len(), pool.Live())
		}
		for o := l.Base() + 1; o <= op; o++ {
			if e := l.At(o); e.Pkt.Seq.N != o || e.Acks != o {
				t.Fatalf("after op %d: slot %d holds seq %d acks %d", op, o, e.Pkt.Seq.N, e.Acks)
			}
		}
	}
	if len(l.ring) != 64 {
		t.Fatalf("ring of %d slots for a window of at most 43", len(l.ring))
	}
	l.TrimTo(5000) // clamped
	if l.Len() != 0 || l.Base() != 1000 || pool.Live() != 0 {
		t.Fatalf("trimmed past the end: base %d, len %d, %d packets live", l.Base(), l.Len(), pool.Live())
	}
}

// TestOpLogFind bisects a window of ascending, gapped sequence numbers
// across trims and ring growth.
func TestOpLogFind(t *testing.T) {
	var l OpLog
	var pool wire.Pool
	for op := uint64(1); op <= 200; op++ {
		l.Append(logWrite(&pool, 2*op), 0) // op carries seq 2·op
		l.TrimTo(op - min(op, 25))
		for n := uint64(0); n <= 2*op+2; n++ {
			got, ok := l.Find(wire.Seq{Epoch: 1, N: n})
			want := n%2 == 0 && n/2 > l.Base() && n/2 <= l.Last()
			if ok != want || (ok && got != n/2) {
				t.Fatalf("window (%d, %d]: Find(%d) = %d %v", l.Base(), l.Last(), n, got, ok)
			}
		}
	}
	if _, ok := l.Find(wire.Seq{Epoch: 0, N: 400}); ok {
		t.Fatal("found a seq of an earlier epoch")
	}
}

// TestOpLogOwnsOneReferencePerEntry: trimming, truncating and NO-OP
// slots release exactly what the log took, a copy holds references of
// its own, and Adopt keeps the receiver's prefix.
func TestOpLogOwnsOneReferencePerEntry(t *testing.T) {
	var src, dst OpLog
	var pool wire.Pool
	pkts := make([]*wire.Packet, 9) // pkts[op], ops 1..8
	for op := uint64(1); op <= 8; op++ {
		pkts[op] = logWrite(&pool, op)
		src.Append(pkts[op].Retain(), 0) // the test keeps a reference to look through
	}
	src.Append(nil, 0) // op 9, a NO-OP
	src.TrimTo(2)

	// dst has ops 1..5 of its own, 4 and 5 not executed; the message
	// covers 3..9 and replaces what is above dst's op 3.
	own := make([]*wire.Packet, 6)
	for op := uint64(1); op <= 5; op++ {
		own[op] = logWrite(&pool, op+100)
		dst.Append(own[op].Retain(), 0)
	}
	// The message asks from op 1, which src has trimmed: it gets the
	// window, from op 3.
	first, msg := src.Copy(1, 9)
	if first != 3 || len(msg) != 7 || msg[0].Pkt != pkts[3] || msg[6].Pkt != nil {
		t.Fatalf("copy of ops 1..9 from a window starting at 3: %d entries from op %d", len(msg), first)
	}
	dst.Adopt(3, msg, 3)
	ReleaseEntries(msg)
	if dst.Last() != 9 || dst.At(3).Pkt != own[3] || dst.At(4).Pkt != pkts[4] || dst.At(9).Pkt != nil {
		t.Fatalf("adopted log: last %d", dst.Last())
	}
	dst.truncate(6)
	dst.TrimTo(6)
	src.TrimTo(9)
	// Both logs are empty: the test's own reference is the last one.
	for op := 1; op <= 8; op++ {
		pkts[op].Release()
		if pkts[op].Managed() {
			t.Fatalf("op %d still referenced after both logs dropped it", op)
		}
	}
	for op := 1; op <= 5; op++ {
		own[op].Release()
		if own[op].Managed() {
			t.Fatalf("dst's own op %d still referenced", op)
		}
	}
	if pool.Live() != 0 {
		t.Fatalf("%d packet references live once every holder let go", pool.Live())
	}
}

// TestOpLogBelowWindowPanics: reading below the window is a bug in the
// caller, and a received log that starts above the receiver's own is
// the one case that would need a rejoin, which the panic names.
func TestOpLogBelowWindowPanics(t *testing.T) {
	var l OpLog
	for op := uint64(1); op <= 4; op++ {
		l.Append(nil, 0)
	}
	l.TrimTo(2)
	for _, tc := range []struct {
		name, want string
		reach      func()
	}{
		{"At", "below the log window", func() { l.At(2) }},
		{"truncate", "below the log window", func() { l.truncate(1) }},
		{"Adopt", "rejoin", func() { new(OpLog).Adopt(3, make([]LogEntry, 2), 0) }},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Fatalf("%s: panic %q, want one saying %q", tc.name, msg, tc.want)
				}
			}()
			tc.reach()
		}()
	}
}
