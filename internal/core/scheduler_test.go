package core

import (
	"testing"

	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

type sent struct {
	to  simnet.NodeID
	pkt *wire.Packet
}

type capture struct{ out []sent }

func (c *capture) Send(to simnet.NodeID, pkt *wire.Packet) {
	c.out = append(c.out, sent{to, pkt})
}

func (c *capture) last() sent { return c.out[len(c.out)-1] }

func newTestSched(mutate func(*Config)) (*Scheduler, *capture) {
	c := &capture{}
	cfg := Config{
		Epoch:         1,
		Stages:        3,
		SlotsPerStage: 64,
		Replicas:      []simnet.NodeID{1, 2, 3},
		WriteDst:      1,
		ReadDst:       3,
		ClientBase:    1000,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg, c), c
}

// prime drives one full write+completion through the scheduler so that
// it becomes ready for fast-path reads.
func prime(s *Scheduler, c *capture) {
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 999999, ClientID: 1})
	w := c.last().pkt
	s.Process(&wire.Packet{Op: wire.OpWriteReply, ObjID: w.ObjID, Seq: w.Seq, ClientID: 1})
}

func TestWriteGetsSequencedAndForwarded(t *testing.T) {
	s, c := newTestSched(nil)
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 42, ClientID: 5})
	if len(c.out) != 1 {
		t.Fatalf("sent %d packets", len(c.out))
	}
	got := c.last()
	if got.to != 1 {
		t.Fatalf("write went to %d, want WriteDst 1", got.to)
	}
	if got.pkt.Seq != (wire.Seq{Epoch: 1, N: 1}) {
		t.Fatalf("seq = %v", got.pkt.Seq)
	}
	if s.DirtyCount() != 1 {
		t.Fatalf("dirty count = %d", s.DirtyCount())
	}
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 43})
	if c.last().pkt.Seq.N != 2 {
		t.Fatal("sequence numbers not increasing")
	}
}

func TestReadOnDirtyObjectTakesNormalPath(t *testing.T) {
	s, c := newTestSched(nil)
	prime(s, c)
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 42})
	s.Process(&wire.Packet{Op: wire.OpRead, ObjID: 42, ClientID: 2})
	got := c.last()
	if got.to != 3 {
		t.Fatalf("dirty read to %d, want ReadDst 3", got.to)
	}
	if got.pkt.Flags&wire.FlagFastPath != 0 {
		t.Fatal("dirty read flagged fast-path")
	}
	if s.Stats.DirtyHits != 1 {
		t.Fatalf("DirtyHits = %d", s.Stats.DirtyHits)
	}
}

func TestReadOnCleanObjectFastPathStamped(t *testing.T) {
	s, c := newTestSched(nil)
	prime(s, c)
	lc := s.LastCommitted()
	s.Process(&wire.Packet{Op: wire.OpRead, ObjID: 7, ClientID: 2})
	got := c.last()
	if got.pkt.Flags&wire.FlagFastPath == 0 {
		t.Fatal("clean read not fast-pathed")
	}
	if got.pkt.LastCommitted != lc {
		t.Fatalf("stamped %v, want %v", got.pkt.LastCommitted, lc)
	}
	isReplica := got.to == 1 || got.to == 2 || got.to == 3
	if !isReplica {
		t.Fatalf("fast read sent to %d", got.to)
	}
}

func TestFastReadsDisabledUntilFirstOwnEpochCompletion(t *testing.T) {
	s, c := newTestSched(nil)
	if s.Ready() {
		t.Fatal("fresh switch claims ready")
	}
	s.Process(&wire.Packet{Op: wire.OpRead, ObjID: 7, ClientID: 2})
	if got := c.last(); got.to != 3 || got.pkt.Flags&wire.FlagFastPath != 0 {
		t.Fatalf("pre-ready read not on normal path: to=%d", got.to)
	}
	// A completion from an older epoch must not mark the switch ready.
	s.Process(&wire.Packet{Op: wire.OpWriteCompletion, ObjID: 1, Seq: wire.Seq{Epoch: 0, N: 5}})
	if s.Ready() {
		t.Fatal("stale completion marked switch ready")
	}
	if s.Stats.StaleCompletion != 1 {
		t.Fatalf("StaleCompletion = %d", s.Stats.StaleCompletion)
	}
	prime(s, c)
	if !s.Ready() {
		t.Fatal("own-epoch completion did not mark ready")
	}
}

func TestCompletionClearsDirtyAndAdvancesCommit(t *testing.T) {
	s, c := newTestSched(nil)
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 42})
	seq := c.last().pkt.Seq
	s.Process(&wire.Packet{Op: wire.OpWriteCompletion, ObjID: 42, Seq: seq})
	if s.DirtyCount() != 0 {
		t.Fatalf("dirty count = %d after completion", s.DirtyCount())
	}
	if s.LastCommitted() != seq {
		t.Fatalf("last committed = %v, want %v", s.LastCommitted(), seq)
	}
}

func TestCompletionKeepsEntryWithNewerPendingWrite(t *testing.T) {
	s, c := newTestSched(nil)
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 42})
	first := c.last().pkt.Seq
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 42}) // concurrent second write
	s.Process(&wire.Packet{Op: wire.OpWriteCompletion, ObjID: 42, Seq: first})
	if s.DirtyCount() != 1 {
		t.Fatal("completion of first write cleared entry with pending second write")
	}
}

func TestPiggybackedCompletionForwardsReply(t *testing.T) {
	s, c := newTestSched(nil)
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 42, ClientID: 9})
	seq := c.last().pkt.Seq
	s.Process(&wire.Packet{Op: wire.OpWriteReply, ObjID: 42, Seq: seq, ClientID: 9})
	got := c.last()
	if got.to != 1009 {
		t.Fatalf("reply routed to %d, want client 1009", got.to)
	}
	if s.DirtyCount() != 0 {
		t.Fatal("piggybacked completion not processed")
	}
}

func TestReadReplyPassesThrough(t *testing.T) {
	s, c := newTestSched(nil)
	s.Process(&wire.Packet{Op: wire.OpReadReply, ObjID: 1, ClientID: 4})
	if got := c.last(); got.to != 1004 {
		t.Fatalf("read reply to %d", got.to)
	}
}

func TestWriteDroppedWhenTableFull(t *testing.T) {
	s, c := newTestSched(func(cfg *Config) {
		cfg.Stages = 1
		cfg.SlotsPerStage = 1
	})
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 1})
	before := len(c.out)
	// Find an object that collides in the single slot: with one slot
	// every object collides.
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 2, ClientID: 7, ReqID: 42})
	if len(c.out) != before+1 {
		t.Fatalf("dropped write produced %d packets, want exactly the synthesized reply", len(c.out)-before)
	}
	// The write itself must not be forwarded; the switch instead
	// answers the client with a FlagDropped write reply so it can
	// retry immediately instead of waiting out its timeout.
	got := c.last()
	if got.to != 1007 {
		t.Fatalf("drop reply routed to %d, want client 1007", got.to)
	}
	rep := got.pkt
	if rep.Op != wire.OpWriteReply || rep.Flags&wire.FlagDropped == 0 {
		t.Fatalf("drop reply = %v, want WRITE-REPLY with FlagDropped", rep)
	}
	if rep.ReqID != 42 || rep.ObjID != 2 || rep.ClientID != 7 {
		t.Fatalf("drop reply lost request identity: %v", rep)
	}
	if !rep.Seq.IsZero() {
		t.Fatalf("drop reply carries seq %v; it must not look like a completion", rep.Seq)
	}
	if s.Stats.WritesDropped != 1 {
		t.Fatalf("WritesDropped = %d", s.Stats.WritesDropped)
	}
	if s.DirtyCount() != 1 {
		t.Fatalf("dirty count = %d after drop, want 1", s.DirtyCount())
	}
}

func TestForwardedReadBypassesDirtySet(t *testing.T) {
	s, c := newTestSched(nil)
	prime(s, c)
	s.Process(&wire.Packet{Op: wire.OpRead, ObjID: 5, Flags: wire.FlagForwarded})
	got := c.last()
	if got.to != 3 {
		t.Fatalf("forwarded read to %d, want ReadDst", got.to)
	}
	if got.pkt.Flags&wire.FlagFastPath != 0 {
		t.Fatal("forwarded read re-fast-pathed")
	}
	if s.Stats.ForwardedReads != 1 {
		t.Fatalf("ForwardedReads = %d", s.Stats.ForwardedReads)
	}
}

func TestLazyCleanupReclaimsStrayEntry(t *testing.T) {
	s, c := newTestSched(nil)
	// Write obj 42 (seq 1), then write obj 43 (seq 2). Completion for
	// 42 is lost; completion for 43 arrives, advancing last-committed
	// to 2. A read of 42 must reclaim the stray entry (1 ≤ 2) and go
	// fast path.
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 42})
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 43})
	seq43 := c.last().pkt.Seq
	s.Process(&wire.Packet{Op: wire.OpWriteCompletion, ObjID: 43, Seq: seq43})
	s.Process(&wire.Packet{Op: wire.OpRead, ObjID: 42, ClientID: 1})
	got := c.last()
	if got.pkt.Flags&wire.FlagFastPath == 0 {
		t.Fatal("read after stray-entry cleanup not fast-pathed")
	}
	if s.DirtyCount() != 0 {
		t.Fatalf("stray entry not reclaimed: dirty=%d", s.DirtyCount())
	}
	if s.Stats.LazyCleanups != 1 {
		t.Fatalf("LazyCleanups = %d", s.Stats.LazyCleanups)
	}
}

func TestLazyCleanupAblation(t *testing.T) {
	s, c := newTestSched(func(cfg *Config) { cfg.DisableLazyCleanup = true })
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 42})
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 43})
	seq43 := c.last().pkt.Seq
	s.Process(&wire.Packet{Op: wire.OpWriteCompletion, ObjID: 43, Seq: seq43})
	s.Process(&wire.Packet{Op: wire.OpRead, ObjID: 42, ClientID: 1})
	if got := c.last(); got.pkt.Flags&wire.FlagFastPath != 0 {
		t.Fatal("ablated scheduler still cleaned stray entry")
	}
	if s.DirtyCount() != 1 {
		t.Fatal("ablated scheduler reclaimed entry")
	}
}

func TestSweepStale(t *testing.T) {
	s, c := newTestSched(nil)
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 42})
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 43})
	seq43 := c.last().pkt.Seq
	s.Process(&wire.Packet{Op: wire.OpWriteCompletion, ObjID: 43, Seq: seq43})
	if n := s.SweepStale(); n != 1 {
		t.Fatalf("SweepStale = %d, want 1", n)
	}
	if s.DirtyCount() != 0 {
		t.Fatal("sweep left entries")
	}
}

func TestMulticastWrites(t *testing.T) {
	s, c := newTestSched(func(cfg *Config) { cfg.MulticastWrites = true })
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 42})
	if len(c.out) != 3 {
		t.Fatalf("multicast to %d nodes, want 3", len(c.out))
	}
	seen := map[simnet.NodeID]bool{}
	for _, m := range c.out {
		seen[m.to] = true
		if m.pkt.Seq.N != 1 {
			t.Fatal("multicast copies differ in seq")
		}
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Fatalf("multicast set wrong: %v", seen)
	}
	// Multicast shares one sequenced packet across all replicas:
	// packets are immutable once sequenced (internal/wire ownership
	// contract), so the switch sends N pointers, not N copies.
	if c.out[0].pkt != c.out[1].pkt || c.out[1].pkt != c.out[2].pkt {
		t.Fatal("multicast should share the sequenced packet")
	}
}

func TestDisableFastReads(t *testing.T) {
	s, c := newTestSched(func(cfg *Config) { cfg.DisableFastReads = true })
	prime(s, c)
	s.Process(&wire.Packet{Op: wire.OpRead, ObjID: 7})
	if got := c.last(); got.to != 3 || got.pkt.Flags&wire.FlagFastPath != 0 {
		t.Fatal("DisableFastReads not honored")
	}
}

func TestRemoveAddReplica(t *testing.T) {
	s, c := newTestSched(nil)
	prime(s, c)
	s.RemoveReplica(2)
	for i := 0; i < 50; i++ {
		s.Process(&wire.Packet{Op: wire.OpRead, ObjID: wire.ObjectID(100 + i)})
		if got := c.last(); got.to == 2 {
			t.Fatal("fast read scheduled to removed replica")
		}
	}
	s.AddReplica(2)
	s.AddReplica(2) // idempotent
	hit2 := false
	for i := 0; i < 200; i++ {
		s.Process(&wire.Packet{Op: wire.OpRead, ObjID: wire.ObjectID(500 + i)})
		if c.last().to == 2 {
			hit2 = true
			break
		}
	}
	if !hit2 {
		t.Fatal("re-added replica never selected")
	}
}

func TestSetTargets(t *testing.T) {
	s, c := newTestSched(nil)
	s.SetTargets(2, 2)
	s.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 1})
	if c.last().to != 2 {
		t.Fatal("write target not updated")
	}
	s.Process(&wire.Packet{Op: wire.OpRead, ObjID: 1}) // dirty → normal path
	if c.last().to != 2 {
		t.Fatal("read target not updated")
	}
}

func TestFastReadsSpreadAcrossReplicas(t *testing.T) {
	s, c := newTestSched(nil)
	prime(s, c)
	counts := map[simnet.NodeID]int{}
	for i := 0; i < 3000; i++ {
		s.Process(&wire.Packet{Op: wire.OpRead, ObjID: wire.ObjectID(i)})
		counts[c.last().to]++
	}
	for _, r := range []simnet.NodeID{1, 2, 3} {
		if counts[r] < 800 {
			t.Fatalf("replica %d got %d of 3000 reads; distribution %v", r, counts[r], counts)
		}
	}
}

func TestNewEpochSchedulerSequencesAboveOld(t *testing.T) {
	s1, c1 := newTestSched(nil)
	s1.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 1})
	old := c1.last().pkt.Seq
	s2, c2 := newTestSched(func(cfg *Config) { cfg.Epoch = 2 })
	s2.Process(&wire.Packet{Op: wire.OpWrite, ObjID: 1})
	if !old.Less(c2.last().pkt.Seq) {
		t.Fatal("new-epoch sequence numbers do not dominate old-epoch ones")
	}
}

func TestNonPacketMessageIgnored(t *testing.T) {
	s, _ := newTestSched(nil)
	s.Recv(1, "not a packet") // must not panic
}
