// Package core implements the paper's primary contribution: the
// Harmonia in-network request scheduler (Algorithm 1), which performs
// read-write conflict detection in the switch data plane.
//
// The scheduler tracks three pieces of soft state (§5):
//
//   - a monotonically increasing sequence number, stamped into every
//     write;
//   - the dirty set: object IDs with pending writes, each associated
//     with the largest sequence number of its outstanding writes,
//     stored in the multi-stage register-array hash table of
//     internal/dataplane;
//   - the last-committed point: the largest sequence number known to
//     be committed by the replication protocol.
//
// Reads for objects not in the dirty set are sent to a single random
// replica, stamped with the last-committed point so the replica can run
// the §7 visibility/integrity check locally; everything else follows
// the unmodified replication protocol. Sequence numbers are tagged with
// the switch incarnation's epoch and ordered lexicographically (epoch
// first), which is what makes switch reboot/replacement safe (§5.3).
package core

import (
	"harmonia/internal/dataplane"
	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// Sender abstracts packet output from the scheduler (the cluster wires
// it to the simulated network).
type Sender interface {
	Send(to simnet.NodeID, pkt *wire.Packet)
}

// SenderFunc adapts a function to Sender.
type SenderFunc func(to simnet.NodeID, pkt *wire.Packet)

// Send implements Sender.
func (f SenderFunc) Send(to simnet.NodeID, pkt *wire.Packet) { f(to, pkt) }

// Config parameterizes a scheduler instance for one replica group.
type Config struct {
	// Epoch is this switch incarnation's unique ID. Replacement
	// switches must use a strictly larger epoch (§5.3).
	Epoch uint32

	// Stages and SlotsPerStage size the dirty-set hash table. The
	// prototype in the paper uses 3 stages × 64K slots (§8).
	Stages        int
	SlotsPerStage int

	// Replicas are the data-plane addresses of the group members, used
	// for fast-path read scheduling.
	Replicas []simnet.NodeID

	// WriteDst receives writes on the normal path (primary, chain
	// head, or leader). Ignored when MulticastWrites is set.
	WriteDst simnet.NodeID

	// ReadDst receives normal-path reads (primary, chain tail, or
	// leader).
	ReadDst simnet.NodeID

	// MulticastWrites enables the NOPaxos OUM mode: sequenced writes
	// are delivered to every replica instead of a single entry point.
	// The Harmonia sequence number doubles as the OUM message number.
	MulticastWrites bool

	// ClientBase maps ClientID c to network address ClientBase +
	// NodeID(c) for reply routing.
	ClientBase simnet.NodeID

	// DisableFastReads turns Harmonia assistance off entirely: the
	// switch degrades to an L2/L3 forwarder for the normal protocol.
	// Used for baselines.
	DisableFastReads bool

	// RandomReads spreads every read over the replicas with no
	// conflict detection and no commit stamp, emulating client-side
	// load balancing. CRAQ uses this: its reads may land on any node
	// and the protocol itself resolves dirty objects via the tail.
	RandomReads bool

	// DisableLazyCleanup is an ablation switch: stray dirty-set
	// entries (from dropped WRITE-COMPLETIONs) are not reclaimed when
	// reads probe them (§5.2's cleanup rule).
	DisableLazyCleanup bool
}

// fastRand is an xorshift64* PRNG inlined into the scheduler: the
// per-read replica pick is a couple of ALU ops on a word of local
// state, matching what a real data plane would do with a hash of the
// packet header rather than calling into math/rand. It is seeded from
// the switch epoch, never from the simulation's shared RNG, so the
// scheduler's picks perturb no other component's random stream.
type fastRand uint64

func (r *fastRand) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = fastRand(x)
	return x * 0x2545f4914f6cdd1d
}

// intn returns a value in [0, n). The modulo bias is immaterial for
// replica counts (n ≤ a few dozen).
func (r *fastRand) intn(n int) int {
	return int(r.next() % uint64(n))
}

// Stats counts scheduler decisions; the evaluation harness reads them.
type Stats struct {
	Writes          uint64 // writes sequenced and forwarded
	WritesDropped   uint64 // writes dropped: dirty set had no free slot
	FastReads       uint64 // reads sent to a single random replica
	NormalReads     uint64 // reads sent down the normal protocol path
	DirtyHits       uint64 // reads that found their object contended
	Completions     uint64 // write-completions processed (current epoch)
	StaleCompletion uint64 // completions ignored (older epoch)
	LazyCleanups    uint64 // stray entries reclaimed on the read path
	ForwardedReads  uint64 // replica-rejected reads passed to normal path
	SweptStale      uint64 // stray entries reclaimed by periodic sweeps
}

// Scheduler is the in-switch request scheduler. It is driven entirely
// by packets on the data path plus a handful of control-plane methods
// (replica add/remove) invoked by the cluster controller.
type Scheduler struct {
	cfg   Config
	seqN  uint64 // per-epoch write counter
	dirty *dataplane.Table
	last  wire.Seq // last-committed point
	out   Sender
	pkts  *wire.Pool // where the replies the switch synthesizes come from (SetPackets)
	rng   fastRand

	// ready reports whether the switch has seen a WRITE-COMPLETION
	// carrying its own epoch. Until then it must not schedule
	// single-replica reads, because its dirty set and last-committed
	// point may not yet reflect reality (§5.3).
	ready bool

	// traceSeq, when set, fires as a TRACED write (pkt.Span != 0) is
	// assigned its sequence number — the span's switch-sequencing hop.
	// Untraced packets never invoke it.
	traceSeq func(pkt *wire.Packet)

	replicas []simnet.NodeID

	Stats Stats
}

// New builds a scheduler from cfg.
func New(cfg Config, out Sender) *Scheduler {
	if cfg.Stages <= 0 {
		cfg.Stages = 3
	}
	if cfg.SlotsPerStage <= 0 {
		cfg.SlotsPerStage = 64000
	}
	s := &Scheduler{
		cfg:      cfg,
		dirty:    dataplane.NewTable(cfg.Stages, cfg.SlotsPerStage),
		out:      out,
		replicas: append([]simnet.NodeID(nil), cfg.Replicas...),
	}
	s.rng = fastRand((uint64(cfg.Epoch)+1)*0x9e3779b97f4a7c15 | 1)
	return s
}

// Epoch returns the switch incarnation ID.
func (s *Scheduler) Epoch() uint32 { return s.cfg.Epoch }

// LastCommitted returns the switch's last-committed point.
func (s *Scheduler) LastCommitted() wire.Seq { return s.last }

// DirtyCount returns the number of tracked contended objects.
func (s *Scheduler) DirtyCount() int { return s.dirty.Used() }

// DirtyKey reports whether id currently holds a dirty-set entry — a
// write was sequenced through this partition and its completion has
// not yet traversed the switch (or the entry is a stray awaiting
// reclamation). The hot-key refresh path uses it as a commit barrier:
// while the entry stands, the newest value extractable from the
// replicas may predate the sequenced write, so a refresh must wait.
func (s *Scheduler) DirtyKey(id wire.ObjectID) bool {
	_, ok := s.dirty.Lookup(uint32(id))
	return ok
}

// Ready reports whether single-replica reads are enabled (first
// own-epoch WRITE-COMPLETION observed).
func (s *Scheduler) Ready() bool { return s.ready }

// Recv implements simnet.Handler: every packet to or from the replica
// group traverses the switch.
func (s *Scheduler) Recv(from simnet.NodeID, msg simnet.Message) {
	pkt, ok := msg.(*wire.Packet)
	if !ok {
		// Non-Harmonia traffic (protocol-internal messages relayed
		// through the ToR in a real deployment) is not examined here;
		// the cluster routes protocol messages directly.
		return
	}
	s.Process(pkt)
}

// Process applies Algorithm 1 to one packet and forwards it.
func (s *Scheduler) Process(pkt *wire.Packet) {
	switch pkt.Op {
	case wire.OpWrite:
		s.processWrite(pkt)
	case wire.OpWriteCompletion:
		s.processCompletion(pkt)
		// Standalone completion notifications terminate here.
		pkt.Release()
	case wire.OpWriteReply:
		// Completions are usually piggybacked on the write reply
		// (§5.1, Fig. 2b): process the completion, then forward the
		// reply to the client.
		if !pkt.Seq.IsZero() {
			s.processCompletion(pkt)
		}
		s.toClient(pkt)
	case wire.OpReadReply:
		s.toClient(pkt)
	case wire.OpRead:
		s.processRead(pkt)
	}
}

// SetPackets installs the packet pool of the scheduler's engine; until
// then the replies it synthesizes are left to the garbage collector.
func (s *Scheduler) SetPackets(pkts *wire.Pool) { s.pkts = pkts }

// SetTraceHook installs the sequencing-hop callback (see traceSeq).
func (s *Scheduler) SetTraceHook(fn func(pkt *wire.Packet)) { s.traceSeq = fn }

// processWrite implements Algorithm 1 lines 1–4.
func (s *Scheduler) processWrite(pkt *wire.Packet) {
	s.seqN++
	pkt.Seq = wire.Seq{Epoch: s.cfg.Epoch, N: s.seqN}
	if pkt.Span != 0 && s.traceSeq != nil {
		s.traceSeq(pkt)
	}
	if err := s.dirty.Insert(uint32(pkt.ObjID), s.seqN); err != nil {
		// No slot available in any stage: the switch drops the write
		// (§6.1) and synthesizes a FlagDropped reply so the client
		// learns immediately instead of burning a retry timeout (and
		// so open-loop writers, which never retry on their own, are
		// not left hanging forever).
		s.Stats.WritesDropped++
		rej := s.pkts.Reply(pkt, wire.OpWriteReply)
		rej.Flags = wire.FlagDropped
		s.toClient(rej)
		pkt.Release()
		return
	}
	s.Stats.Writes++
	if s.cfg.MulticastWrites {
		// One sequenced packet shared by every replica: the header was
		// stamped above and packets are immutable once sequenced (see
		// internal/wire), so OUM multicast is N sends of one pointer,
		// not N deep copies — the batched-multicast analogue of the
		// switch replicating a frame in the egress pipeline. Each
		// delivery consumes one reference, so the extras are taken up
		// front (before the first send can drop the packet to zero on a
		// lossy link).
		if len(s.replicas) == 0 {
			pkt.Release()
			return
		}
		for i := 1; i < len(s.replicas); i++ {
			pkt.Retain()
		}
		for _, r := range s.replicas {
			s.out.Send(r, pkt)
		}
		return
	}
	s.out.Send(s.cfg.WriteDst, pkt)
}

// processCompletion implements Algorithm 1 lines 5–8, restricted to the
// current epoch: the dirty set only ever contains current-epoch
// entries (register state is reset on reboot), so completions from
// earlier incarnations cannot clear anything and must not mark the
// switch ready.
func (s *Scheduler) processCompletion(pkt *wire.Packet) {
	if pkt.Seq.Epoch != s.cfg.Epoch {
		s.Stats.StaleCompletion++
		return
	}
	s.Stats.Completions++
	s.dirty.Delete(uint32(pkt.ObjID), pkt.Seq.N)
	s.last = s.last.Max(pkt.Seq)
	s.ready = true
}

// processRead implements Algorithm 1 lines 9–12 plus the §5.2 lazy
// cleanup of stray entries.
func (s *Scheduler) processRead(pkt *wire.Packet) {
	if s.cfg.RandomReads && len(s.replicas) > 0 {
		s.Stats.NormalReads++
		s.out.Send(s.replicas[s.rng.intn(len(s.replicas))], pkt)
		return
	}
	if pkt.Flags&wire.FlagForwarded != 0 {
		// A replica rejected this fast-path read; it is now a normal
		// protocol read regardless of dirty-set state.
		s.Stats.ForwardedReads++
		s.out.Send(s.cfg.ReadDst, pkt)
		return
	}
	contended := false
	if seqN, ok := s.dirty.Lookup(uint32(pkt.ObjID)); ok {
		// §5.2: stray entries (whose completions were lost) are
		// reclaimed as reads probe them, because in-order write
		// processing means a committed point at or beyond the entry's
		// sequence number proves the write finished.
		if !s.cfg.DisableLazyCleanup &&
			s.last.Epoch == s.cfg.Epoch && seqN <= s.last.N {
			s.dirty.CleanSlotIfStale(uint32(pkt.ObjID), s.last.N)
			s.Stats.LazyCleanups++
		} else {
			contended = true
		}
	}
	if contended || s.cfg.DisableFastReads || !s.ready || len(s.replicas) == 0 {
		if contended {
			s.Stats.DirtyHits++
		}
		s.Stats.NormalReads++
		s.out.Send(s.cfg.ReadDst, pkt)
		return
	}
	// Fast path: stamp the last-committed point and pick a random
	// replica. The stamped epoch equals this switch's epoch (the
	// switch is only ready after an own-epoch completion), which is
	// how replicas identify the sending switch incarnation.
	pkt.LastCommitted = s.last
	pkt.Flags |= wire.FlagFastPath
	s.Stats.FastReads++
	s.out.Send(s.replicas[s.rng.intn(len(s.replicas))], pkt)
}

// toClient routes a reply packet to its client.
func (s *Scheduler) toClient(pkt *wire.Packet) {
	s.out.Send(s.cfg.ClientBase+simnet.NodeID(pkt.ClientID), pkt)
}

// Replicas returns a copy of the current fast-path replica set. A
// replacement switch's scheduler is seeded from its predecessor's set
// so reconfigurations (crashed members removed) survive the §5.3
// handover.
func (s *Scheduler) Replicas() []simnet.NodeID {
	return append([]simnet.NodeID(nil), s.replicas...)
}

// SetReplicas replaces the fast-path replica set wholesale (replacement
// switch seeding; incremental changes use Add/RemoveReplica).
func (s *Scheduler) SetReplicas(ids []simnet.NodeID) {
	s.replicas = append(s.replicas[:0:0], ids...)
}

// Targets returns the current normal-path destinations, as last set by
// SetTargets (boot defaults otherwise).
func (s *Scheduler) Targets() (writeDst, readDst simnet.NodeID) {
	return s.cfg.WriteDst, s.cfg.ReadDst
}

// RemoveReplica takes a failed server out of the fast-path address set
// (§5.3, server failures). Normal-path destinations are updated by the
// cluster controller via SetTargets as the protocol reconfigures.
func (s *Scheduler) RemoveReplica(id simnet.NodeID) {
	out := s.replicas[:0]
	for _, r := range s.replicas {
		if r != id {
			out = append(out, r)
		}
	}
	s.replicas = out
}

// AddReplica re-adds a recovered or replacement server.
func (s *Scheduler) AddReplica(id simnet.NodeID) {
	for _, r := range s.replicas {
		if r == id {
			return
		}
	}
	s.replicas = append(s.replicas, id)
}

// SetTargets points the normal-path destinations at new nodes after a
// protocol reconfiguration (new primary, new chain tail, new leader).
func (s *Scheduler) SetTargets(writeDst, readDst simnet.NodeID) {
	s.cfg.WriteDst = writeDst
	s.cfg.ReadDst = readDst
}

// AdoptFrom carries the predecessor scheduler's sequencing state into
// this one: the per-epoch write counter, the last-committed point, and
// readiness. A staged membership swap (group respec) replaces a
// group's scheduler at the SAME switch epoch — unlike a switch
// replacement, which gets a fresh epoch — so the successor must
// continue the predecessor's sequence space rather than restart it;
// restarting would let two writes of one incarnation share a sequence
// number. The dirty set is not adopted: the swap only completes after
// the group fully drained, so the predecessor's set is empty.
func (s *Scheduler) AdoptFrom(old *Scheduler) {
	if old == nil || old.cfg.Epoch != s.cfg.Epoch {
		return
	}
	s.seqN = old.seqN
	s.last = old.last
	s.ready = old.ready
}

// SweepStale periodically reclaims all stray dirty-set entries at or
// below the last-committed point (§5.2's "can also be done
// periodically"). The cluster wires it to a per-partition timer so
// strays for never-again-read objects are reclaimed without waiting
// for a read probe.
func (s *Scheduler) SweepStale() int {
	if s.last.Epoch != s.cfg.Epoch {
		return 0
	}
	n := s.dirty.SweepStale(s.last.N)
	s.Stats.SweptStale += uint64(n)
	return n
}

// DirtyInSlots counts dirty-set entries whose object hashes to one of
// the given routing slots, in one register scan. The migration
// controller polls it to decide when frozen slots have drained:
// in-order write processing (§5.2) means that once the set holds
// nothing for them, every write the switch sequenced for them has
// either committed or can never apply, so the replicas' stores are the
// complete picture.
func (s *Scheduler) DirtyInSlots(slots []int) int {
	var want [wire.NumSlots]bool
	for _, sl := range slots {
		want[sl] = true
	}
	n := 0
	s.dirty.Scan(func(key uint32, _ uint64) {
		if want[wire.SlotOf(wire.ObjectID(key))] {
			n++
		}
	})
	return n
}
