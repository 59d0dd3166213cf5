package protocol

import (
	"testing"
	"testing/quick"

	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

func TestClientTableAdmitFresh(t *testing.T) {
	ct := NewClientTable()
	exec, cached := ct.Admit(1, 1)
	if !exec || cached != nil {
		t.Fatalf("fresh request: exec=%v cached=%v", exec, cached)
	}
	exec, cached = ct.Admit(1, 2)
	if !exec || cached != nil {
		t.Fatal("newer request not admitted")
	}
}

func TestClientTableDuplicateInProgress(t *testing.T) {
	ct := NewClientTable()
	ct.Admit(1, 1)
	exec, cached := ct.Admit(1, 1)
	if exec || cached != nil {
		t.Fatalf("in-progress duplicate: exec=%v cached=%v", exec, cached)
	}
}

func TestClientTableDuplicateCompleted(t *testing.T) {
	ct := NewClientTable()
	ct.Admit(1, 1)
	reply := &wire.Packet{Op: wire.OpWriteReply, ReqID: 1}
	ct.Complete(1, 1, reply)
	exec, cached := ct.Admit(1, 1)
	if exec || cached != reply {
		t.Fatalf("completed duplicate: exec=%v cached=%v", exec, cached)
	}
}

func TestClientTableOldRequestIgnored(t *testing.T) {
	ct := NewClientTable()
	ct.Admit(1, 5)
	exec, cached := ct.Admit(1, 3)
	if exec || cached != nil {
		t.Fatal("stale request not ignored")
	}
}

func TestClientTableCompleteStale(t *testing.T) {
	ct := NewClientTable()
	ct.Admit(1, 5)
	ct.Complete(1, 3, &wire.Packet{}) // stale completion must be dropped
	_, cached := ct.Admit(1, 5)
	if cached != nil {
		t.Fatal("stale Complete overwrote in-progress entry")
	}
}

func TestClientTableIndependentClients(t *testing.T) {
	ct := NewClientTable()
	ct.Admit(1, 1)
	exec, _ := ct.Admit(2, 1)
	if !exec {
		t.Fatal("client 2 blocked by client 1")
	}
}

func TestClientTableExportMergeOverlay(t *testing.T) {
	src := NewClientTable()
	rep := &wire.Packet{Op: wire.OpWriteReply, ClientID: 1, ReqID: 5}
	src.Admit(1, 5)
	src.Complete(1, 5, rep)
	src.Admit(2, 7) // in progress: no reply, must NOT export

	recs := src.Export()
	if _, ok := recs[2]; ok {
		t.Fatal("in-progress record exported (would wedge the client's retry)")
	}
	if r, ok := recs[1]; !ok || r.ReqID != 5 || r.Reply == nil {
		t.Fatalf("completed record missing or incomplete: %+v", r)
	}

	dst := NewClientTable()
	// Simulate the destination's replay divergence hazard: the leader
	// executed (1, 3) before the merge; a lagging replica executes it
	// after. The overlay must NOT suppress it.
	dst.Merge(recs)
	if exec, _ := dst.Admit(1, 3); !exec {
		t.Fatal("merged record suppressed an OLDER request (log-replay divergence)")
	}
	// The exact cross-group duplicate is suppressed, with the reply.
	if exec, cached := dst.Admit(1, 5); exec || cached == nil {
		t.Fatalf("exact duplicate: exec=%v cached=%v", exec, cached)
	}
	if got := dst.Cached(1, 5); got == nil {
		t.Fatal("Cached does not see the overlay (chain tail re-reply path)")
	}
	// Once the client moves on, the record retires.
	if exec, _ := dst.Admit(1, 6); !exec {
		t.Fatal("newer request blocked by the overlay")
	}
	if exec, cached := dst.Admit(1, 5); exec || cached != nil {
		t.Fatalf("retired overlay record still answered: exec=%v cached=%v", exec, cached)
	}
	// Re-exporting from the destination forwards overlay records for
	// chained handoffs.
	dst2 := NewClientTable()
	dst2.Merge(recs)
	if r, ok := dst2.Export()[1]; !ok || r.ReqID != 5 || r.Reply == nil {
		t.Fatalf("overlay record not re-exported: %+v", r)
	}
}

func TestSwitchLease(t *testing.T) {
	var l SwitchLease
	if l.Allows(0, 0) {
		t.Fatal("zero lease allows reads")
	}
	l.Grant(1, 1000)
	if !l.Allows(1, 500) {
		t.Fatal("granted lease rejects")
	}
	if l.Allows(1, 1000) {
		t.Fatal("expired lease allows (boundary)")
	}
	if l.Allows(2, 500) {
		t.Fatal("wrong epoch allowed")
	}
	// Renewal extends; shortening is ignored.
	l.Grant(1, 2000)
	if !l.Allows(1, 1500) {
		t.Fatal("renewal did not extend")
	}
	l.Grant(1, 100)
	if !l.Allows(1, 1500) {
		t.Fatal("shorter grant truncated lease")
	}
}

func TestSwitchLeaseEpochChange(t *testing.T) {
	var l SwitchLease
	l.Grant(1, 1000)
	l.Grant(2, 500) // new switch: old epoch implicitly refused
	if l.Allows(1, 100) {
		t.Fatal("old epoch still allowed after new grant")
	}
	if !l.Allows(2, 100) {
		t.Fatal("new epoch rejected")
	}
	l.Grant(1, 99999) // stale grant must not regress
	if l.Epoch() != 2 {
		t.Fatal("epoch regressed")
	}
}

func TestSwitchLeaseRevoke(t *testing.T) {
	var l SwitchLease
	l.Grant(3, 1000)
	l.Revoke(3)
	if l.Allows(3, 1) {
		t.Fatal("revoked lease allows")
	}
	l.Revoke(2) // lower revoke is a no-op
	l.Grant(3, 2000)
	if !l.Allows(3, 1500) {
		t.Fatal("re-grant after revoke failed")
	}
}

func TestReadAheadAccept(t *testing.T) {
	s := func(n uint64) wire.Seq { return wire.Seq{Epoch: 1, N: n} }
	// Replica applied write 5 to the object; stamped commit point 5 or
	// later proves it committed.
	if !ReadAheadAccept(s(5), s(5)) || !ReadAheadAccept(s(9), s(5)) {
		t.Fatal("committed state rejected")
	}
	// Stamped 4 < applied 5: the applied write may be uncommitted.
	if ReadAheadAccept(s(4), s(5)) {
		t.Fatal("potentially uncommitted state accepted")
	}
	// Never-written object (seq zero) is always safe.
	if !ReadAheadAccept(wire.ZeroSeq, wire.ZeroSeq) {
		t.Fatal("virgin object rejected")
	}
}

func TestReadBehindAccept(t *testing.T) {
	s := func(n uint64) wire.Seq { return wire.Seq{Epoch: 1, N: n} }
	// Replica executed up to 7; stamps ≤ 7 are visible here.
	if !ReadBehindAccept(s(7), s(7)) || !ReadBehindAccept(s(3), s(7)) {
		t.Fatal("visible state rejected")
	}
	// Stamp 9 > executed 7: replica lags, must reject.
	if ReadBehindAccept(s(9), s(7)) {
		t.Fatal("lagging replica accepted")
	}
}

// Property: the two checks partition correctly against the ordering —
// ReadAheadAccept(a, b) == b ≤ a and ReadBehindAccept(a, b) == a ≤ b.
func TestCheckProperties(t *testing.T) {
	f := func(e1 uint32, n1 uint64, e2 uint32, n2 uint64) bool {
		a, b := wire.Seq{Epoch: e1, N: n1}, wire.Seq{Epoch: e2, N: n2}
		return ReadAheadAccept(a, b) == b.LessEq(a) &&
			ReadBehindAccept(a, b) == a.LessEq(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassOf(t *testing.T) {
	if ClassOf(&wire.Packet{Op: wire.OpRead}) != CostRead {
		t.Fatal("read packet class")
	}
	if ClassOf(&wire.Packet{Op: wire.OpWrite}) != CostWrite {
		t.Fatal("write packet class")
	}
	if ClassOf(&wire.Packet{Op: wire.OpReadReply}) != CostControl {
		t.Fatal("reply packet class")
	}
	if ClassOf("random") != CostControl {
		t.Fatal("default class")
	}
	if ClassOf(costedMsg{}) != CostWrite {
		t.Fatal("Costed interface not honored")
	}
}

type costedMsg struct{}

func (costedMsg) CostClass() CostClass { return CostWrite }

func TestGroupConfig(t *testing.T) {
	gc := GroupConfig{Replicas: []simnet.NodeID{1, 2, 3}, Self: 1, F: 1}
	if gc.N() != 3 || gc.Quorum() != 2 || gc.Addr(0) != 1 {
		t.Fatalf("GroupConfig accessors wrong: %+v", gc)
	}
}
