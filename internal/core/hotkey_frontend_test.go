package core

import (
	"testing"

	"harmonia/internal/wire"
)

// hotFixture promotes an object in slot 10 (home group 1 in the
// 3-group fixture) with groups 0 and 2 as holders and validates the
// copies, the steady state in which reads spread.
func hotFixture(t *testing.T) (*Frontend, wire.ObjectID) {
	t.Helper()
	f, _ := frontendFixture(t)
	obj := objInSlot(10)
	f.Promote(obj, []int{0, 2})
	if hk, ok := f.Promoted(obj); !ok || hk.InvalidCount() != 2 {
		t.Fatalf("fresh promotion = %+v, %v; want 2 invalid holders", hk, ok)
	}
	if !f.CompleteRefresh(obj, 0) {
		t.Fatal("initial refresh at gen 0 did not validate")
	}
	return f, obj
}

func TestHotKeyPromoteSpreadsCleanReads(t *testing.T) {
	f, obj := hotFixture(t)
	for i := 0; i < 6; i++ {
		f.Recv(1000, &wire.Packet{Op: wire.OpRead, ObjID: obj, ClientID: 1, ReqID: uint64(i + 1)})
	}
	// Round-robin over home + 2 holders: 2 turns each.
	for g := 0; g < 3; g++ {
		st := f.Group(g).Stats
		if got := st.FastReads + st.NormalReads; got != 2 {
			t.Fatalf("group %d served %d reads, want 2", g, got)
		}
	}
	if f.Stats.SpreadReads != 4 {
		t.Fatalf("SpreadReads = %d, want 4 (home turns don't count)", f.Stats.SpreadReads)
	}
	// Spread reads must NOT inflate the home slot's heat register —
	// the register tracks load the home group actually serves. Only
	// the 2 home-turn reads count.
	if h := f.HeatOf(10); h.Reads != 2 {
		t.Fatalf("home slot heat Reads = %d, want 2", h.Reads)
	}
	// The per-key counters see everything: they feed demotion.
	if r, _ := f.HotHeatOf(obj); r != 6 {
		t.Fatalf("per-key reads = %d, want 6", r)
	}
}

func TestHotKeyWriteInvalidatesHolders(t *testing.T) {
	f, obj := hotFixture(t)
	pkt := &wire.Packet{Op: wire.OpWrite, ObjID: obj, ClientID: 1, ReqID: 1}
	f.Recv(1000, pkt)
	if pkt.Flags&wire.FlagInvalidate == 0 {
		t.Fatal("write to a promoted key did not carry FlagInvalidate")
	}
	hk, _ := f.Promoted(obj)
	if hk.InvalidCount() != 2 || hk.WriteGen != 1 {
		t.Fatalf("after write: %+v, want 2 invalid holders at gen 1", hk)
	}
	if f.Stats.Invalidations != 1 {
		t.Fatalf("Invalidations = %d", f.Stats.Invalidations)
	}
	// While any holder is invalid every read serializes at home.
	for i := 0; i < 3; i++ {
		f.Recv(1000, &wire.Packet{Op: wire.OpRead, ObjID: obj, ClientID: 1, ReqID: uint64(i + 2)})
	}
	if st0, st2 := f.Group(0).Stats, f.Group(2).Stats; st0.FastReads+st0.NormalReads != 0 ||
		st2.FastReads+st2.NormalReads != 0 {
		t.Fatal("read spread to a holder with an invalid copy")
	}
	// A refresh that captured the pre-write value must not validate.
	if f.CompleteRefresh(obj, 0) {
		t.Fatal("stale refresh validated")
	}
	if f.Stats.StaleRefreshes != 1 {
		t.Fatalf("StaleRefreshes = %d", f.Stats.StaleRefreshes)
	}
	// The current-generation refresh does, and spreading resumes.
	if !f.CompleteRefresh(obj, 1) {
		t.Fatal("current-generation refresh rejected")
	}
	f.Recv(1000, &wire.Packet{Op: wire.OpRead, ObjID: obj, ClientID: 1, ReqID: 9})
	if f.Stats.SpreadReads != 1 {
		t.Fatalf("SpreadReads = %d after revalidation", f.Stats.SpreadReads)
	}
}

func TestHotKeyRefreshCompletionConsumedAtSwitch(t *testing.T) {
	f, obj := hotFixture(t)
	f.Recv(1000, &wire.Packet{Op: wire.OpWrite, ObjID: obj, ClientID: 1, ReqID: 1})
	// The controller's refresh completion travels as a wire packet; the
	// front-end validates the entry and consumes it — its Seq carries a
	// write generation, so no scheduler partition may ever see it.
	f.Recv(2, &wire.Packet{Op: wire.OpWriteCompletion, Flags: wire.FlagRefresh,
		ObjID: obj, Group: 1, Seq: wire.Seq{N: 1}})
	if hk, _ := f.Promoted(obj); hk.InvalidCount() != 0 {
		t.Fatalf("refresh packet did not validate: %+v", hk)
	}
	for g := 0; g < 3; g++ {
		if f.Group(g).Stats.Completions != 0 {
			t.Fatalf("group %d scheduler saw the refresh completion", g)
		}
	}
}

func TestHotKeyFrozenWriteDoesNotInvalidate(t *testing.T) {
	f, obj := hotFixture(t)
	f.FreezeSlot(10)
	pkt := &wire.Packet{Op: wire.OpWrite, ObjID: obj, ClientID: 1, ReqID: 1}
	f.Recv(1000, pkt)
	// The write was dropped, never sequenced: bumping the generation or
	// invalidating holders for it would stall spreading for nothing.
	if pkt.Flags&wire.FlagInvalidate != 0 {
		t.Fatal("dropped write carried FlagInvalidate")
	}
	if hk, _ := f.Promoted(obj); hk.WriteGen != 0 || hk.InvalidCount() != 0 {
		t.Fatalf("dropped write mutated the entry: %+v", hk)
	}
}

func TestHotKeyWriteHookFiresOnCompletion(t *testing.T) {
	f, obj := hotFixture(t)
	var hookID wire.ObjectID
	var hookGen uint64
	fires := 0
	f.SetHotWriteHook(func(id wire.ObjectID, gen uint64) { hookID, hookGen, fires = id, gen, fires+1 })
	f.Recv(1000, &wire.Packet{Op: wire.OpWrite, ObjID: obj, ClientID: 1, ReqID: 1})
	if fires != 0 {
		t.Fatal("hook fired before any completion traversed")
	}
	f.Recv(10, &wire.Packet{Op: wire.OpWriteCompletion, ObjID: obj, Group: 1,
		Seq: wire.Seq{Epoch: 1, N: 1}})
	if fires != 1 || hookID != obj || hookGen != 1 {
		t.Fatalf("hook fires=%d id=%d gen=%d, want 1/%d/1", fires, hookID, hookGen, obj)
	}
	// The completion still reached its scheduler partition.
	if f.Group(1).Stats.Completions != 1 {
		t.Fatal("completion consumed instead of forwarded")
	}
	// Once the holders are valid again, completions stop cueing.
	f.CompleteRefresh(obj, 1)
	f.Recv(10, &wire.Packet{Op: wire.OpWriteCompletion, ObjID: obj, Group: 1,
		Seq: wire.Seq{Epoch: 1, N: 2}})
	if fires != 1 {
		t.Fatal("hook fired for a valid entry")
	}
}

func TestHotKeyRemoveHolderCompactsBitmap(t *testing.T) {
	f, obj := hotFixture(t)
	// Invalidate both holders, then drop holder 0: holder 2's invalid
	// bit must survive the compaction at its new index.
	f.Recv(1000, &wire.Packet{Op: wire.OpWrite, ObjID: obj, ClientID: 1, ReqID: 1})
	if left := f.RemoveHolder(obj, 0); left != 1 {
		t.Fatalf("RemoveHolder left %d holders, want 1", left)
	}
	hk, _ := f.Promoted(obj)
	if len(hk.Holders) != 1 || hk.Holders[0] != 2 || hk.InvalidCount() != 1 {
		t.Fatalf("after removal: %+v", hk)
	}
	f.CompleteRefresh(obj, 1)
	if hk, _ = f.Promoted(obj); hk.InvalidCount() != 0 {
		t.Fatalf("refresh after removal: %+v", hk)
	}
	if left := f.RemoveHolder(obj, 2); left != 0 {
		t.Fatalf("final RemoveHolder left %d", left)
	}
	// Zero holders: every read falls through to home, no spreading.
	f.Recv(1000, &wire.Packet{Op: wire.OpRead, ObjID: obj, ClientID: 1, ReqID: 2})
	if f.Stats.SpreadReads != 0 {
		t.Fatal("spread with zero holders")
	}
}

func TestHotKeyDemoteAndReboot(t *testing.T) {
	f, obj := hotFixture(t)
	if !f.Demote(obj) || f.Demote(obj) {
		t.Fatal("Demote must report exactly one removal")
	}
	if f.PromotedCount() != 0 {
		t.Fatalf("PromotedCount = %d after demote", f.PromotedCount())
	}
	f.Promote(obj, []int{0})
	f.Reboot()
	if f.PromotedCount() != 0 {
		t.Fatal("hot-key table survived a reboot (soft switch state must not)")
	}
}

// The per-slot hottest-key register is a Boyer–Moore majority vote: a
// key with a strict majority of the slot's traffic is always the
// candidate, with votes proportional to its dominance.
func TestHotKeyCandidateMajorityVote(t *testing.T) {
	f, _ := frontendFixture(t)
	hot := objInSlot(10)
	// A second object in the same slot, distinct from hot.
	var other wire.ObjectID
	for id := uint32(1); ; id++ {
		if o := wire.ObjectID(id); wire.SlotOf(o) == 10 && o != hot {
			other = o
			break
		}
	}
	req := uint64(1)
	for i := 0; i < 90; i++ {
		f.Recv(1000, &wire.Packet{Op: wire.OpRead, ObjID: hot, ClientID: 1, ReqID: req})
		req++
	}
	for i := 0; i < 30; i++ {
		f.Recv(1000, &wire.Packet{Op: wire.OpRead, ObjID: other, ClientID: 1, ReqID: req})
		req++
	}
	kh := f.KeyHeatOf(10)
	if kh.Cand != hot {
		t.Fatalf("candidate = %d, want %d", kh.Cand, hot)
	}
	if kh.Votes != 60 {
		t.Fatalf("votes = %d, want 60 (90 for − 30 against)", kh.Votes)
	}
	// ClearHeat resets the vote with the slot's registers.
	f.ClearHeat(10)
	if kh := f.KeyHeatOf(10); kh.Votes != 0 {
		t.Fatalf("votes = %d after ClearHeat", kh.Votes)
	}
}
