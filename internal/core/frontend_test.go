package core

import (
	"testing"

	"harmonia/internal/simnet"
	"harmonia/internal/wire"
)

// frontendFixture builds a 3-group front-end whose schedulers all
// share one capturing sender.
func frontendFixture(t *testing.T) (*Frontend, *capture) {
	t.Helper()
	cap := &capture{}
	f := NewFrontend(3)
	for g := 0; g < 3; g++ {
		f.SetGroup(g, New(Config{
			Epoch: 1, Stages: 1, SlotsPerStage: 8,
			Replicas: []simnet.NodeID{simnet.NodeID(10 + 3*g), simnet.NodeID(11 + 3*g)},
			WriteDst: simnet.NodeID(10 + 3*g), ReadDst: simnet.NodeID(11 + 3*g),
			ClientBase: 1000,
		}, cap))
	}
	return f, cap
}

// objInGroup finds an ObjectID hashing to group g of n.
func objInGroup(g, n int) wire.ObjectID {
	for id := uint32(1); ; id++ {
		if wire.GroupOf(wire.ObjectID(id), n) == g {
			return wire.ObjectID(id)
		}
	}
}

func TestFrontendHashesClientPacketsToGroups(t *testing.T) {
	f, _ := frontendFixture(t)
	for g := 0; g < 3; g++ {
		obj := objInGroup(g, 3)
		pkt := &wire.Packet{Op: wire.OpWrite, ObjID: obj, ClientID: 1, ReqID: uint64(g + 1)}
		f.Recv(1000, pkt)
		if int(pkt.Group) != g {
			t.Fatalf("obj %d stamped group %d, want %d", obj, pkt.Group, g)
		}
		if f.Group(g).Stats.Writes != 1 {
			t.Fatalf("group %d scheduler saw %d writes", g, f.Group(g).Stats.Writes)
		}
	}
}

func TestFrontendRoutesCompletionsByHeaderGroup(t *testing.T) {
	f, _ := frontendFixture(t)
	obj := objInGroup(2, 3)
	// Sequence a write through group 2 so its partition has seq state.
	f.Recv(1000, &wire.Packet{Op: wire.OpWrite, ObjID: obj, ClientID: 1, ReqID: 1})
	seq := wire.Seq{Epoch: 1, N: 1}
	f.Recv(10, &wire.Packet{Op: wire.OpWriteCompletion, ObjID: obj, Group: 2, Seq: seq})
	if got := f.Group(2).Stats.Completions; got != 1 {
		t.Fatalf("group 2 completions = %d", got)
	}
	if f.Group(0).Stats.Completions != 0 || f.Group(1).Stats.Completions != 0 {
		t.Fatal("completion leaked into another partition")
	}
	if !f.Group(2).Ready() {
		t.Fatal("group 2 not ready after own-epoch completion")
	}
}

func TestFrontendDropsOutOfRangeGroup(t *testing.T) {
	f, _ := frontendFixture(t)
	// Corrupt header group on a replica-originated packet: dropped, no
	// panic, no partition touched.
	f.Recv(10, &wire.Packet{Op: wire.OpWriteCompletion, ObjID: 1, Group: 99, Seq: wire.Seq{Epoch: 1, N: 1}})
	for g := 0; g < 3; g++ {
		if f.Group(g).Stats.Completions != 0 {
			t.Fatalf("group %d processed a corrupt packet", g)
		}
	}
}

func TestFrontendNilSlotDropsTraffic(t *testing.T) {
	f, cap := frontendFixture(t)
	obj := objInGroup(1, 3)
	f.SetGroup(1, nil) // group 1 booting: its traffic vanishes
	before := len(cap.out)
	f.Recv(1000, &wire.Packet{Op: wire.OpWrite, ObjID: obj, ClientID: 1, ReqID: 1})
	if len(cap.out) != before {
		t.Fatal("booting partition forwarded a packet")
	}
	// Other groups unaffected.
	f.Recv(1000, &wire.Packet{Op: wire.OpWrite, ObjID: objInGroup(0, 3), ClientID: 1, ReqID: 2})
	if len(cap.out) != before+1 {
		t.Fatal("healthy partition did not forward")
	}
}

func TestFrontendRebootClearsEverySlot(t *testing.T) {
	f, _ := frontendFixture(t)
	f.Reboot()
	for g := 0; g < 3; g++ {
		if f.Group(g) != nil {
			t.Fatalf("group %d survived reboot", g)
		}
	}
}

func TestFrontendIgnoresNonPacketTraffic(t *testing.T) {
	f, cap := frontendFixture(t)
	f.Recv(10, "not a packet")
	if len(cap.out) != 0 {
		t.Fatal("non-packet message forwarded")
	}
}

// objInSlot finds an ObjectID hashing to the given routing slot.
func objInSlot(slot int) wire.ObjectID {
	for id := uint32(1); ; id++ {
		if wire.SlotOf(wire.ObjectID(id)) == slot {
			return wire.ObjectID(id)
		}
	}
}

// TestFrontendRoutingTable is the table-driven contract of the slot
// routing table: default striping, client-stamp override, route
// flips, freezes, and the replica-path exemption.
func TestFrontendRoutingTable(t *testing.T) {
	obj := objInSlot(10) // default route in a 3-group front-end: 10 % 3 = 1
	cases := []struct {
		name   string
		setup  func(f *Frontend)
		pkt    wire.Packet
		want   int  // group whose scheduler must process the packet; -1 = dropped
		stamp  int  // expected pkt.Group after Recv (client ops only); -1 = skip
		frozen bool // expect a FrozenDrops increment
	}{
		{
			name: "default striping routes by slot",
			pkt:  wire.Packet{Op: wire.OpWrite, ObjID: obj, ClientID: 1, ReqID: 1},
			want: 1, stamp: 1,
		},
		{
			name: "stale client stamp is overridden",
			pkt:  wire.Packet{Op: wire.OpWrite, ObjID: obj, Group: 2, ClientID: 1, ReqID: 1},
			want: 1, stamp: 1,
		},
		{
			name:  "flipped route wins over the default",
			setup: func(f *Frontend) { f.SetRoute(10, 2) },
			pkt:   wire.Packet{Op: wire.OpRead, ObjID: obj, ClientID: 1, ReqID: 1},
			want:  2, stamp: 2,
		},
		{
			name:  "stale stamp cannot reach the old group after a flip",
			setup: func(f *Frontend) { f.SetRoute(10, 0) },
			pkt:   wire.Packet{Op: wire.OpWrite, ObjID: obj, Group: 1, ClientID: 1, ReqID: 1},
			want:  0, stamp: 0,
		},
		{
			name:  "frozen slot drops client writes",
			setup: func(f *Frontend) { f.FreezeSlot(10) },
			pkt:   wire.Packet{Op: wire.OpWrite, ObjID: obj, ClientID: 1, ReqID: 1},
			want:  -1, stamp: -1, frozen: true,
		},
		{
			name:  "frozen slot drops client reads",
			setup: func(f *Frontend) { f.FreezeSlot(10) },
			pkt:   wire.Packet{Op: wire.OpRead, ObjID: obj, ClientID: 1, ReqID: 1},
			want:  -1, stamp: -1, frozen: true,
		},
		{
			name:  "thawed slot serves again",
			setup: func(f *Frontend) { f.FreezeSlot(10); f.UnfreezeSlot(10) },
			pkt:   wire.Packet{Op: wire.OpWrite, ObjID: obj, ClientID: 1, ReqID: 1},
			want:  1, stamp: 1,
		},
		{
			name:  "replica completions pass a frozen slot by header group",
			setup: func(f *Frontend) { f.FreezeSlot(10) },
			pkt: wire.Packet{Op: wire.OpWriteCompletion, ObjID: obj, Group: 1,
				Seq: wire.Seq{Epoch: 1, N: 1}},
			want: 1, stamp: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, _ := frontendFixture(t)
			if tc.setup != nil {
				tc.setup(f)
			}
			pkt := tc.pkt
			before := f.Stats.FrozenDrops
			f.Recv(1000, &pkt)
			for g := 0; g < 3; g++ {
				st := f.Group(g).Stats
				processed := st.Writes + st.FastReads + st.NormalReads + st.Completions
				if g == tc.want && processed == 0 {
					t.Fatalf("group %d did not process the packet", g)
				}
				if g != tc.want && processed != 0 {
					t.Fatalf("group %d processed a packet routed elsewhere", g)
				}
			}
			if tc.stamp >= 0 && int(pkt.Group) != tc.stamp {
				t.Fatalf("packet stamped group %d, want %d", pkt.Group, tc.stamp)
			}
			if got := f.Stats.FrozenDrops - before; (got != 0) != tc.frozen {
				t.Fatalf("FrozenDrops delta = %d, frozen case = %v", got, tc.frozen)
			}
		})
	}
}

func TestFrontendRoutesDefaultToStriping(t *testing.T) {
	f := NewFrontend(3)
	for s := 0; s < wire.NumSlots; s++ {
		if g := f.RouteOf(s); g != wire.DefaultGroupOfSlot(s, 3) {
			t.Fatalf("slot %d defaults to group %d, want %d", s, g, wire.DefaultGroupOfSlot(s, 3))
		}
	}
}

func TestFrontendRebootKeepsRoutes(t *testing.T) {
	f := NewFrontend(3)
	f.SetRoute(5, 2)
	f.FreezeSlot(6)
	f.Reboot()
	if f.RouteOf(5) != 2 || !f.Frozen(6) {
		t.Fatal("reboot lost control-plane routing state")
	}
}

func TestGroupOfCoversAllGroupsEvenly(t *testing.T) {
	const n = 8
	counts := make([]int, n)
	for i := 0; i < 100000; i++ {
		g := wire.GroupOf(wire.ObjectID(uint32(i)*2654435761+7), n)
		if g < 0 || g >= n {
			t.Fatalf("GroupOf out of range: %d", g)
		}
		counts[g]++
	}
	for g, c := range counts {
		if c < 100000/n/2 || c > 100000/n*2 {
			t.Fatalf("group %d badly unbalanced: %d of 100000", g, c)
		}
	}
	if wire.GroupOf(12345, 1) != 0 || wire.GroupOf(12345, 0) != 0 {
		t.Fatal("degenerate group counts must map to 0")
	}
}
