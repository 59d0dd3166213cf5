package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"harmonia/internal/store"
	"harmonia/internal/wire"
)

// preloadRows are the clusters the Preload tests run on: every protocol
// as a single group, and a two-switch rack of unequal groups, one of
// them a single replica (nothing to copy to).
var preloadRows = []struct {
	name string
	cfg  Config
}{
	{"VR", Config{Protocol: VR, Replicas: 5, UseHarmonia: true, Seed: 3}},
	{"NOPaxos", Config{Protocol: NOPaxos, Replicas: 3, UseHarmonia: true, Seed: 3}},
	{"PB", Config{Protocol: PB, Replicas: 3, UseHarmonia: true, Seed: 3}},
	{"chain", Config{Protocol: Chain, Replicas: 4, UseHarmonia: true, Seed: 3}},
	{"CRAQ", Config{Protocol: CRAQ, Replicas: 3, Seed: 3}},
	{"hetero rack", Config{UseHarmonia: true, Switches: 2, Seed: 3, GroupSpecs: []GroupSpec{
		{Protocol: Chain, Replicas: 5},
		{Protocol: NOPaxos, Replicas: 3},
		{Protocol: Chain, Replicas: 1},
		{Protocol: PB, Replicas: 2},
	}}},
}

// TestPreloadMatchesSeededMembers: after Preload every member of every
// group holds what seeding it object by object leaves — the same
// objects, values and sequence numbers, per-slot counts, lastApplied
// and applied count — also after a second Preload over the first, and
// starting from members as New leaves them (the priming write applied)
// or from empty stores (so the preloaded sequence numbers are the
// newest each store has seen). A write to one member afterwards reaches
// no other.
func TestPreloadMatchesSeededMembers(t *testing.T) {
	const keys = 3000
	for _, row := range preloadRows {
		for _, empty := range []bool{false, true} {
			name := row.name
			if empty {
				name += "/empty stores"
			}
			t.Run(name, func(t *testing.T) {
				c := New(row.cfg)
				type member struct {
					st      *store.Store
					ref     *store.Store // seeded object by object
					applied uint64
				}
				var members [][]member // by group
				for _, grp := range c.groups {
					var ms []member
					for _, r := range grp.replicas {
						st := r.Store()
						if empty {
							*st = *store.New(8)
						}
						ref := store.New(8)
						ref.Restore(st.Snapshot())
						ms = append(ms, member{st, ref, st.AppliedCount()})
					}
					members = append(members, ms)
				}
				kt := c.keyTab(keys)
				var values valueArena
				ctr := c.valueCtr
				for round := 1; round <= 2; round++ {
					c.Preload(keys)
					for i, id := range kt.ids[:keys] {
						ctr++
						val := values.encode(ctr)
						for _, m := range members[c.routeObj(id)] {
							m.ref.Seed(id, val, wire.Seq{N: uint64(i + 1)})
						}
					}
					for g, ms := range members {
						for i, m := range ms {
							if err := sameStore(m.st, m.ref, m.applied, kt.ids[:keys]); err != nil {
								t.Fatalf("after Preload %d: group %d member %d: %s", round, g, i, err)
							}
						}
					}
				}

				// One write on one member, first at the source, then at the
				// last copy: no other member sees it.
				for g, ms := range members {
					if len(ms) < 2 {
						continue
					}
					var id wire.ObjectID
					for _, k := range kt.ids[:keys] {
						if c.routeObj(k) == g {
							id = k
							break
						}
					}
					for _, w := range []int{0, len(ms) - 1} {
						next := ms[w].st.LastApplied()
						next.Epoch++
						if err := ms[w].st.Apply(id, []byte("only here"), next, w != 0); err != nil {
							t.Fatal(err)
						}
						// The writer's reference follows it, so the source
						// written first is held to it when the copy writes.
						if err := ms[w].ref.Apply(id, []byte("only here"), next, w != 0); err != nil {
							t.Fatal(err)
						}
						ms[w].applied++
						for i, m := range ms {
							if i == w {
								continue
							}
							if err := sameStore(m.st, m.ref, m.applied, kt.ids[:keys]); err != nil {
								t.Fatalf("group %d: a write at member %d reached member %d: %s", g, w, i, err)
							}
						}
					}
				}
			})
		}
	}
}

// sameStore compares st with ref on every observable: Len, SlotCounts,
// every SlotLen, LastApplied, every object (ids first, then the whole
// contents), and the applied count, which Preload leaves at applied.
func sameStore(st, ref *store.Store, applied uint64, ids []wire.ObjectID) error {
	if st.Len() != ref.Len() || !slices.Equal(st.SlotCounts(), ref.SlotCounts()) {
		return fmt.Errorf("%d objects, seeded %d, or per-slot counts differ", st.Len(), ref.Len())
	}
	for slot := 0; slot < wire.NumSlots; slot++ {
		if st.SlotLen(slot) != ref.SlotLen(slot) {
			return fmt.Errorf("SlotLen(%d) %d, seeded %d", slot, st.SlotLen(slot), ref.SlotLen(slot))
		}
	}
	if st.LastApplied() != ref.LastApplied() {
		return fmt.Errorf("lastApplied %v, seeded %v", st.LastApplied(), ref.LastApplied())
	}
	if st.AppliedCount() != applied {
		return fmt.Errorf("applied count %d, want %d", st.AppliedCount(), applied)
	}
	same := func(a, b store.Object) bool { return a.Seq == b.Seq && bytes.Equal(a.Value, b.Value) }
	for _, id := range ids {
		got, ok := st.Get(id)
		want, wantOK := ref.Get(id)
		if ok != wantOK || !same(got, want) {
			return fmt.Errorf("object %d = %v %v, seeded %v %v", id, got, ok, want, wantOK)
		}
	}
	for id, want := range ref.Snapshot().Objects {
		if got, ok := st.Get(id); !ok || !same(got, want) {
			return fmt.Errorf("object %d outside the preloaded keys = %v %v, seeded %v", id, got, ok, want)
		}
	}
	return nil
}

// BenchmarkPreload times Preload alone into a fresh cluster per
// iteration: read_scale's 10-member chain over 100 000 keys, and the
// Fig P rack (8 groups of 3–5 members over 4 switches).
func BenchmarkPreload(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"chain10", Config{Protocol: Chain, Replicas: 10, UseHarmonia: true, Seed: 1}},
		{"rackP", Config{UseHarmonia: true, Switches: 4, Seed: 1, GroupSpecs: []GroupSpec{
			{Protocol: Chain, Replicas: 5}, {Protocol: Chain, Replicas: 3},
			{Protocol: NOPaxos, Replicas: 3}, {Protocol: Chain, Replicas: 3},
			{Protocol: Chain, Replicas: 3}, {Protocol: NOPaxos, Replicas: 3},
			{Protocol: Chain, Replicas: 3}, {Protocol: Chain, Replicas: 3},
		}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const keys = 100000
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := New(bc.cfg)
				c.keyTab(keys) // built once per process, outside the timer
				b.StartTimer()
				c.Preload(keys)
			}
		})
	}
}
