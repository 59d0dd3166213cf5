package rebalance

import (
	"math/rand"
	"testing"

	"harmonia/internal/core"
	"harmonia/internal/wire"
)

// applySeed plays a PlanSeed move list onto a copy of the slot table.
func applySeed(table []int, moves []Move) []int {
	out := append([]int(nil), table...)
	for _, mv := range moves {
		out[mv.Slot] = mv.To
	}
	return out
}

// checkSeedInvariants asserts the structural guarantees of the
// largest-remainder seeding: every slot owned by a live (nonzero
// weight) group and every live group owning at least one slot — the
// 1-slot-floor edge case that a naive proportional share violates when
// shards are small.
func checkSeedInvariants(t *testing.T, table []int, weights []float64) {
	t.Helper()
	counts := make([]int, len(weights))
	for slot, g := range table {
		if g < 0 || g >= len(weights) || weights[g] == 0 {
			t.Fatalf("slot %d owned by non-live group %d", slot, g)
		}
		counts[g]++
	}
	for g, w := range weights {
		if w > 0 && counts[g] == 0 {
			t.Fatalf("live group %d owns zero slots", g)
		}
	}
}

// TestElasticSeedKeepsEverySlotOwned is the satellite property test:
// arbitrary AddGroup sequences — random weights, random heat, retired
// holes in the group set, all the way down to the 1-slot-floor regime
// where 256 groups share 256 slots — never leave a slot unowned or a
// live group empty.
func TestElasticSeedKeepsEverySlotOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		// Start from a random already-valid ownership over a few groups.
		n := 2 + rng.Intn(6)
		weights := make([]float64, n)
		for g := range weights {
			weights[g] = 0.5 + rng.Float64()*7
		}
		table := make([]int, wire.NumSlots)
		for slot := range table {
			table[slot] = rng.Intn(n)
		}
		for g := 0; g < n; g++ { // every seed group owns at least one slot
			table[g] = g
		}
		heat := make([]core.SlotHeat, wire.NumSlots)
		for slot := range heat {
			heat[slot] = core.SlotHeat{Reads: uint64(rng.Intn(5000)), Writes: uint64(rng.Intn(500))}
		}

		// Retire a random group now and then: the live set has holes.
		if n > 2 && rng.Intn(2) == 0 {
			victim := rng.Intn(n)
			dst := (victim + 1) % n
			for slot, g := range table {
				if g == victim {
					table[slot] = dst
				}
			}
			weights[victim] = 0
		}

		// Add groups one at a time until the slot space is saturated.
		adds := 1 + rng.Intn(8)
		if rng.Intn(10) == 0 {
			adds = wire.NumSlots // drive into the 1-slot-floor regime
		}
		for a := 0; a < adds; a++ {
			liveCount := 0
			for _, w := range weights {
				if w > 0 {
					liveCount++
				}
			}
			if liveCount >= wire.NumSlots {
				break
			}
			weights = append(weights, 0.5+rng.Float64()*7)
			g := len(weights) - 1
			moves := PlanSeed(heat, table, weights, g)
			if len(moves) == 0 {
				t.Fatalf("trial %d add %d: PlanSeed moved nothing for group %d", trial, a, g)
			}
			for _, mv := range moves {
				if mv.To != g {
					t.Fatalf("trial %d: move targets group %d, want %d", trial, mv.To, g)
				}
				if table[mv.Slot] != mv.From {
					t.Fatalf("trial %d: move claims slot %d comes from %d, table says %d", trial, mv.Slot, mv.From, table[mv.Slot])
				}
			}
			table = applySeed(table, moves)
			checkSeedInvariants(t, table, weights)
		}
	}
}

// TestElasticSeedDegenerateInputs pins the guard rails: an invalid new
// group, a retired new group, or a group set larger than the slot
// table plans nothing rather than panicking or stranding slots.
func TestElasticSeedDegenerateInputs(t *testing.T) {
	heat := make([]core.SlotHeat, wire.NumSlots)
	table := make([]int, wire.NumSlots)
	weights := []float64{1, 1}
	if mv := PlanSeed(heat, table, weights, 5); mv != nil {
		t.Fatal("out-of-range group planned moves")
	}
	if mv := PlanSeed(heat, table, []float64{1, 0}, 1); mv != nil {
		t.Fatal("retired new group planned moves")
	}
	// Single live donor: taking its last slots is forbidden, but a
	// 2-live-group split must still work over a 2-slot table.
	small := []int{0, 0}
	if mv := PlanSeed(heat[:2], small, weights, 1); len(mv) != 1 {
		t.Fatalf("2-slot split planned %v, want exactly one move", mv)
	}
}

// TestElasticSeedPrefersHotSlots checks the heat-aware placement: the
// new group's seeded share takes the donor's hottest slots first (up
// to its fair heat share), so scale-out relieves the hot spot rather
// than collecting cold slots.
func TestElasticSeedPrefersHotSlots(t *testing.T) {
	heat := make([]core.SlotHeat, wire.NumSlots)
	table := make([]int, wire.NumSlots)
	for slot := range table {
		table[slot] = slot % 2
	}
	// One scorching slot on group 0; everything else cold.
	heat[10] = core.SlotHeat{Reads: 1_000_000}
	weights := []float64{1, 1, 1}
	moves := PlanSeed(heat, table, weights, 2)
	if len(moves) == 0 {
		t.Fatal("no moves planned")
	}
	got := false
	for _, mv := range moves {
		if mv.Slot == 10 {
			got = true
		}
	}
	if !got {
		t.Fatalf("hottest slot not seeded to the new group: %v", moves)
	}
}
