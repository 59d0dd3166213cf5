package rebalance

import (
	"harmonia/internal/core"
	"harmonia/internal/workload"
)

// PlanSeed plans the slot handoffs that give a newly added group its
// fair share of the slot space immediately, instead of waiting for the
// threshold trigger to notice the empty group. It re-runs the
// largest-remainder apportionment over the NEW live group set — the
// same math rack.Layout uses at boot — so the fix for the 1-slot-floor
// edge case is structural: every live group's target is floored at one
// slot, the targets sum to exactly the live groups' slot count, and a
// donor is never drained below one slot, so all slots stay owned and
// no live group ends up with zero.
//
// Slot choice is heat-aware (the decayed histogram is the placement
// prior): donations come from the most heat-overloaded donors first,
// and each donor gives its hottest slots while the new group's
// projected heat is still below its weight-fair share, then its
// coldest — the new group relieves the rack's hot spot without simply
// becoming it.
//
// heat and table are rack-wide per-slot samples; weights is indexed by
// group ID, and a group at weight 0 (retired) is not in the plan: its
// slots are neither counted nor moved. The returned moves all target
// newGroup.
func PlanSeed(heat []core.SlotHeat, table []int, weights []float64, newGroup int) []Move {
	n := len(weights)
	if !inPlan(weights, newGroup) {
		return nil
	}
	// Targets: largest remainder over the planned groups' slots, 1-slot
	// floors.
	min := make([]int, n)
	groups := 0
	var capSum float64
	for g, w := range weights {
		if w > 0 {
			min[g] = 1
			groups++
			capSum += w
		}
	}
	counts := make([]int, n)
	load := make([]float64, n)
	var total float64
	planned := 0
	for slot, g := range table {
		if g < 0 || g >= n {
			return nil
		}
		if weights[g] > 0 {
			planned++
			counts[g]++
			load[g] += float64(heat[slot].Total())
			total += float64(heat[slot].Total())
		}
	}
	if groups < 2 || groups > planned {
		return nil
	}
	targets := workload.ApportionMin(planned, weights, min)
	fairShare := total * weights[newGroup] / capSum

	deficit := targets[newGroup] - counts[newGroup]
	taken := make([]bool, len(table))
	var moves []Move
	var newHeat float64
	for ; deficit > 0; deficit-- {
		// Donor: the planned group with the highest load per capacity
		// unit among those still above target and with more than one
		// slot.
		src := -1
		for g, w := range weights {
			if g == newGroup || !(w > 0) || counts[g] <= targets[g] || counts[g] <= 1 {
				continue
			}
			if src == -1 || load[g]/w > load[src]/weights[src] {
				src = g
			}
		}
		if src == -1 {
			break
		}
		// Slot: hottest while the new group is under its fair heat
		// share, coldest after.
		wantHot := newHeat < fairShare
		best := -1
		for slot, g := range table {
			if g != src || taken[slot] {
				continue
			}
			if best == -1 {
				best = slot
				continue
			}
			h, b := heat[slot].Total(), heat[best].Total()
			if (wantHot && h > b) || (!wantHot && h < b) {
				best = slot
			}
		}
		if best == -1 {
			break
		}
		taken[best] = true
		moves = append(moves, Move{Slot: best, From: src, To: newGroup})
		counts[src]--
		counts[newGroup]++
		h := float64(heat[best].Total())
		load[src] -= h
		load[newGroup] += h
		newHeat += h
	}
	return moves
}
