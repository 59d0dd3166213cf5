package rebalance

import (
	"fmt"
	"testing"
	"time"

	"harmonia/internal/core"
	"harmonia/internal/wire"
)

// fakeWorld is a deterministic policy harness: a hand-set clock, a
// synthetic heat sample, a routing table and the weights every plan is
// handed (uniform unless a test sets them) — no cluster, no simulation.
type fakeWorld struct {
	now     time.Duration
	heat    []core.SlotHeat
	table   []int
	objs    []int
	weights []float64
}

func newFakeWorld(groups int) *fakeWorld {
	w := &fakeWorld{
		heat:    make([]core.SlotHeat, wire.NumSlots),
		table:   make([]int, wire.NumSlots),
		weights: make([]float64, groups),
	}
	for s := range w.table {
		w.table[s] = s % groups
	}
	for g := range w.weights {
		w.weights[g] = 1
	}
	return w
}

func (w *fakeWorld) clock() time.Duration { return w.now }

// plan runs one tick for the drain-only scenarios and returns its
// moves; a swap there is a test failure.
func (w *fakeWorld) plan(p *Policy) []Move {
	round := p.PlanRound(w.heat, w.table, w.objs, w.weights, nil)
	if len(round.Swaps) != 0 {
		panic(fmt.Sprintf("drain-only scenario planned swaps: %+v", round.Swaps))
	}
	return round.Moves
}

// apply executes planned moves against the fake routing table, the way
// the cluster's migrations would.
func (w *fakeWorld) apply(moves []Move) {
	for _, m := range moves {
		w.table[m.Slot] = m.To
	}
}

var testCfg = Config{
	Threshold: 1.5, Hysteresis: 0.25, Interval: time.Millisecond,
	Cooldown: 3 * time.Millisecond, MaxSlotsPerRound: 4,
	MinOps: 100, MoveCost: 10, ObjectCost: 1,
}

func TestRebalancePolicyThresholdCrossing(t *testing.T) {
	w := newFakeWorld(2)
	p := New(testCfg, w.clock)

	// Balanced load: group 0 and 1 each carry 500 — no trigger.
	w.heat[0] = core.SlotHeat{Reads: 400, Writes: 100} // slot 0 → group 0
	w.heat[1] = core.SlotHeat{Reads: 400, Writes: 100} // slot 1 → group 1
	if moves := w.plan(p); moves != nil {
		t.Fatalf("balanced load planned %v", moves)
	}

	// Skew group 0 to 3× its fair share across two slots.
	w.heat[0] = core.SlotHeat{Reads: 1500}
	w.heat[2] = core.SlotHeat{Reads: 1500} // slot 2 → group 0
	moves := w.plan(p)
	if len(moves) == 0 {
		t.Fatal("3x imbalance triggered nothing")
	}
	for _, m := range moves {
		if m.From != 0 || m.To != 1 {
			t.Fatalf("move %+v does not drain the hot group into the cool one", m)
		}
		if m.Slot != 0 && m.Slot != 2 {
			t.Fatalf("move %+v picked a cold slot", m)
		}
	}
	if p.Rounds() != 1 || p.SlotsMoved() != len(moves) {
		t.Fatalf("rounds=%d slotsMoved=%d after one round of %d moves", p.Rounds(), p.SlotsMoved(), len(moves))
	}
}

func TestRebalancePolicyBelowMinOpsHoldsStill(t *testing.T) {
	w := newFakeWorld(2)
	p := New(testCfg, w.clock)
	w.heat[0] = core.SlotHeat{Reads: 99} // total below MinOps, however skewed
	if moves := w.plan(p); moves != nil {
		t.Fatalf("sub-MinOps sample planned %v", moves)
	}
}

// TestRebalancePolicyHysteresisNoPingPong drives the classic oscillation: after
// a round fires, imbalance hovers between the re-arm level and the
// threshold (two groups trading places around the trigger). The policy
// must stay quiet in BOTH directions — no re-fire until the reading
// drops through the calm band.
func TestRebalancePolicyHysteresisNoPingPong(t *testing.T) {
	w := newFakeWorld(2)
	p := New(testCfg, w.clock)

	// Fire once: slot 0 makes group 0 hot (imbalance 1.8).
	w.heat[0] = core.SlotHeat{Reads: 600}
	w.heat[1] = core.SlotHeat{Reads: 50}
	w.heat[2] = core.SlotHeat{Reads: 250} // group 0's remainder
	w.heat[3] = core.SlotHeat{Reads: 100}
	if moves := w.plan(p); len(moves) == 0 {
		t.Fatal("setup round never fired")
	}

	// Oscillate around the threshold without entering the calm band
	// (<1.25): alternate imbalance ≈1.45 and ≈1.55 for many intervals,
	// well past the cooldown. A threshold-only policy would fire on
	// every other sample and bounce the same slot between the groups.
	for i := 0; i < 12; i++ {
		w.now += 2 * testCfg.Cooldown
		hot := uint64(725) // imbalance 1.45
		if i%2 == 1 {
			hot = 775 // imbalance 1.55
		}
		w.heat[0] = core.SlotHeat{Reads: hot}
		w.heat[1] = core.SlotHeat{Reads: 1000 - hot}
		w.heat[2], w.heat[3] = core.SlotHeat{}, core.SlotHeat{}
		if moves := w.plan(p); moves != nil {
			t.Fatalf("oscillation sample %d re-fired: %v", i, moves)
		}
	}

	// Drop through the calm band (re-arms), then cross the threshold:
	// now it may fire again.
	w.now += 2 * testCfg.Cooldown
	w.heat[0] = core.SlotHeat{Reads: 500}
	w.heat[1] = core.SlotHeat{Reads: 500}
	if moves := w.plan(p); moves != nil {
		t.Fatalf("calm sample fired: %v", moves)
	}
	w.now += 2 * testCfg.Cooldown
	w.heat[0] = core.SlotHeat{Reads: 900}
	w.heat[2] = core.SlotHeat{Reads: 900}
	w.heat[1] = core.SlotHeat{Reads: 200}
	if moves := w.plan(p); len(moves) == 0 {
		t.Fatal("re-armed policy refused a genuine 3x imbalance")
	}
}

func TestRebalancePolicyCooldown(t *testing.T) {
	w := newFakeWorld(2)
	p := New(testCfg, w.clock)

	skew := func() {
		w.heat[0] = core.SlotHeat{Reads: 1500}
		w.heat[2] = core.SlotHeat{Reads: 1500}
		w.heat[1] = core.SlotHeat{Reads: 500}
	}
	calm := func() {
		w.heat[0] = core.SlotHeat{Reads: 500}
		w.heat[1] = core.SlotHeat{Reads: 500}
		w.heat[2] = core.SlotHeat{}
	}

	skew()
	if moves := w.plan(p); len(moves) == 0 {
		t.Fatal("first round never fired")
	}
	// Re-arm immediately (calm sample), then skew again before the
	// cooldown elapsed: the policy must wait it out.
	w.now += testCfg.Interval
	calm()
	if moves := w.plan(p); moves != nil {
		t.Fatalf("calm sample fired: %v", moves)
	}
	w.now += testCfg.Interval // 2ms since round < 3ms cooldown
	skew()
	if moves := w.plan(p); moves != nil {
		t.Fatalf("fired inside the cooldown: %v", moves)
	}
	w.now += 2 * testCfg.Interval // 4ms since round: past cooldown
	if moves := w.plan(p); len(moves) == 0 {
		t.Fatal("cooldown expiry did not release the round")
	}
}

// TestRebalancePolicyCostModelVeto: a slot whose projected gain cannot repay
// the drain cost stays put, however hot its group looks.
func TestRebalancePolicyCostModelVeto(t *testing.T) {
	w := newFakeWorld(2)
	w.objs = make([]int, wire.NumSlots)
	p := New(testCfg, w.clock)

	// Group 0 carries 1.6× its fair share across two slots — but both
	// are packed with objects: ObjectCost(1)×5000 dwarfs the few
	// hundred ops a move could shed.
	w.heat[0] = core.SlotHeat{Reads: 500} // slot 0 → group 0
	w.heat[4] = core.SlotHeat{Reads: 300} // slot 4 → group 0
	w.heat[1] = core.SlotHeat{Reads: 200} // slot 1 → group 1
	w.objs[0], w.objs[4] = 5000, 5000
	if moves := w.plan(p); moves != nil {
		t.Fatalf("cost model let a 5000-object slot move for a ~300-op gain: %v", moves)
	}
	if p.Rounds() != 0 {
		t.Fatal("a fully vetoed round still counted as fired")
	}

	// Same skew, cheap slots: the hottest one moves first.
	w.objs[0], w.objs[4] = 10, 10
	moves := w.plan(p)
	if len(moves) == 0 || moves[0] != (Move{Slot: 0, From: 0, To: 1}) {
		t.Fatalf("cheap slot did not move: %v", moves)
	}
}

// TestRebalancePolicyIndivisibleHotSlot: one mega-slot carrying all the load
// cannot be improved by moving it (the destination would just become
// the new hot group), so the policy must hold still — forever, not
// fire-and-thrash.
func TestRebalancePolicyIndivisibleHotSlot(t *testing.T) {
	w := newFakeWorld(2)
	p := New(testCfg, w.clock)
	for i := 0; i < 6; i++ {
		w.heat[0] = core.SlotHeat{Reads: 2000} // the only load in the system
		if moves := w.plan(p); moves != nil {
			t.Fatalf("sample %d moved an indivisible hot slot: %v", i, moves)
		}
		w.now += 2 * testCfg.Cooldown
	}
}

// TestRebalancePolicyBusySlotsDoNotBurnTheTrigger: when every
// candidate slot is still mid-handoff from a previous round, the tick
// must plan nothing AND keep the trigger armed — otherwise the loop
// disarms with nothing moved, the imbalance never falls through the
// re-arm band, and the rebalancer goes silent forever.
func TestRebalancePolicyBusySlotsDoNotBurnTheTrigger(t *testing.T) {
	w := newFakeWorld(2)
	p := New(testCfg, w.clock)
	w.heat[0] = core.SlotHeat{Reads: 1500} // slot 0 → group 0
	w.heat[2] = core.SlotHeat{Reads: 1500} // slot 2 → group 0
	w.heat[1] = core.SlotHeat{Reads: 500}
	allBusy := func(int) bool { return true }
	for i := 0; i < 3; i++ {
		if round := p.PlanRound(w.heat, w.table, w.objs, w.weights, allBusy); !round.Empty() {
			t.Fatalf("busy round %d planned %+v", i, round)
		}
		w.now += 2 * testCfg.Cooldown
	}
	if p.Rounds() != 0 {
		t.Fatal("busy rounds counted as fired")
	}
	// The handoffs land; the very next tick may fire without waiting
	// out any cooldown or re-arm cycle.
	if moves := w.plan(p); len(moves) == 0 {
		t.Fatal("trigger was burned by busy rounds")
	}
}

// TestRebalanceConfigRejectsUnreachableBand: a hysteresis at or above
// the effective threshold is an error — never clamped into range — and
// New refuses to build a policy from it.
func TestRebalanceConfigRejectsUnreachableBand(t *testing.T) {
	for _, cfg := range []Config{
		{Threshold: 1.2, Hysteresis: 1.2},
		{Hysteresis: 1.6}, // above the default threshold
		{Threshold: -1},
		{Cooldown: -time.Millisecond},
	} {
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("%+v accepted", cfg)
		}
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("New built a policy from %+v", cfg)
				} else if perr, ok := r.(error); !ok || perr.Error() != err.Error() {
					t.Fatalf("New panicked with %v, want %v", r, err)
				}
			}()
			New(cfg, func() time.Duration { return 0 })
		}()
	}
	if err := (Config{Threshold: 1.2, Hysteresis: 0.3}).Validate(); err != nil {
		t.Fatalf("a reachable band was rejected: %v", err)
	}
}

func TestRebalancePolicyMaxSlotsPerRound(t *testing.T) {
	w := newFakeWorld(4)
	p := New(testCfg, w.clock)
	// Twelve equally hot slots on group 0, everything else idle.
	for s := 0; s < wire.NumSlots; s++ {
		if w.table[s] == 0 {
			w.heat[s] = core.SlotHeat{Reads: 100}
		}
		if len(nonzero(w.heat)) == 12 {
			break
		}
	}
	moves := w.plan(p)
	if len(moves) == 0 || len(moves) > testCfg.MaxSlotsPerRound {
		t.Fatalf("round planned %d moves, want 1..%d", len(moves), testCfg.MaxSlotsPerRound)
	}
}

// TestRebalancePolicyConvergesOnFakeWorld closes the loop entirely in the fake
// harness: apply each round's moves to the table, re-sample the same
// per-slot heat, and require the imbalance to fall inside the calm
// band within a few rounds — then stay there with no further moves.
func TestRebalancePolicyConvergesOnFakeWorld(t *testing.T) {
	w := newFakeWorld(4)
	p := New(testCfg, w.clock)
	// A zipf-ish ladder of slot heats, all initially on group 0; no
	// single slot exceeds the calm level, so a balanced placement is
	// reachable.
	hots := []uint64{400, 300, 250, 200, 150, 150, 100, 80, 50, 100}
	for i, h := range hots {
		w.heat[4*i] = core.SlotHeat{Reads: h} // slots ≡ 0 mod 4 → group 0
	}
	still, rounds := 0, 0
	for ; rounds < 20 && still < 3; rounds++ {
		if moves := w.plan(p); moves == nil {
			still++
		} else {
			still = 0
			w.apply(moves)
		}
		w.now += 2 * testCfg.Cooldown
	}
	if imb := imbalance(w.heat, w.table, 4); imb >= testCfg.Threshold {
		t.Fatalf("never converged: imbalance %.2f after %d rounds", imb, rounds)
	}
	if p.SlotsMoved() == 0 {
		t.Fatal("converged without moving anything?")
	}
	// Steady state: no more moves.
	if moves := w.plan(p); moves != nil {
		t.Fatalf("steady state still planned %v", moves)
	}
}

func nonzero(heat []core.SlotHeat) []int {
	var out []int
	for s, h := range heat {
		if h.Total() > 0 {
			out = append(out, s)
		}
	}
	return out
}

func imbalance(heat []core.SlotHeat, table []int, groups int) float64 {
	load := make([]float64, groups)
	total := 0.0
	for s, h := range heat {
		load[table[s]] += float64(h.Total())
		total += float64(h.Total())
	}
	mean := total / float64(groups)
	w := make([]float64, groups)
	for i := range w {
		w[i] = 1
	}
	return load[hottestNorm(load, w)] / mean
}

func TestRebalanceConfigDefaults(t *testing.T) {
	p := New(Config{}, func() time.Duration { return 0 })
	cfg := p.Config()
	if cfg.Threshold != 1.5 || cfg.Hysteresis != 0.25 || cfg.Interval != time.Millisecond ||
		cfg.Cooldown != 3*time.Millisecond || cfg.MaxSlotsPerRound != 8 ||
		cfg.MinOps != 128 || cfg.MoveCost != 48 || cfg.ObjectCost != 1 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

// TestHeteroPolicyWeightedImbalance: capacity weights make the trigger
// fire per capacity unit, not per group. A 3:1 rack whose raw load is
// split 3:1 is perfectly balanced; an even raw split overloads the
// small group.
func TestHeteroPolicyWeightedImbalance(t *testing.T) {
	w := newFakeWorld(2)
	p := New(testCfg, w.clock)
	w.weights = []float64{3, 1}

	// Raw load 750:250 — 1.5× the per-group mean on group 0, which the
	// unweighted policy would chase, but exactly the 3:1 capacity
	// split: hold still.
	w.heat[0] = core.SlotHeat{Reads: 700} // slot 0 → group 0
	w.heat[2] = core.SlotHeat{Reads: 50}  // slot 2 → group 0
	w.heat[1] = core.SlotHeat{Reads: 250} // slot 1 → group 1
	if moves := w.plan(p); moves != nil {
		t.Fatalf("capacity-proportional load planned %v", moves)
	}

	// Even raw split: group 1 (weight 1) now carries 500 against a
	// fair share of 250 per its capacity — 2× per unit — while group 0
	// sits at 500/3 per unit. The policy drains group 1 toward the BIG
	// group.
	w.heat[0] = core.SlotHeat{Reads: 450}
	w.heat[2] = core.SlotHeat{Reads: 50}
	w.heat[1] = core.SlotHeat{Reads: 400}
	w.heat[3] = core.SlotHeat{Reads: 100} // slot 3 → group 1
	moves := w.plan(p)
	if len(moves) == 0 {
		t.Fatal("per-unit overload of the small group not detected")
	}
	for _, m := range moves {
		if m.From != 1 || m.To != 0 {
			t.Fatalf("move %+v does not drain the overloaded small group into the big one", m)
		}
	}
}

// TestPlanRoundSkipsZeroWeightGroups: the table mixes two switch
// domains, and groups 0 and 2 weigh 0 in this plan. Their slots add no
// load and no total, and no move touches them, however hot they run —
// even though group 0 is the first index the hot/cool search meets.
func TestPlanRoundSkipsZeroWeightGroups(t *testing.T) {
	w := newFakeWorld(4)
	w.weights = []float64{0, 1, 0, 1}
	p := New(testCfg, w.clock)

	// The plan's own heat (90) is below MinOps; counting group 0's 20
	// ops would lift the total over it and fire a round at 90/55 ≈ 1.6.
	w.heat[1] = core.SlotHeat{Reads: 60} // slot 1 → group 1
	w.heat[5] = core.SlotHeat{Reads: 30} // slot 5 → group 1
	w.heat[0] = core.SlotHeat{Reads: 20} // slot 0 → group 0, weight 0
	if round := p.PlanRound(w.heat, w.table, w.objs, w.weights, nil); !round.Empty() {
		t.Fatalf("zero-weight heat counted towards MinOps: %+v", round)
	}

	// Group 1 carries 1.6× the plan's fair share. A total that counted
	// group 0's 10 000 ops would hide that, and taking group 0 as the
	// hot or the cool group would plan a move out of this domain.
	w.heat[1] = core.SlotHeat{Reads: 400}
	w.heat[5] = core.SlotHeat{Reads: 400}
	w.heat[3] = core.SlotHeat{Reads: 200} // slot 3 → group 3
	w.heat[0] = core.SlotHeat{Reads: 10000}
	moves := w.plan(p)
	if len(moves) == 0 {
		t.Fatal("zero-weight heat hid the plan's imbalance")
	}
	for _, m := range moves {
		if m.From != 1 || m.To != 3 || w.table[m.Slot] != 1 {
			t.Fatalf("move %+v leaves the plan's groups {1, 3}", m)
		}
	}
}

// TestHeteroPolicyUniformWeightsMatchLegacy: explicit uniform weights
// (any scale) plan exactly what the unweighted policy plans.
func TestHeteroPolicyUniformWeightsMatchLegacy(t *testing.T) {
	run := func(weights []float64) []Move {
		w := newFakeWorld(3)
		p := New(testCfg, w.clock)
		if weights != nil {
			w.weights = weights
		}
		w.heat[0] = core.SlotHeat{Reads: 900}
		w.heat[3] = core.SlotHeat{Reads: 600}
		w.heat[1] = core.SlotHeat{Reads: 200}
		w.heat[2] = core.SlotHeat{Reads: 100}
		return w.plan(p)
	}
	want := run(nil)
	if len(want) == 0 {
		t.Fatal("baseline planned nothing")
	}
	for _, weights := range [][]float64{{1, 1, 1}, {7.5, 7.5, 7.5}} {
		got := run(weights)
		if len(got) != len(want) {
			t.Fatalf("uniform weights %v planned %v, legacy %v", weights, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("uniform weights %v planned %v, legacy %v", weights, got, want)
			}
		}
	}
}

// TestHeteroPolicySwapWhenOccupancyVetoed: when every drain candidate
// is blocked by the occupancy cost veto alone, PlanRound proposes a
// hot-for-cold slot exchange instead — heat moves, occupancy stays
// level — and the round fires (trigger disarmed, cooldown started).
func TestHeteroPolicySwapWhenOccupancyVetoed(t *testing.T) {
	w := newFakeWorld(2)
	w.objs = make([]int, wire.NumSlots)
	p := New(testCfg, w.clock)

	// Group 0: every warm slot is dense with objects, so a one-way
	// move is vetoed (ObjectCost 1 × 5000 ≫ gain). Group 1: a cooler,
	// equally dense slot — the swap's occupancy DIFFERENCE is 0, so
	// the exchange costs only 2×MoveCost and passes.
	w.heat[0] = core.SlotHeat{Reads: 600} // slot 0 → group 0, hot
	w.heat[2] = core.SlotHeat{Reads: 200} // slot 2 → group 0
	w.heat[1] = core.SlotHeat{Reads: 100} // slot 1 → group 1, dense peer
	w.heat[3] = core.SlotHeat{Reads: 100} // slot 3 → group 1
	w.objs[0], w.objs[2], w.objs[1] = 5000, 5000, 5000

	round := p.PlanRound(w.heat, w.table, w.objs, w.weights, nil)
	if len(round.Moves) != 0 || len(round.Swaps) != 1 {
		t.Fatalf("round = %+v, want the one-way drain occupancy-vetoed and exactly one swap", round)
	}
	sw := round.Swaps[0]
	if sw.From != 0 || sw.To != 1 || sw.SlotA != 0 {
		t.Fatalf("swap %+v should trade group 0's hot slot 0 away", sw)
	}
	if sw.SlotB != 1 && sw.SlotB != 3 {
		t.Fatalf("swap %+v should pull back a cold group-1 slot", sw)
	}
	if p.Rounds() != 1 || p.SlotsMoved() != 2 {
		t.Fatalf("swap round accounting: rounds=%d slotsMoved=%d", p.Rounds(), p.SlotsMoved())
	}
	// The trigger is now disarmed: the same reading plans nothing.
	w.now += 2 * testCfg.Cooldown
	if round := p.PlanRound(w.heat, w.table, w.objs, w.weights, nil); !round.Empty() {
		t.Fatalf("disarmed trigger still planned %+v", round)
	}
}

// TestHeteroPolicySwapRefusesRelocation: a swap that would merely turn
// the destination into the new hot group is not an improvement and
// must not fire — the indivisible-hot-slot rule applies to exchanges
// too.
func TestHeteroPolicySwapRefusesRelocation(t *testing.T) {
	w := newFakeWorld(2)
	w.objs = make([]int, wire.NumSlots)
	p := New(testCfg, w.clock)
	// All load in one dense slot: swapping it into group 1 would just
	// relocate the hot spot.
	w.heat[0] = core.SlotHeat{Reads: 2000}
	w.objs[0] = 5000
	for i := 0; i < 4; i++ {
		if round := p.PlanRound(w.heat, w.table, w.objs, w.weights, nil); !round.Empty() {
			t.Fatalf("tick %d relocated the hot spot: %+v", i, round)
		}
		w.now += 2 * testCfg.Cooldown
	}
	if p.Rounds() != 0 {
		t.Fatal("refused swaps still counted as rounds")
	}
}

// TestHeteroPolicySwapRespectsBusySlots: a slot mid-handoff cannot be
// traded — the swap falls through to the hottest MOVABLE slot — and a
// tick whose every candidate is busy keeps the trigger armed.
func TestHeteroPolicySwapRespectsBusySlots(t *testing.T) {
	w := newFakeWorld(2)
	w.objs = make([]int, wire.NumSlots)
	p := New(testCfg, w.clock)
	w.heat[0] = core.SlotHeat{Reads: 600}
	w.heat[2] = core.SlotHeat{Reads: 200}
	w.heat[1] = core.SlotHeat{Reads: 100}
	w.heat[3] = core.SlotHeat{Reads: 100}
	// Every hot slot is dense, so no one-way drain survives the veto;
	// group 1's equally dense slot 1 is the viable swap peer.
	w.objs[0], w.objs[2], w.objs[1] = 5000, 5000, 5000

	// With every group-0 slot mid-handoff the tick must plan nothing
	// and burn nothing.
	busyGroup0 := func(s int) bool { return w.table[s] == 0 }
	if round := p.PlanRound(w.heat, w.table, w.objs, w.weights, busyGroup0); !round.Empty() {
		t.Fatalf("all-busy tick still planned %+v", round)
	}
	if p.Rounds() != 0 {
		t.Fatal("all-busy tick counted as fired")
	}

	// With only the hottest slot busy, the swap trades the
	// next-hottest movable slot instead of touching the busy one.
	busyHot := func(s int) bool { return s == 0 }
	round := p.PlanRound(w.heat, w.table, w.objs, w.weights, busyHot)
	if len(round.Swaps) != 1 || round.Swaps[0].SlotA != 2 {
		t.Fatalf("round %+v, want a swap of the movable slot 2", round)
	}
}
