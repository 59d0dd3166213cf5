// Package rebalance implements the autonomous rebalancing control
// loop: it samples the switch front-end's per-slot heat counters and
// the slot → group routing table, computes per-group load imbalance,
// and plans batch slot moves under a threshold + hysteresis + move-cost
// model. The policy is deliberately pure decision logic over injected
// inputs (heat sample, routing table, clock) so it unit-tests without a
// cluster; the cluster wires it to real switch state and executes the
// planned moves as batch migrations.
//
// Every planner numbers groups by their rack-wide ID and takes one
// weight vector indexed by that ID. A weight is the group's relative
// capacity (replica count, ASIC generation, calibrated service rate),
// and every threshold comparison is made per capacity unit — a
// 7-replica group legitimately carries more raw load than a 3-replica
// one before the loop calls the rack imbalanced. A weight of 0 is the
// only way to leave a group out of a plan, whether it is retired or
// hosted on another switch: its slots add no load and it never sends
// or receives a move. Uniform weights reduce exactly to the historical
// per-group math.
//
// The design follows "Cheap Recovery: A Key to Self-Managing State"
// (Huang & Fox): because a slot handoff is cheap and always-safe
// (abort thaws the slot on its old owner), moving state can be a
// routine loop instead of an operator ritual — the policy's only job
// is to not thrash, which is what the hysteresis band, the cool-down,
// and the per-slot cost veto are for.
package rebalance

import (
	"fmt"
	"time"

	"harmonia/internal/core"
	"harmonia/internal/trace"
)

// Config parameterizes the control loop. The zero value of every field
// selects a default tuned for the simulated rack's millisecond
// timescale.
type Config struct {
	// Threshold is the per-capacity-unit load ratio at which a
	// rebalancing round fires (default 1.5): the round triggers when
	// the hottest group's load per unit of capacity reaches 1.5× the
	// rack-wide load per capacity unit. With uniform weights this is
	// the classic hottest-group-to-mean ratio; with heterogeneous
	// weights a big group's fair share is proportionally bigger.
	Threshold float64

	// Hysteresis widens the re-arm band: after a round fires, no new
	// round may fire until imbalance has fallen below
	// Threshold−Hysteresis (default 0.25). Without the band, two
	// groups oscillating around the threshold would trade the same
	// slots back and forth forever.
	Hysteresis float64

	// Interval is the sampling cadence of the loop; it is also the
	// heat counters' EWMA decay period (default 1ms of simulated
	// time — the simulation compresses seconds to milliseconds).
	Interval time.Duration

	// Cooldown is the minimum time between rounds, regardless of
	// re-arming (default 3×Interval): a round's migrations must land
	// and the heat window refill before the imbalance reading means
	// anything again.
	Cooldown time.Duration

	// MaxSlotsPerRound bounds one round's batch (default 8): smaller
	// rounds converge over a few intervals instead of freezing a large
	// slice of the key space at once.
	MaxSlotsPerRound int

	// MinOps is the minimum total heat in the sample below which the
	// policy does nothing (default 128): at boot, or on an idle
	// cluster, a handful of ops is noise, not imbalance.
	MinOps uint64

	// MoveCost is the modeled cost of migrating one slot, in
	// sample-window ops: the traffic the freeze window drops plus the
	// handoff's control work (default 48). A slot moves only when its
	// projected gain exceeds its cost.
	MoveCost float64

	// ObjectCost is the additional per-copied-object cost in the same
	// unit (default 1): a slot dense with objects drains a longer bulk
	// copy, so it needs a larger gain to be worth moving.
	ObjectCost float64
}

// Validate reports why the control loop cannot run with c, or nil:
// the only place a rebalancer configuration is rejected.
func (c Config) Validate() error {
	if c.Threshold < 0 || c.Hysteresis < 0 || c.Interval < 0 || c.Cooldown < 0 ||
		c.MaxSlotsPerRound < 0 || c.MoveCost < 0 || c.ObjectCost < 0 {
		return fmt.Errorf("rebalance: invalid policy %+v", c)
	}
	// Compared on the effective values (zero selects the default): a
	// band at or above the threshold makes the re-arm level
	// unreachable, so the loop would fire once and disarm forever.
	if c = c.Filled(); c.Hysteresis >= c.Threshold {
		return fmt.Errorf("rebalance: hysteresis %.2f must stay below the effective threshold %.2f (both ratios are per capacity unit)", c.Hysteresis, c.Threshold)
	}
	return nil
}

// Filled returns the effective configuration: zero fields replaced by
// their defaults, nothing else touched (Validate rejects the rest).
func (c Config) Filled() Config {
	if c.Threshold == 0 {
		c.Threshold = 1.5
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 0.25
	}
	if c.Interval == 0 {
		c.Interval = time.Millisecond
	}
	if c.Cooldown == 0 {
		c.Cooldown = 3 * c.Interval
	}
	if c.MaxSlotsPerRound == 0 {
		c.MaxSlotsPerRound = 8
	}
	if c.MinOps == 0 {
		c.MinOps = 128
	}
	if c.MoveCost == 0 {
		c.MoveCost = 48
	}
	if c.ObjectCost == 0 {
		c.ObjectCost = 1
	}
	return c
}

// Move is one planned slot migration.
type Move struct {
	Slot int
	From int
	To   int
}

// Swap is one planned two-way slot exchange: the hot SlotA leaves the
// overloaded group From for To while the cold SlotB travels the other
// way, so neither group's slot occupancy changes. The policy proposes
// a swap when a one-way drain was blocked by the occupancy cost veto
// alone — trading slots sheds heat while only the occupancy DIFFERENCE
// pays the bulk-copy bill.
type Swap struct {
	SlotA int // hot slot, moves From → To
	SlotB int // cold slot, moves To → From
	From  int
	To    int
}

// Round is one control-loop tick's full plan: the one-way drain moves,
// plus any slot exchanges planned because every drain candidate was
// occupancy-vetoed.
type Round struct {
	Moves []Move
	Swaps []Swap
}

// Empty reports whether the round plans nothing.
func (r Round) Empty() bool { return len(r.Moves) == 0 && len(r.Swaps) == 0 }

// Policy is the control loop's decision state. It is not safe for
// concurrent use; the cluster drives it from the single-threaded
// simulation.
type Policy struct {
	cfg Config
	now func() time.Duration

	armed     bool
	everFired bool
	lastRound time.Duration

	// stuckSlot records the hottest slot of the overloaded group on a
	// tick whose trigger fired but whose round came up empty — the
	// indivisible-hot-spot case batch migration cannot help, and the
	// signal the hot-key promotion policy keys on. −1 when the last
	// tick was not stuck.
	stuckSlot int

	rounds     int
	slotsMoved int

	// rec, when set, is the flight recorder this policy reports its
	// fired rounds and vetoed ticks to; sw labels the events with the
	// switch domain the policy serves.
	rec *trace.Recorder
	sw  int16
}

// New builds a policy with cfg (zero fields defaulted) reading the
// injected clock. The clock makes the loop deterministic under the
// simulation and trivially fakeable in unit tests. An invalid cfg
// panics with its Validate error.
func New(cfg Config, now func() time.Duration) *Policy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Policy{cfg: cfg.Filled(), now: now, armed: true, stuckSlot: -1}
}

// Config returns the effective (defaulted) configuration.
func (p *Policy) Config() Config { return p.cfg }

// SetRecorder points the policy at the control-plane flight recorder,
// labeling its events with the switch domain sw. Groups in the
// emitted events are global group IDs, as PlanRound receives them.
func (p *Policy) SetRecorder(rec *trace.Recorder, sw int) {
	p.rec = rec
	p.sw = int16(sw)
}

// Ready reports whether a round could possibly fire right now: the
// trigger is armed and the cool-down has elapsed. Callers use it to
// skip gathering expensive PlanRound inputs (e.g. per-slot object counts)
// that a gated tick would discard unread; heat must still be sampled —
// PlanRound needs it to re-arm the trigger on calm readings.
func (p *Policy) Ready() bool {
	if !p.armed {
		return false
	}
	if p.everFired && p.now()-p.lastRound < p.cfg.Cooldown {
		return false
	}
	return true
}

// LastStuck reports whether the most recent tick fired its trigger
// but planned nothing — the indivisible hot spot the batch migrator
// cannot fix — and if so, which slot of the overloaded group was
// hottest. That slot's dominant key is the promotion candidate.
func (p *Policy) LastStuck() (slot int, stuck bool) {
	return p.stuckSlot, p.stuckSlot >= 0
}

// Rounds returns how many rebalancing rounds have fired.
func (p *Policy) Rounds() int { return p.rounds }

// SlotsMoved returns the total number of slot moves planned across all
// rounds.
func (p *Policy) SlotsMoved() int { return p.slotsMoved }

// PlanRound runs one control-loop tick: given the rack-wide per-slot
// heat sample, the current slot → group table, optional per-slot object
// counts (nil if unknown; the cost model then charges MoveCost alone),
// the capacity weights by group ID (0: not in this plan), and an
// optional busy predicate (slots currently mid-handoff, which cannot be
// moved again yet), it returns the round to execute
// now — empty when the loop should hold still. Firing re-arms only
// after per-capacity-unit imbalance falls below Threshold−Hysteresis,
// and never within Cooldown of the last round. A tick whose every
// candidate is busy or vetoed plans nothing AND commits nothing — the
// trigger stays armed and no cool-down is burned, so the loop retries
// as soon as the situation becomes movable instead of disarming itself
// forever.
//
// A round is a batch of one-way moves or, when that drain plan comes
// up empty because every balance-improving candidate lost to the
// occupancy cost veto, a slot exchange: the hottest movable slot of
// the overloaded group for the coldest slot of the underloaded one —
// heat moves, slot occupancy stays level, and only the occupancy
// difference pays the copy bill. Firing (moves OR swaps) disarms the
// trigger and starts the cool-down.
func (p *Policy) PlanRound(heat []core.SlotHeat, table []int, objects []int, w []float64, busy func(slot int) bool) Round {
	p.stuckSlot = -1 // stuckness is a per-tick observation
	if len(heat) == 0 || len(table) != len(heat) {
		return Round{}
	}
	load := make([]float64, len(w))
	var total uint64
	var capSum float64
	planned := 0
	for _, wg := range w {
		if wg > 0 {
			capSum += wg
			planned++
		}
	}
	if planned < 2 {
		return Round{}
	}
	for s, h := range heat {
		if g := table[s]; inPlan(w, g) {
			load[g] += float64(h.Total())
			total += h.Total()
		}
	}
	if total < p.cfg.MinOps {
		return Round{}
	}
	// fairUnit is the rack-wide load per capacity unit; a group's fair
	// share is fairUnit·weight. With uniform weights this is exactly
	// the historical per-group mean.
	fairUnit := float64(total) / capSum
	if fairUnit <= 0 {
		return Round{}
	}
	hot := hottestNorm(load, w)
	imb := load[hot] / w[hot] / fairUnit

	// Hysteresis: once a round fires the trigger disarms, and only a
	// reading inside the calm band re-arms it. A reading that hovers
	// between the two thresholds keeps the loop quiet in BOTH
	// directions — no firing, no re-arming — which is what prevents
	// ping-pong when two groups oscillate around the threshold.
	if !p.armed && imb < p.cfg.Threshold-p.cfg.Hysteresis {
		p.armed = true
	}
	if !p.armed || imb < p.cfg.Threshold {
		return Round{}
	}
	if p.everFired && p.now()-p.lastRound < p.cfg.Cooldown {
		return Round{}
	}

	moves, costVetoed := p.plan(heat, table, objects, load, w, fairUnit, busy)
	round := Round{Moves: moves}
	if len(moves) == 0 && costVetoed {
		round.Swaps = p.planSwaps(heat, table, objects, load, w, busy)
	}
	if round.Empty() {
		// Nothing movable (indivisible hot slot, or every candidate
		// vetoed by the cost model): stay armed, don't burn the
		// cooldown — the situation may become movable as heat decays.
		// Record the overloaded group's hottest slot: moving it cannot
		// help, but replicating its hottest KEY can, and the hot-key
		// promotion policy reads this via LastStuck.
		best, bestHeat := -1, uint64(0)
		for s, h := range heat {
			if table[s] == hot && h.Total() > bestHeat {
				best, bestHeat = s, h.Total()
			}
		}
		p.stuckSlot = best
		if p.rec != nil {
			// The trigger fired but nothing moved: a vetoed tick. Arg
			// records whether the cost model (1) or mere busyness/
			// indivisibility (0) blocked the round.
			var costArg uint64
			if costVetoed {
				costArg = 1
			}
			p.rec.Emit(trace.Event{
				Kind: trace.EvRebalanceVeto, Switch: p.sw,
				Group: int16(hot), Slot: int16(best), Arg: costArg,
			})
		}
		return Round{}
	}
	p.armed = false
	p.everFired = true
	p.lastRound = p.now()
	p.rounds++
	p.slotsMoved += len(round.Moves) + 2*len(round.Swaps)
	if p.rec != nil {
		p.rec.Emit(trace.Event{
			Kind: trace.EvRebalanceTick, Switch: p.sw, Group: int16(hot),
			Slot: -1, Arg: uint64(len(round.Moves)), Arg2: uint64(len(round.Swaps)),
		})
	}
	return round
}

// plan greedily drains the projected-hottest group (per capacity unit)
// into the projected-coolest, hottest slot first, until the projected
// imbalance re-enters the calm band, the per-round budget is spent, or
// no remaining candidate both improves the balance and survives the
// cost veto. costVetoed reports whether at least one candidate was
// blocked ONLY by the cost model — the signal PlanRound's swap
// fallback keys on.
func (p *Policy) plan(heat []core.SlotHeat, table []int, objects []int, load, w []float64, fairUnit float64, busy func(slot int) bool) (moves []Move, costVetoed bool) {
	proj := append([]float64(nil), load...)
	calmUnit := fairUnit * (p.cfg.Threshold - p.cfg.Hysteresis)

	moved := make(map[int]bool)
	for len(moves) < p.cfg.MaxSlotsPerRound {
		src := hottestNorm(proj, w)
		if proj[src]/w[src] <= calmUnit {
			break // projected balance is back inside the calm band
		}
		dst := coolestNorm(proj, w)
		best, bestHeat := -1, uint64(0)
		for s, h := range heat {
			if table[s] != src || moved[s] || h.Total() == 0 {
				continue
			}
			if busy != nil && busy(s) {
				continue
			}
			if h.Total() > bestHeat {
				// The hottest unmoved slot of the source that still
				// improves the balance: after the move the destination
				// must stay cooler PER CAPACITY UNIT than the source
				// was, or the move just relocates the hot spot
				// (ping-pong fuel).
				if (proj[dst]+float64(h.Total()))/w[dst] >= proj[src]/w[src] {
					continue
				}
				if !p.worthMoving(h, s, objects, proj[src], proj[dst], w[src], w[dst]) {
					costVetoed = true
					continue
				}
				best, bestHeat = s, h.Total()
			}
		}
		if best < 0 {
			break
		}
		moves = append(moves, Move{Slot: best, From: src, To: dst})
		moved[best] = true
		proj[src] -= float64(bestHeat)
		proj[dst] += float64(bestHeat)
	}
	return moves, costVetoed
}

// planSwaps proposes at most one hot-for-cold slot exchange between
// the hottest and coolest groups (per capacity unit): the hottest
// movable slot of the source trades places with the coldest movable
// slot of the destination. The exchange must genuinely improve the
// balance (the destination ends cooler per unit than the source was)
// and survive the swap cost model — two handoffs' control work plus
// the occupancy DIFFERENCE, which is the whole point: a swap is what
// the policy reaches for when one-way occupancy transfer was vetoed.
func (p *Policy) planSwaps(heat []core.SlotHeat, table []int, objects []int, load, w []float64, busy func(slot int) bool) []Swap {
	src := hottestNorm(load, w)
	dst := coolestNorm(load, w)
	if src == dst {
		return nil
	}
	hot := -1
	for s, h := range heat {
		if table[s] != src || h.Total() == 0 || (busy != nil && busy(s)) {
			continue
		}
		if hot == -1 || h.Total() > heat[hot].Total() {
			hot = s
		}
	}
	if hot == -1 {
		return nil
	}
	gap := weightedGap(load[src], load[dst], w[src], w[dst])
	// The peer is the destination slot with the best NET benefit —
	// heat shed minus the exchange's cost — not merely the coldest:
	// against a dense hot slot, an equally dense lukewarm peer (tiny
	// occupancy difference) beats an empty ice-cold one whose copy
	// bill re-imposes the very veto the swap exists to dodge.
	cold, bestBenefit := -1, 0.0
	for s, h := range heat {
		if table[s] != dst || (busy != nil && busy(s)) {
			continue
		}
		net := float64(heat[hot].Total()) - float64(h.Total())
		if net <= 0 {
			continue
		}
		if (load[dst]+net)/w[dst] >= load[src]/w[src] {
			continue // relocation, not improvement
		}
		gain := net
		if gap < gain {
			gain = gap
		}
		cost := 2 * p.cfg.MoveCost
		if objects != nil {
			// Clamp each arm independently: a slot beyond the sampled
			// range charges zero occupancy, but the in-range arm still
			// pays — the old whole-pair guard silently priced BOTH
			// slots at zero whenever either index fell off the slice,
			// letting a dense/unknown exchange dodge the copy bill.
			diff := objAt(objects, hot) - objAt(objects, s)
			if diff < 0 {
				diff = -diff
			}
			cost += p.cfg.ObjectCost * diff
		}
		if benefit := gain - cost; benefit > bestBenefit {
			cold, bestBenefit = s, benefit
		}
	}
	if cold == -1 {
		return nil
	}
	return []Swap{{SlotA: hot, SlotB: cold, From: src, To: dst}}
}

// worthMoving is the cost-model veto: a slot moves only when the
// projected per-window gain (how much the hottest group sheds toward
// the destination, capped by the capacity-weighted gap it closes)
// exceeds the modeled drain cost of the handoff.
func (p *Policy) worthMoving(h core.SlotHeat, slot int, objects []int, srcLoad, dstLoad, srcW, dstW float64) bool {
	gain := float64(h.Total())
	if gap := weightedGap(srcLoad, dstLoad, srcW, dstW); gap < gain {
		gain = gap
	}
	cost := p.cfg.MoveCost
	if objects != nil {
		cost += p.cfg.ObjectCost * objAt(objects, slot)
	}
	return gain > cost
}

// objAt reads a per-slot object count with an out-of-range clamp to
// zero: a short sample (older snapshot, fewer slots) means "occupancy
// unknown", which the cost model prices as free rather than guessing.
func objAt(objects []int, i int) float64 {
	if i < 0 || i >= len(objects) {
		return 0
	}
	return float64(objects[i])
}

// weightedGap is the raw load that must travel source → destination to
// equalize their per-capacity-unit loads: solving
// (Lsrc−x)/Wsrc = (Ldst+x)/Wdst gives x = (Lsrc·Wdst − Ldst·Wsrc)/(Wsrc+Wdst).
// Uniform weights reduce it to the historical (Lsrc−Ldst)/2.
func weightedGap(srcLoad, dstLoad, srcW, dstW float64) float64 {
	return (srcLoad*dstW - dstLoad*srcW) / (srcW + dstW)
}

// inPlan reports whether group g takes part in a plan weighted by w.
func inPlan(w []float64, g int) bool { return g >= 0 && g < len(w) && w[g] > 0 }

// hottestNorm returns the planned group with the highest load per
// capacity unit (ties: lowest ID), −1 when no group is planned.
func hottestNorm(load, w []float64) int {
	best := -1
	for g := range load {
		if w[g] > 0 && (best < 0 || load[g]/w[g] > load[best]/w[best]) {
			best = g
		}
	}
	return best
}

// coolestNorm returns the planned group with the lowest load per
// capacity unit (ties: lowest ID), −1 when no group is planned.
func coolestNorm(load, w []float64) int {
	best := -1
	for g := range load {
		if w[g] > 0 && (best < 0 || load[g]/w[g] < load[best]/w[best]) {
			best = g
		}
	}
	return best
}
