package rebalance

import "slices"

// HotKeyConfig parameterizes hot-key promotion: the escape hatch for
// the one imbalance the slot migrator provably cannot fix. When a
// tick's trigger fires but the round comes up empty (LastStuck), the
// heat is concentrated in a single slot — and if one KEY dominates
// that slot, moving the slot anywhere just relocates the hot spot.
// Promotion instead replicates that key across 2–4 groups and lets the
// switch spread its clean reads, Hermes-style. The zero value of every
// field selects a default tuned for the simulated rack.
type HotKeyConfig struct {
	// Share is the minimum fraction of the stuck slot's heat the
	// hottest-key register's candidate must hold before promotion
	// (default 0.6): replicating a key that is NOT the bottleneck
	// buys invalidation traffic for nothing. The register is a
	// Boyer–Moore majority vote, so votes/total understates the true
	// share — a candidate clearing 0.6 genuinely dominates.
	Share float64

	// MinOps is the minimum candidate vote count (default 64): a
	// freshly decayed register's candidate is noise, not a hot key.
	MinOps uint64

	// MaxHolders caps how many EXTRA groups hold a promoted key's
	// replica beyond its home group, clamped to [1, 3] so the
	// replicated set spans 2–4 groups (default 3). More holders shed
	// more read load but widen every write's invalidation fan-out.
	MaxHolders int

	// CoolRounds is how many consecutive decay rounds the key's own
	// heat must stay at or below CoolOps before demotion (default 8):
	// demotion tears down replicas, so it must survive a brief lull.
	CoolRounds int

	// CoolOps is the per-round operation count at or below which the
	// key counts as cold (default 16).
	CoolOps uint64
}

// Filled returns the effective configuration: zero fields replaced by
// their defaults and MaxHolders clamped to 3. ShouldPromote and
// PickHolders read a filled configuration.
func (c HotKeyConfig) Filled() HotKeyConfig {
	if c.Share <= 0 {
		c.Share = 0.6
	}
	if c.MinOps == 0 {
		c.MinOps = 64
	}
	if c.MaxHolders <= 0 || c.MaxHolders > 3 {
		c.MaxHolders = 3
	}
	if c.CoolRounds <= 0 {
		c.CoolRounds = 8
	}
	if c.CoolOps == 0 {
		c.CoolOps = 16
	}
	return c
}

// ShouldPromote decides whether a stuck slot's hottest-key candidate
// earns replication: its votes must clear the absolute floor AND hold
// the configured share of the slot's total heat.
func (c HotKeyConfig) ShouldPromote(votes, slotTotal uint64) bool {
	if votes < c.MinOps || slotTotal == 0 {
		return false
	}
	return float64(votes) >= c.Share*float64(slotTotal)
}

// PickHolders chooses up to MaxHolders holder groups for a key homed
// at home: the highest-capacity groups first (they absorb spread reads
// cheapest), ties broken by lowest ID for determinism. weights is
// indexed by group ID, and a group at weight 0 — retired, or behind
// another switch — is never a holder; neither is home. Returns nil when
// no other group is eligible — promotion is pointless then.
func (c HotKeyConfig) PickHolders(home int, weights []float64) []int {
	var out []int
	for len(out) < c.MaxHolders {
		best := -1
		for g, w := range weights {
			if g == home || !(w > 0) || slices.Contains(out, g) {
				continue
			}
			if best == -1 || w > weights[best] {
				best = g
			}
		}
		if best == -1 {
			break
		}
		out = append(out, best)
	}
	return out
}
