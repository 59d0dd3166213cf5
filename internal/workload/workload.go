// Package workload generates the key-access patterns used by the
// paper's evaluation: uniform and zipfian (θ = 0.9) distributions over
// a fixed key space (§9.1: one million objects). The read/write mix is
// drawn by the cluster's load generator, which feeds on these.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Generator yields object indexes in [0, N).
type Generator interface {
	// Next returns the next key index.
	Next() int
	// N returns the key-space size.
	N() int
}

// Uniform draws keys uniformly.
type Uniform struct {
	n   int
	rng *rand.Rand
}

// NewUniform builds a uniform generator over n keys.
func NewUniform(n int, rng *rand.Rand) *Uniform {
	if n <= 0 {
		panic("workload: key space must be positive")
	}
	return &Uniform{n: n, rng: rng}
}

// Next implements Generator.
func (u *Uniform) Next() int { return u.rng.Intn(u.n) }

// N implements Generator.
func (u *Uniform) N() int { return u.n }

// Zipfian is a YCSB-style scrambled zipfian generator. Unlike
// math/rand's Zipf (which requires s > 1), it supports the θ < 1
// exponents used by storage benchmarks — the paper's skewed workload
// is zipf-0.9.
//
// The construction follows Gray et al.'s "Quickly Generating
// Billion-Record Synthetic Databases" rejection-free method, then
// scrambles rank order with an FNV-style hash so that popular keys are
// spread across the key space.
type Zipfian struct {
	n int
	*zipfConsts
	rng      *rand.Rand
	scramble bool
}

// zipfConsts are the constants of Gray et al.'s method. They are a
// pure function of (n, theta) and zetan is a sum of n math.Pow terms,
// so they are computed once per pair and shared, read-only, by every
// generator: a load spec's hundreds of clients draw from one key space.
type zipfConsts struct {
	alpha float64
	zetan float64
	eta   float64
	// rank1 is 1 + 0.5^theta, the bound below which u·zetan means rank 1.
	rank1 float64
}

type zipfKey struct {
	n     int
	theta float64
}

var zipfCache = struct {
	sync.Mutex
	m map[zipfKey]*zipfConsts
}{m: make(map[zipfKey]*zipfConsts)}

// zipfConstsFor returns the shared constants for (n, theta). The lock
// is held across the zeta sum so concurrent first constructions of one
// key space pay for it once.
func zipfConstsFor(n int, theta float64) *zipfConsts {
	zipfCache.Lock()
	defer zipfCache.Unlock()
	k := zipfKey{n, theta}
	c := zipfCache.m[k]
	if c == nil {
		zetan, zeta2 := zeta(n, theta), zeta(2, theta)
		c = &zipfConsts{
			alpha: 1.0 / (1.0 - theta),
			zetan: zetan,
			eta:   (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta2/zetan),
			rank1: 1 + math.Pow(0.5, theta),
		}
		zipfCache.m[k] = c
	}
	return c
}

// NewZipfian builds a zipfian generator over n keys with exponent
// theta in (0, 1).
func NewZipfian(n int, theta float64, rng *rand.Rand) *Zipfian {
	if n <= 0 {
		panic("workload: key space must be positive")
	}
	if theta <= 0 || theta >= 1 {
		panic(fmt.Sprintf("workload: zipfian theta %v out of (0,1)", theta))
	}
	return &Zipfian{n: n, zipfConsts: zipfConstsFor(n, theta), rng: rng, scramble: true}
}

// zeta computes the generalized harmonic number H_{n,theta}.
func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next implements Generator.
func (z *Zipfian) Next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < z.rank1:
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	if !z.scramble {
		return rank
	}
	return ZipfKeyOfRank(z.n, rank)
}

// NewZipfianTheta builds a scrambled zipfian generator for any
// exponent theta > 0 (theta ≠ 1): Gray et al.'s method for the θ < 1
// range storage benchmarks use, math/rand's rejection-inversion
// sampler for the heavy-tailed θ > 1 range (e.g. the zipf-1.2 hot-spot
// workload, where the head ranks dominate enough that placement makes
// or breaks aggregate throughput). Both scramble rank order with the
// same finalizer, so ZipfKeyOfRank predicts the hot keys either way.
func NewZipfianTheta(n int, theta float64, rng *rand.Rand) Generator {
	if theta > 1 {
		if n <= 0 {
			panic("workload: key space must be positive")
		}
		return &heavyZipf{n: n, z: rand.NewZipf(rng, theta, 1, uint64(n-1))}
	}
	return NewZipfian(n, theta, rng)
}

// heavyZipf samples ranks from math/rand's Zipf (s > 1) and scrambles
// them the same way Zipfian does.
type heavyZipf struct {
	n int
	z *rand.Zipf
}

// Next implements Generator.
func (h *heavyZipf) Next() int { return ZipfKeyOfRank(h.n, int(h.z.Uint64())) }

// N implements Generator.
func (h *heavyZipf) N() int { return h.n }

// ZipfKeyOfRank returns the key index a scrambled zipfian over n keys
// emits for popularity rank r (rank 0 is the hottest). The scramble is
// a fixed splitmix64 finalizer — YCSB's "scrambled zipfian" — so the
// hot keys of a key space are deterministic and independent of the RNG
// seed, which is what lets a rebalancer predict where the heat is.
func ZipfKeyOfRank(n, rank int) int {
	h := uint64(rank) + 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(n))
}

// N implements Generator.
func (z *Zipfian) N() int { return z.n }

// KeyName formats a key index as the canonical string key used by the
// client library ("obj%08d"), so a key space maps onto distinct
// 32-bit object IDs with negligible collision probability.
func KeyName(i int) string { return fmt.Sprintf("obj%08d", i) }

// Apportion splits total indivisible units (clients, slots) across the
// weights by the largest-remainder method: every index first gets the
// floor of its exact quota total·wᵢ/Σw, then the leftover units go to
// the largest fractional remainders, lowest index first on ties. The
// result always sums to total, and equal weights reproduce the
// historical even split (floor share everywhere, the first total mod n
// indexes carrying one extra) — which is what keeps a uniform cluster's
// client-pool split bit-compatible with the pre-weighted code.
// Non-positive and non-finite weights count as zero; if no weight is
// positive, the split falls back to uniform.
func Apportion(total int, weights []float64) []int {
	return ApportionMin(total, weights, nil)
}

// ApportionMin is Apportion with per-index floors: index i never
// receives fewer than min[i] units (nil means no floors). The caller
// guarantees sum(min) ≤ total. The floors serve layouts where every
// index must stay represented — e.g. every replica group owning at
// least one routing slot — while the remaining units still follow the
// weights. Deterministic: every rounding tie resolves to the lowest
// index.
func ApportionMin(total int, weights []float64, min []int) []int {
	n := len(weights)
	out := make([]int, n)
	if n == 0 || total <= 0 {
		return out
	}
	var sum float64
	w := make([]float64, n)
	for i, x := range weights {
		if x > 0 && !math.IsInf(x, 1) {
			w[i] = x
			sum += x
		}
	}
	if sum <= 0 {
		for i := range w {
			w[i] = 1
		}
		sum = float64(n)
	}
	floor := func(i int) int {
		if min == nil || i >= len(min) {
			return 0
		}
		return min[i]
	}
	quota := make([]float64, n)
	given := 0
	for i := range out {
		// Ratio first: weights near MaxFloat64 would overflow the
		// product total·wᵢ to +Inf, and int(+Inf) poisons the split.
		quota[i] = float64(total) * (w[i] / sum)
		out[i] = int(quota[i])
		if out[i] < floor(i) {
			out[i] = floor(i)
		}
		given += out[i]
	}
	for given > total {
		// The floors oversubscribed the total: claw back from the
		// index furthest ABOVE its exact quota that can still give.
		best := -1
		var bestOver float64
		for i := range out {
			if out[i] <= floor(i) {
				continue
			}
			over := float64(out[i]) - quota[i]
			if best == -1 || over > bestOver {
				best, bestOver = i, over
			}
		}
		out[best]--
		given--
	}
	for given < total {
		// Largest remainder: the index furthest BELOW its exact quota
		// takes the next unit (an index that already took one falls
		// negative and cannot win while a positive remainder exists).
		best := -1
		var bestLag float64
		for i := range out {
			lag := quota[i] - float64(out[i])
			if best == -1 || lag > bestLag {
				best, bestLag = i, lag
			}
		}
		out[best]++
		given++
	}
	return out
}

// WeightedIndex draws indexes in [0, len(weights)) with probability
// proportional to the weights — the open-loop analogue of Apportion's
// client-pool split. It is table-driven: the weights are apportioned
// over a fixed number of units (largest-remainder, the same arithmetic
// that sizes pinned closed-loop pools and slot shards) and each draw
// picks a unit uniformly, so Next is O(1) with zero allocations and
// the long-run offered split converges to the apportioned ratios.
// Every index with positive weight holds at least one unit, so no
// shard is starved outright; zero-weight indexes are never drawn
// (unless no weight is positive, in which case the split is uniform —
// Apportion's own fallback).
type WeightedIndex struct {
	table []uint16
	rng   *rand.Rand
}

// weightedIndexUnits is the sampler's resolution: the worst-case
// relative error of any index's drawn share is 1/4096 ≈ 0.02%.
const weightedIndexUnits = 1 << 12

// NewWeightedIndex builds a sampler over the weights.
func NewWeightedIndex(weights []float64, rng *rand.Rand) *WeightedIndex {
	n := len(weights)
	if n == 0 {
		panic("workload: WeightedIndex needs at least one weight")
	}
	if n > weightedIndexUnits {
		panic(fmt.Sprintf("workload: WeightedIndex supports at most %d indexes", weightedIndexUnits))
	}
	// Floors keep every positive-weight index drawable even when its
	// exact quota rounds to zero units.
	min := make([]int, n)
	anyPos := false
	for i, w := range weights {
		if w > 0 && !math.IsInf(w, 1) {
			min[i] = 1
			anyPos = true
		}
	}
	if !anyPos {
		for i := range min {
			min[i] = 1
		}
	}
	shares := ApportionMin(weightedIndexUnits, weights, min)
	w := &WeightedIndex{table: make([]uint16, 0, weightedIndexUnits), rng: rng}
	for i, s := range shares {
		for ; s > 0; s-- {
			w.table = append(w.table, uint16(i))
		}
	}
	return w
}

// Next draws one index.
func (w *WeightedIndex) Next() int { return int(w.table[w.rng.Intn(len(w.table))]) }

// ServiceRate estimates a replica group's saturated service rate in
// ops/second — the first-order calibration the client-side router uses
// to give a 7-replica Harmonia group proportionally more of a pinned
// closed-loop pool (and more routing slots) than a 3-replica one.
//
// The model mirrors the §6.1 scalability argument: every replica
// applies every write, so the write share loads each server in full,
// while reads either spread across all n replicas (Harmonia fast
// reads, CRAQ's per-replica clean reads) or all land on one designated
// server (the unassisted protocols' tail/primary/leader). The busiest
// server's utilization reaches 1 at
//
//	rate · [ writeRatio/writeRate + readShare·(1-writeRatio)/readRate ] = 1
//
// with readShare = 1/n when reads spread and 1 otherwise. readRate and
// writeRate are one server's calibrated ops/second for each class.
// Only ratios between groups matter to the router, but the absolute
// value is a real ops/second estimate under the model.
func ServiceRate(replicas int, spreadReads bool, writeRatio, readRate, writeRate float64) float64 {
	if replicas < 1 {
		replicas = 1
	}
	if readRate <= 0 || writeRate <= 0 {
		return 0
	}
	if writeRatio < 0 {
		writeRatio = 0
	}
	if writeRatio > 1 {
		writeRatio = 1
	}
	readShare := 1 - writeRatio
	if spreadReads {
		readShare /= float64(replicas)
	}
	perOp := writeRatio/writeRate + readShare/readRate
	if perOp <= 0 {
		// A read-only ratio on a spread group still costs its 1/n read
		// share; perOp can only vanish when writeRatio is 0 and the
		// read share underflowed, which no finite calibration produces.
		return math.Inf(1)
	}
	return 1 / perOp
}
