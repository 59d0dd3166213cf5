package workload

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestUniformCoversSpace(t *testing.T) {
	g := NewUniform(100, rand.New(rand.NewSource(1)))
	seen := make([]bool, 100)
	for i := 0; i < 10000; i++ {
		k := g.Next()
		if k < 0 || k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	for k, s := range seen {
		if !s {
			t.Fatalf("key %d never drawn in 10k samples", k)
		}
	}
}

func TestUniformIsRoughlyFlat(t *testing.T) {
	g := NewUniform(10, rand.New(rand.NewSource(2)))
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[g.Next()]++
	}
	for k, c := range counts {
		frac := float64(c) / n
		if frac < 0.08 || frac > 0.12 {
			t.Fatalf("key %d frequency %v, want ~0.1", k, frac)
		}
	}
}

func TestZipfianRange(t *testing.T) {
	g := NewZipfian(1000, 0.9, rand.New(rand.NewSource(3)))
	for i := 0; i < 10000; i++ {
		k := g.Next()
		if k < 0 || k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestZipfianIsSkewed(t *testing.T) {
	// With θ=0.9 the most popular key should take a large share and
	// the distribution must be far from flat.
	g := NewZipfian(1000, 0.9, rand.New(rand.NewSource(4)))
	counts := map[int]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[g.Next()]++
	}
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	top := float64(freqs[0]) / n
	if top < 0.05 {
		t.Fatalf("hottest key has share %v, want ≥ 5%% under zipf-0.9", top)
	}
	// Top-10 share should dominate a uniform draw's 1%.
	top10 := 0
	for i := 0; i < 10 && i < len(freqs); i++ {
		top10 += freqs[i]
	}
	if share := float64(top10) / n; share < 0.2 {
		t.Fatalf("top-10 share %v, want ≥ 20%%", share)
	}
}

func TestZipfianScrambleSpreadsHotKeys(t *testing.T) {
	// The hottest keys must not be clustered at small indexes.
	g := NewZipfian(1000, 0.9, rand.New(rand.NewSource(5)))
	counts := map[int]int{}
	for i := 0; i < 100000; i++ {
		counts[g.Next()]++
	}
	hottest, hc := 0, 0
	for k, c := range counts {
		if c > hc {
			hottest, hc = k, c
		}
	}
	if hottest == 0 {
		t.Fatal("hottest key at index 0 suggests unscrambled ranks")
	}
}

func TestZipfianThetaHeavyTail(t *testing.T) {
	// θ > 1 routes to the rejection-inversion sampler; the result must
	// stay in range, be markedly MORE skewed than θ = 0.9, and share
	// the scrambled rank order (rank 0 lands on the same key).
	g := NewZipfianTheta(1000, 1.2, rand.New(rand.NewSource(6)))
	if g.N() != 1000 {
		t.Fatalf("N = %d", g.N())
	}
	counts := map[int]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		k := g.Next()
		if k < 0 || k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	hottest, hc := 0, 0
	for k, c := range counts {
		if c > hc {
			hottest, hc = k, c
		}
	}
	if share := float64(hc) / n; share < 0.2 {
		t.Fatalf("hottest key share %v under zipf-1.2, want ≥ 20%%", share)
	}
	if want := ZipfKeyOfRank(1000, 0); hottest != want {
		t.Fatalf("hottest key %d, want scrambled rank 0 = %d", hottest, want)
	}
	// θ ≤ 1 must keep returning the Gray-method generator.
	if _, ok := NewZipfianTheta(1000, 0.9, rand.New(rand.NewSource(7))).(*Zipfian); !ok {
		t.Fatal("theta ≤ 1 no longer uses the Gray construction")
	}
}

func TestZetaMatchesDirectSum(t *testing.T) {
	want := 1 + 1/math.Pow(2, 0.9) + 1/math.Pow(3, 0.9)
	if got := zeta(3, 0.9); math.Abs(got-want) > 1e-12 {
		t.Fatalf("zeta = %v, want %v", got, want)
	}
}

func TestKeyNameDistinct(t *testing.T) {
	if KeyName(1) == KeyName(2) {
		t.Fatal("key names collide")
	}
	if KeyName(42) != "obj00000042" {
		t.Fatalf("KeyName(42) = %q", KeyName(42))
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { NewUniform(0, rand.New(rand.NewSource(1))) },
		func() { NewZipfian(0, 0.9, rand.New(rand.NewSource(1))) },
		func() { NewZipfian(10, 1.5, rand.New(rand.NewSource(1))) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestGroupSpecApportionSumsAndUniformCompat(t *testing.T) {
	cases := []struct {
		total   int
		weights []float64
	}{
		{64, []float64{1, 1, 1}},
		{64, []float64{1, 1, 1, 1}},
		{7, []float64{3, 1}},
		{256, []float64{6.9, 1.05, 1.05}},
		{5, []float64{0, 0, 0}},      // degenerate: falls back to uniform
		{5, []float64{-1, 2, 1e308}}, // negative ignored, huge kept finite
		{3, []float64{1e-12, 1, 1}},  // tiny weight may get zero units
		{0, []float64{1, 2}},         // nothing to split
	}
	for _, tc := range cases {
		got := Apportion(tc.total, tc.weights)
		if len(got) != len(tc.weights) {
			t.Fatalf("Apportion(%d, %v) len = %d", tc.total, tc.weights, len(got))
		}
		sum := 0
		for _, n := range got {
			if n < 0 {
				t.Fatalf("Apportion(%d, %v) = %v: negative share", tc.total, tc.weights, got)
			}
			sum += n
		}
		if sum != tc.total {
			t.Fatalf("Apportion(%d, %v) = %v sums to %d", tc.total, tc.weights, got, sum)
		}
	}
	// Equal weights reproduce the historical even split: floor share
	// everywhere, first total%n indexes carry the extra unit.
	for _, n := range []int{1, 2, 3, 5, 8} {
		for total := 0; total <= 40; total++ {
			w := make([]float64, n)
			for i := range w {
				w[i] = 2.5
			}
			got := Apportion(total, w)
			for i, share := range got {
				want := total / n
				if i < total%n {
					want++
				}
				if share != want {
					t.Fatalf("Apportion(%d, uniform %d) = %v, index %d want %d", total, n, got, i, want)
				}
			}
		}
	}
}

func TestGroupSpecApportionFollowsWeights(t *testing.T) {
	got := Apportion(100, []float64{7, 3})
	if got[0] != 70 || got[1] != 30 {
		t.Fatalf("Apportion(100, 7:3) = %v", got)
	}
	got = Apportion(10, []float64{2, 1, 1})
	if got[0] != 5 || got[1] != 3 || got[2] != 2 {
		// quotas 5, 2.5, 2.5: tie on the remainder goes to the lower index
		t.Fatalf("Apportion(10, 2:1:1) = %v", got)
	}
}

func TestGroupSpecServiceRateModel(t *testing.T) {
	const rr, wr = 0.92e6, 0.80e6
	// Read-only, reads spread: rate scales linearly with replicas.
	r3 := ServiceRate(3, true, 0, rr, wr)
	r7 := ServiceRate(7, true, 0, rr, wr)
	if r3 <= 0 || r7/r3 < 7.0/3-1e-9 || r7/r3 > 7.0/3+1e-9 {
		t.Fatalf("spread read-only rates: 3→%v 7→%v", r3, r7)
	}
	// Unspread reads: replica count is irrelevant.
	if a, b := ServiceRate(3, false, 0.05, rr, wr), ServiceRate(7, false, 0.05, rr, wr); a != b {
		t.Fatalf("unspread rates differ: %v vs %v", a, b)
	}
	// Writes always load every server: write-only rate is writeRate
	// regardless of spreading or replica count.
	if got := ServiceRate(5, true, 1, rr, wr); got < wr-1 || got > wr+1 {
		t.Fatalf("write-only rate = %v, want ≈%v", got, wr)
	}
	// More replicas never slows a group down; spreading never hurts.
	prev := 0.0
	for n := 1; n <= 9; n++ {
		got := ServiceRate(n, true, 0.05, rr, wr)
		if got < prev {
			t.Fatalf("rate decreased at %d replicas: %v < %v", n, got, prev)
		}
		if unspread := ServiceRate(n, false, 0.05, rr, wr); got < unspread-1e-6 {
			t.Fatalf("spreading hurt at %d replicas: %v < %v", n, got, unspread)
		}
		prev = got
	}
	// Degenerate calibrations are reported as unusable, not garbage.
	if got := ServiceRate(3, true, 0.05, 0, wr); got != 0 {
		t.Fatalf("zero read rate → %v, want 0", got)
	}
}

func TestGroupSpecApportionMinFloors(t *testing.T) {
	// Floors hold even against dominant weights, and the clawback
	// takes back from the most over-quota index.
	got := ApportionMin(10, []float64{1e9, 1, 1, 1}, []int{1, 1, 1, 1})
	if got[0] != 7 || got[1] != 1 || got[2] != 1 || got[3] != 1 {
		t.Fatalf("ApportionMin(10, dominant, ones) = %v", got)
	}
	// Without floors, ApportionMin is exactly Apportion.
	for _, tc := range []struct {
		total   int
		weights []float64
	}{
		{100, []float64{7, 3}},
		{10, []float64{2, 1, 1}},
		{5, []float64{0, 0}},
	} {
		a := Apportion(tc.total, tc.weights)
		b := ApportionMin(tc.total, tc.weights, nil)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Apportion(%d,%v)=%v but ApportionMin nil-floors=%v", tc.total, tc.weights, a, b)
			}
		}
	}
	// Sum with floors is always exact.
	got = ApportionMin(256, []float64{1e-9, 5, 3, 1e-9}, []int{1, 1, 1, 1})
	sum := 0
	for _, n := range got {
		sum += n
	}
	if sum != 256 || got[0] != 1 || got[3] != 1 {
		t.Fatalf("ApportionMin floors = %v (sum %d)", got, sum)
	}
}

// TestWeightedIndexFollowsWeights: the table-driven sampler realizes
// the apportioned ratios — a 2:1 weight pair draws index 0 about twice
// as often as index 1.
func TestWeightedIndexFollowsWeights(t *testing.T) {
	w := NewWeightedIndex([]float64{2, 1}, rand.New(rand.NewSource(7)))
	counts := [2]int{}
	const n = 60000
	for i := 0; i < n; i++ {
		counts[w.Next()]++
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.85 || ratio > 2.15 {
		t.Fatalf("2:1 weights drew %v (ratio %.3f)", counts, ratio)
	}
}

// TestWeightedIndexZeroWeightNeverDrawn: a zero-weight index holds no
// units while the positive ones keep at least one each, even when
// their exact quota rounds to zero.
func TestWeightedIndexZeroWeightNeverDrawn(t *testing.T) {
	w := NewWeightedIndex([]float64{1, 0, 1e-9}, rand.New(rand.NewSource(8)))
	sawTiny := false
	for i := 0; i < 200000; i++ {
		switch w.Next() {
		case 1:
			t.Fatal("zero-weight index drawn")
		case 2:
			sawTiny = true
		}
	}
	if !sawTiny {
		t.Fatal("positive-weight index starved despite the unit floor")
	}
}

// TestWeightedIndexDegenerateUniform: with no positive weight the
// sampler falls back to a uniform draw (Apportion's own fallback)
// instead of an empty table.
func TestWeightedIndexDegenerateUniform(t *testing.T) {
	w := NewWeightedIndex([]float64{0, 0, 0}, rand.New(rand.NewSource(9)))
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[w.Next()]++
	}
	for i, c := range counts {
		if c < 8000 {
			t.Fatalf("degenerate fallback not uniform: index %d drew %d of 30000 (%v)", i, c, counts)
		}
	}
}

// referenceZipfian is the generator as it was before the constants
// were shared: every field computed per instance, math.Pow(0.5, θ)
// recomputed per draw. TestZipfianDrawsUnchanged compares against it.
type referenceZipfian struct {
	n                               int
	theta, alpha, zetan, eta, zeta2 float64
	rng                             *rand.Rand
}

func newReferenceZipfian(n int, theta float64, rng *rand.Rand) *referenceZipfian {
	z := &referenceZipfian{n: n, theta: theta, rng: rng}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func (z *referenceZipfian) Next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return ZipfKeyOfRank(z.n, rank)
}

// TestZipfianDrawsUnchanged pins the draw sequence: sharing the
// constants per (n, θ) must not move a single key, on the full
// benchmark key space and on one pinned group's eighth of it.
func TestZipfianDrawsUnchanged(t *testing.T) {
	for _, n := range []int{100000, 12500} {
		for _, seed := range []int64{1, 2, 77} {
			got := NewZipfian(n, 0.9, rand.New(rand.NewSource(seed)))
			want := newReferenceZipfian(n, 0.9, rand.New(rand.NewSource(seed)))
			for i := 0; i < 10000; i++ {
				if g, w := got.Next(), want.Next(); g != w {
					t.Fatalf("n=%d seed=%d draw %d: got key %d, reference %d", n, seed, i, g, w)
				}
			}
		}
	}
}

// TestZipfianConcurrentConstruction builds generators over one fresh
// key space from several goroutines at once (run under -race): all
// must end up with the one shared set of constants and draw the
// reference sequence.
func TestZipfianConcurrentConstruction(t *testing.T) {
	const n, theta, workers = 31337, 0.8, 8
	gens := make([]*Zipfian, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gens[w] = NewZipfian(n, theta, rand.New(rand.NewSource(int64(w))))
		}(w)
	}
	wg.Wait()
	for w, g := range gens {
		if g.zipfConsts != gens[0].zipfConsts {
			t.Fatalf("generator %d holds its own constants", w)
		}
		want := newReferenceZipfian(n, theta, rand.New(rand.NewSource(int64(w))))
		for i := 0; i < 1000; i++ {
			if got, ref := g.Next(), want.Next(); got != ref {
				t.Fatalf("generator %d draw %d: got key %d, reference %d", w, i, got, ref)
			}
		}
	}
}
