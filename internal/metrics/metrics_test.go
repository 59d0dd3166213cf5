package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	h.Observe(100 * time.Microsecond)
	h.Observe(200 * time.Microsecond)
	h.Observe(300 * time.Microsecond)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 200*time.Microsecond {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != 100*time.Microsecond || h.Max() != 300*time.Microsecond {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	// Uniform samples in [1ms, 2ms): p50 ≈ 1.5ms within bucket error.
	for i := 0; i < 100000; i++ {
		h.Observe(time.Millisecond + time.Duration(rng.Int63n(int64(time.Millisecond))))
	}
	p50 := h.Quantile(0.5)
	if p50 < 1200*time.Microsecond || p50 > 1900*time.Microsecond {
		t.Fatalf("p50 = %v, want ≈1.5ms ±25%%", p50)
	}
	if h.Quantile(0) < h.Min() {
		t.Fatal("q0 below min")
	}
	if h.Quantile(1) > h.Max() {
		t.Fatal("q1 above max")
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		h := NewHistogram()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			h.Observe(time.Duration(rng.Int63n(int64(10 * time.Millisecond))))
		}
		prev := time.Duration(0)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestBucketOfMatchesFormula holds the table lookup to the logarithm
// it replaces: at every bucket edge and power of two ±2000 ns, and on a
// million random durations spread over every bit length.
func TestBucketOfMatchesFormula(t *testing.T) {
	check := func(d time.Duration) {
		if got, want := bucketOf(d), logBucket(d); got != want {
			t.Fatalf("bucketOf(%d) = %d, formula %d", d, got, want)
		}
	}
	for b := 1; b < histSlots; b++ {
		if logBucket(bucketLow[b]) != b || logBucket(bucketLow[b]-1) != b-1 {
			t.Fatalf("bucket %d starts at %d: formula %d there, %d just below", b, bucketLow[b], logBucket(bucketLow[b]), logBucket(bucketLow[b]-1))
		}
	}
	edges := append([]time.Duration(nil), bucketLow[1:]...)
	for l := 0; l < 63; l++ {
		edges = append(edges, 1<<l)
	}
	for _, e := range edges {
		for k := time.Duration(-2000); k <= 2000; k++ {
			if e+k >= 0 {
				check(e + k)
			}
		}
	}
	check(math.MaxInt64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		check(time.Duration(rng.Int63() >> rng.Intn(63)))
	}
}

func TestHistogramSubMicrosecond(t *testing.T) {
	h := NewHistogram()
	h.Observe(10 * time.Nanosecond)
	if h.Count() != 1 {
		t.Fatal("sub-µs sample lost")
	}
}

func TestHistogramHugeSample(t *testing.T) {
	h := NewHistogram()
	h.Observe(100 * time.Hour) // beyond last bucket: clamps, no panic
	if h.Count() != 1 || h.Max() != 100*time.Hour {
		t.Fatal("huge sample mishandled")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Observe(time.Millisecond)
	b.Observe(3 * time.Millisecond)
	b.Observe(5 * time.Millisecond)
	a.Merge(b)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != time.Millisecond || a.Max() != 5*time.Millisecond {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	if a.Mean() != 3*time.Millisecond {
		t.Fatalf("merged mean = %v", a.Mean())
	}
}

// TestHistogramMergeEqualsUnion is the Merge property test: merging
// two histograms must be indistinguishable from observing the union of
// their samples in one histogram — identical counts, sums, extremes,
// and (since bucketing is deterministic) every quantile.
func TestHistogramMergeEqualsUnion(t *testing.T) {
	f := func(seed int64, split uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, union := NewHistogram(), NewHistogram(), NewHistogram()
		n := 50 + rng.Intn(500)
		cut := int(split) % (n + 1)
		for i := 0; i < n; i++ {
			d := time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
			union.Observe(d)
			if i < cut {
				a.Observe(d)
			} else {
				b.Observe(d)
			}
		}
		a.Merge(b)
		if a.Count() != union.Count() || a.Sum() != union.Sum() ||
			a.Min() != union.Min() || a.Max() != union.Max() {
			return false
		}
		for q := 0.0; q <= 1.0; q += 0.1 {
			if a.Quantile(q) != union.Quantile(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramResetEmpties is the Reset property test: a reset
// histogram must be indistinguishable from a fresh one, both when read
// empty and after new observations.
func TestHistogramResetEmpties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram()
		for i := 0; i < 200; i++ {
			h.Observe(time.Duration(rng.Int63n(int64(10 * time.Millisecond))))
		}
		h.Reset()
		if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 ||
			h.Min() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 {
			return false
		}
		// Reuse after Reset matches a fresh histogram sample-for-sample.
		fresh := NewHistogram()
		for i := 0; i < 100; i++ {
			d := time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
			h.Observe(d)
			fresh.Observe(d)
		}
		return h.Count() == fresh.Count() && h.Sum() == fresh.Sum() &&
			h.Min() == fresh.Min() && h.Max() == fresh.Max() &&
			h.Quantile(0.5) == fresh.Quantile(0.5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	if h.String() == "" {
		t.Fatal("empty String")
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.Add(100 * time.Millisecond)  // bucket 0
	ts.Add(900 * time.Millisecond)  // bucket 0
	ts.Add(2500 * time.Millisecond) // bucket 2; bucket 1 empty
	pts := ts.Points()
	if len(pts) != 3 {
		t.Fatalf("%d points, want 3 (including empty gap)", len(pts))
	}
	if pts[0].Count != 2 || pts[1].Count != 0 || pts[2].Count != 1 {
		t.Fatalf("counts = %d,%d,%d", pts[0].Count, pts[1].Count, pts[2].Count)
	}
	if pts[0].Rate != 2 {
		t.Fatalf("rate = %v, want 2/s", pts[0].Rate)
	}
	if pts[2].Start != 2*time.Second {
		t.Fatalf("start = %v", pts[2].Start)
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	if ts.Points() != nil {
		t.Fatal("empty series has points")
	}
}

func TestTimeSeriesInvalidBucket(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTimeSeries(0)
}
