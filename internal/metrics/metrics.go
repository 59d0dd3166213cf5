// Package metrics provides the latency histograms, throughput counters
// and time-series buckets the evaluation harness reports.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// Histogram records duration samples in logarithmic buckets (power of
// ~1.25 growth from 1µs), accurate to a few percent — ample for
// latency-vs-throughput curves.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

const (
	histBase   = float64(time.Microsecond)
	histGrowth = 1.25
	histSlots  = 96 // covers ~1µs .. ~2000s
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histSlots), min: math.MaxInt64}
}

// logBucket is the bucket formula: bucket b ≥ 1 holds
// [1µs·1.25^(b-1), 1µs·1.25^b), as the float logarithm rounds it, and
// the last one everything above. Only the tables below evaluate it;
// bucketOf looks its answer up.
func logBucket(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	b := int(math.Log(float64(d)/histBase)/math.Log(histGrowth)) + 1
	if b >= histSlots {
		b = histSlots - 1
	}
	return b
}

// bucketLow[b] is the smallest duration logBucket puts in bucket b or
// above (found by bisecting the formula itself, so the lookup agrees
// with it at every edge), and bucketAtLen[l] is the bucket of the
// smallest duration l bits long — where bucketOf's walk starts.
var bucketLow, bucketAtLen = func() (low [histSlots]time.Duration, atLen [64]uint8) {
	for b := 1; b < histSlots; b++ {
		lo, hi := time.Duration(time.Microsecond), time.Duration(math.MaxInt64)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if logBucket(mid) >= b {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		low[b] = lo
	}
	for l := 1; l < len(atLen); l++ {
		atLen[l] = uint8(logBucket(1 << (l - 1)))
	}
	return
}()

// bucketOf returns d's bucket, logBucket's answer without a logarithm:
// a power of two spans about three buckets, so from the first bucket of
// d's bit length the walk takes at most four steps.
func bucketOf(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	b := int(bucketAtLen[bits.Len64(uint64(d))])
	for b+1 < histSlots && d >= bucketLow[b+1] {
		b++
	}
	return b
}

// bucketUpper returns the representative (upper bound) value of bucket
// b.
func bucketUpper(b int) time.Duration {
	if b == 0 {
		return time.Microsecond
	}
	return time.Duration(histBase * math.Pow(histGrowth, float64(b)))
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketOf(d)]++
	h.total++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the average sample.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Min and Max return sample extremes (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an upper-bound estimate of quantile q in [0,1].
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= target {
			u := bucketUpper(b)
			if u > h.max {
				u = h.max
			}
			if u < h.min {
				u = h.min
			}
			return u
		}
	}
	return h.max
}

// Sum returns the exact total of all samples (not a bucket estimate).
func (h *Histogram) Sum() time.Duration { return h.sum }

// Reset empties the histogram in place, preserving its bucket storage,
// so long-lived per-phase histograms can be recycled between
// measurement windows without allocating.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum, h.max = 0, 0, 0
	h.min = math.MaxInt64
}

// Merge adds other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.total > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.total, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// TimeSeries buckets event counts by time for throughput-over-time
// plots (Fig. 10).
type TimeSeries struct {
	bucket time.Duration
	counts map[int64]uint64
}

// NewTimeSeries creates a series with the given bucket width.
func NewTimeSeries(bucket time.Duration) *TimeSeries {
	if bucket <= 0 {
		panic("metrics: bucket width must be positive")
	}
	return &TimeSeries{bucket: bucket, counts: make(map[int64]uint64)}
}

// Add records an event at time t (since run start).
func (ts *TimeSeries) Add(t time.Duration) { ts.counts[int64(t/ts.bucket)]++ }

// Point is one bucket of the series.
type Point struct {
	Start time.Duration
	Count uint64
	// Rate is events per second within the bucket.
	Rate float64
}

// Points returns the buckets in time order, including empty buckets
// between the first and last non-empty ones.
func (ts *TimeSeries) Points() []Point {
	if len(ts.counts) == 0 {
		return nil
	}
	keys := make([]int64, 0, len(ts.counts))
	for k := range ts.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	first, last := keys[0], keys[len(keys)-1]
	out := make([]Point, 0, last-first+1)
	for k := first; k <= last; k++ {
		c := ts.counts[k]
		out = append(out, Point{
			Start: time.Duration(k) * ts.bucket,
			Count: c,
			Rate:  float64(c) / ts.bucket.Seconds(),
		})
	}
	return out
}
