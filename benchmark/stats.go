package main

import (
	"math"
	"sort"
	"time"

	"harmonia/internal/metrics"
)

// summary describes the repetitions of one host-side measurement.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// spread is the quartile distance as a share of the median — the
// run-to-run noise figure every bound in BENCHMARK.json is sized by.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// summarize returns the order statistics of vs. Quartiles follow
// Python's statistics.quantiles(vs, n=4) (the "exclusive" method), so
// a spread computed here matches the one the acceptance check computes.
func summarize(vs []float64) summary {
	if len(vs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Median: quartile(s, 2),
		Q1:     quartile(s, 1),
		Q3:     quartile(s, 3),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

func median(vs []float64) float64 { return summarize(vs).Median }

// quartile returns the i-th quartile (i = 1, 2, 3) of sorted exactly as
// Python's statistics.quantiles(sorted, n=4) computes it: position
// i·(n+1)/4, with the neighbours clamped inside the sample and the
// interpolation weight left free to extrapolate on tiny samples.
func quartile(sorted []float64, i int) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	j := i * (n + 1) / 4
	j = max(1, min(j, n-1))
	delta := float64(i*(n+1) - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// interpolatedQuantile estimates quantile q inside its histogram
// bucket. Histogram.Quantile answers with the bucket's upper bound, so
// across seeds it either reads exactly the same or jumps a whole x1.25
// step; neither can carry a bound. Quantile is a step function of q, so
// bisecting on q finds the shares of the samples at the bucket's two
// edges, and q is placed between the edges where it lies between those
// shares. Only the step shape of Quantile is relied on.
func interpolatedQuantile(h *metrics.Histogram, q float64) time.Duration {
	upper := h.Quantile(q)
	// crossing returns the q in lo..hi where Quantile stops satisfying
	// before.
	crossing := func(lo, hi float64, before func(time.Duration) bool) float64 {
		for i := 0; i < 40; i++ {
			if mid := (lo + hi) / 2; before(h.Quantile(mid)) {
				lo = mid
			} else {
				hi = mid
			}
		}
		return lo
	}
	start, lower := 0.0, h.Min() // the first occupied bucket starts at the smallest sample
	if h.Quantile(0) < upper {
		start = crossing(0, q, func(d time.Duration) bool { return d < upper })
		lower = h.Quantile(start) // the bound of the occupied bucket before
	}
	end := crossing(q, 1, func(d time.Duration) bool { return d <= upper })
	if end <= start {
		return upper
	}
	return lower + time.Duration((q-start)/(end-start)*float64(upper-lower))
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
