package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentileLadder lists the percentiles a tail figure may fall back to,
// highest first. A tail percentile is only reported when at least
// minBeyond samples lie above it; otherwise the next rung down is used.
var percentileLadder = []float64{0.99, 0.98, 0.95, 0.90, 0.75, 0.50}

// minBeyond is how many samples must lie strictly above a percentile for
// it to be reported.
const minBeyond = 10

// quantile is one percentile read from raw samples: the percentile that
// was actually reported, its value, and the sample count behind it.
type quantile struct {
	P      float64 // reported percentile, e.g. 0.99
	Value  float64
	N      int // samples the percentile was read from
	Beyond int // samples strictly above the reported rank (per chunk)
	Chunks int // chunks whose percentiles were combined (tailPercentile)
}

// nearestRank returns the 1-based nearest-rank index of percentile p in n
// sorted samples. The epsilon keeps p·n from rounding up past an exact
// rank (0.99 × 1000 is 990, not 991).
func nearestRank(p float64, n int) int {
	k := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(k, 1), n)
}

// percentile reads percentile p from sorted samples by nearest rank.
func percentile(sorted []float64, p float64) quantile {
	n := len(sorted)
	if n == 0 {
		return quantile{P: p}
	}
	k := nearestRank(p, n)
	return quantile{P: p, Value: sorted[k-1], N: n, Beyond: n - k}
}

// highestSupported reads the highest percentile up to want that has at
// least minBeyond samples above it. With too few samples for any rung it
// falls back to the median, whose Beyond field then says how thin it is.
func highestSupported(sorted []float64, want float64) quantile {
	for _, p := range percentileLadder {
		if p > want {
			continue
		}
		if q := percentile(sorted, p); q.Beyond >= minBeyond {
			return q
		}
	}
	return percentile(sorted, 0.50)
}

// tailPercentile reads the tail of samples kept in arrival order. It cuts
// them into consecutive chunks just large enough for percentile want to
// have minBeyond samples above it, reads want in each, and returns the
// median of those. On a shared machine a burst of interference from
// another tenant then moves a few chunks rather than the figure, while a
// tail the program produces throughout the run moves every chunk. With
// fewer than two chunks' worth of samples it is the whole sample's highest
// supported percentile.
func tailPercentile(samples []float64, want float64) quantile {
	size := int(math.Ceil(minBeyond/(1-want) - 1e-9))
	k := len(samples) / size
	if k < 2 {
		q := highestSupported(sortedCopy(samples), want)
		q.Chunks = 1
		return q
	}
	values := make([]float64, k)
	var q quantile
	for i := range values {
		lo, hi := i*len(samples)/k, (i+1)*len(samples)/k
		q = highestSupported(sortedCopy(samples[lo:hi]), want)
		values[i] = q.Value
	}
	return quantile{P: q.P, Value: median(values), N: len(samples), Beyond: q.Beyond, Chunks: k}
}

// tailNote reports the whole run's p99, or the highest percentile below it
// the sample supports. It is printed beside the gated tail figure and not
// gated itself: on a shared two-CPU machine the far tail of a run follows
// the other tenants more than the program.
func tailNote(sorted []float64) string {
	q := highestSupported(sorted, 0.99)
	return fmt.Sprintf("; ungated whole-run p%g %.4g ms of %d samples, %d beyond", q.P*100, q.Value, q.N, q.Beyond)
}

// sortedCopy returns the samples in ascending order without touching the
// input.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of raw samples (0 when empty).
func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 0.50).Value
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, returning 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
