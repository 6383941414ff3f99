package main

import (
	"math"
	"sort"
)

// minBeyond is the reporting rule for tail percentiles: a percentile is
// only quoted when at least this many samples lie beyond it, so a single
// outlier cannot become the reported tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted,
// which must be in ascending order. It returns NaN for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond is the number of samples strictly past the nearest-rank
// q-quantile of n samples.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// tailOK reports whether the q-quantile of n samples may be quoted.
func tailOK(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// highestTail is the highest of the standard tail percentiles that n
// samples support under the minBeyond rule (0 when even the median has
// fewer than minBeyond samples past it).
func highestTail(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if tailOK(n, q) {
			return q
		}
	}
	return 0
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value of xs (mean of the two middle values for an
// even count), the statistic every per-segment figure is reduced by.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// interval is a closed-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap one another and may stick out of the
// parent; only their union clipped to the parent counts.
func selfTime(parent interval, children []interval) int64 {
	var clipped []interval
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	cur := interval{-1, -1}
	for _, c := range clipped {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	covered += cur.end - cur.start
	return (parent.end - parent.start) - covered
}
