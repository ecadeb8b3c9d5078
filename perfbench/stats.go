package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method)
// computes them, so spreads reported here match ones computed from the
// printed values with Python. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	const n = 4
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(2), cut(3), true
}

// tailLadder lists the percentiles a timing may report as its tail, from
// the highest down.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that has
// at least ten samples beyond it, with its nearest-rank value. A tail
// estimate with fewer samples beyond it is one or two outliers, not a
// percentile; ok is false when even the median lacks ten samples beyond.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		rank := nearestRank(p, n)
		if n-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// percentile is the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[nearestRank(p, len(s))-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
// The small tolerance keeps float error from pushing an exact rank such
// as 99.9% of 10000 one place up.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// timing is one named series of durations in milliseconds.
type timing struct {
	ms []float64
}

func (t *timing) add(d time.Duration) { t.ms = append(t.ms, float64(d)/float64(time.Millisecond)) }

// summary is how a timing is reported: its sample count, median and
// quartiles, and the highest percentile with ten samples beyond it (p90
// when there are enough samples for one).
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
	HasP90 bool    `json:"has_p90"`
	P90    float64 `json:"p90,omitempty"`
}

func (t *timing) summary() summary {
	s := summary{N: len(t.ms), P50: median(t.ms)}
	s.Q1, _, s.Q3, _ = quartiles(t.ms)
	if p, v, ok := tailPercentile(t.ms); ok {
		s.TailP, s.Tail = p, v
		s.HasP90 = p >= 90
		if s.HasP90 {
			s.P90 = percentile(t.ms, 90)
		}
	}
	return s
}
