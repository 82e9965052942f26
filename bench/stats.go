package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

// rank is the 0-based index of the nearest-rank p-th percentile in a
// sorted sample of n.
func rank(n int, p float64) int {
	// The epsilon keeps p/100*n from rounding up past an exact integer.
	k := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// tailPercentile returns the highest of the candidate tail percentiles
// that leaves at least ten samples beyond it in a sample of n, or 0 when
// even p90 does not: the tail a report can state without resting on a
// handful of outliers.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if n-1-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartiles of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), so spreads here match ones computed with that function.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median, or
// NaN when there are fewer than four values to take quartiles from.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	med := percentile(xs, 50)
	if med == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(med)
}

// Served-capacity rule: a load step meets the service objective when
// its p99 is at most latencyLimitMs, nothing failed, and the generator
// ended the step no more than backlogLimitS seconds of arrivals behind.
const (
	latencyLimitMs = 50
	backlogLimitS  = 0.1
)

// stepResult summarizes one fixed-rate load step.
type stepResult struct {
	Rate     float64 `json:"rate"`
	N        int     `json:"n"`
	Failed   int     `json:"failed"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	BacklogS float64 `json:"backlog_s"`
}

// meets reports whether the step satisfies the service objective.
func (s stepResult) meets() bool {
	return s.N > 0 && s.Failed == 0 && s.P99Ms <= latencyLimitMs && s.BacklogS <= backlogLimitS
}

// maxRPS returns the highest grid rate whose step meets the service
// objective, or 0 when none does.
func maxRPS(steps []stepResult) float64 {
	best := 0.0
	for _, s := range steps {
		if s.meets() && s.Rate > best {
			best = s.Rate
		}
	}
	return best
}
