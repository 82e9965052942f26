package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %g, want 0", got)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("two-value quartiles = %g, %g; want 0.75, 2.25", q1, q3)
	}
	if !math.IsNaN(spread([]float64{1, 2, 3})) {
		t.Fatal("spread of three values should be NaN")
	}
}

func TestMaxRPSRule(t *testing.T) {
	ok := func(rate float64) stepResult { return stepResult{Rate: rate, N: 100, P99Ms: 10, BacklogS: 0.01} }
	slow, failing, behind := ok(2000), ok(2000), ok(2000)
	slow.P99Ms = latencyLimitMs + 1
	failing.Failed = 1
	behind.BacklogS = backlogLimitS + 0.01
	for _, c := range []struct {
		name  string
		steps []stepResult
		want  float64
	}{
		{"all meet", []stepResult{ok(500), ok(1000), ok(2000)}, 2000},
		{"p99 over the limit", []stepResult{ok(500), ok(1000), slow}, 1000},
		{"a failure", []stepResult{ok(500), ok(1000), failing}, 1000},
		{"backlog", []stepResult{ok(500), ok(1000), behind}, 1000},
		{"p99 at the limit meets", []stepResult{{Rate: 500, N: 1, P99Ms: latencyLimitMs}}, 500},
		{"empty step", []stepResult{{Rate: 500}}, 0},
		{"none", nil, 0},
	} {
		if got := maxRPS(c.steps); got != c.want {
			t.Errorf("%s: maxRPS = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	want := []time.Duration{100 - 40 - 10, 20, 20, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
}
