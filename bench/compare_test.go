package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	var s benchSpec
	err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.2}]}`), &s)
	if err != nil {
		t.Fatal(err)
	}
	return &s
}

// set builds a run set of the study workload from per-metric values.
func set(p50, rate []float64) *runSet {
	return &runSet{
		values:  map[string]map[string][]float64{"study": {"op_p50_ms": p50, "rate": rate}},
		hashes:  map[string]map[string]bool{"study": {"h": true}},
		correct: true,
	}
}

func verdicts(rows []string) map[string]string {
	out := map[string]string{}
	for _, r := range rows {
		f := strings.Fields(r)
		if len(f) > 2 && f[0] == "study" {
			out[f[1]] = r
		}
	}
	return out
}

func TestCompareBounds(t *testing.T) {
	spec := testSpec(t)
	base := set([]float64{100}, []float64{1000})
	for _, c := range []struct {
		name    string
		b       *runSet
		pass    bool
		flagged string // metric whose row must say REGRESSION
	}{
		{"identical", set([]float64{100}, []float64{1000}), true, ""},
		{"lower-better metric within its bound", set([]float64{109}, []float64{1000}), true, ""},
		{"lower-better metric past its bound", set([]float64{111}, []float64{1000}), false, "op_p50_ms"},
		{"higher-better metric within its bound", set([]float64{100}, []float64{810}), true, ""},
		{"higher-better metric past its bound", set([]float64{100}, []float64{790}), false, "rate"},
		{"improvement", set([]float64{50}, []float64{2000}), true, ""},
	} {
		rows, ok := compareSets(spec, base, c.b)
		if ok != c.pass {
			t.Errorf("%s: pass = %v, want %v\n%s", c.name, ok, c.pass, strings.Join(rows, "\n"))
		}
		if c.flagged != "" && !strings.Contains(verdicts(rows)[c.flagged], "REGRESSION") {
			t.Errorf("%s: %s not flagged\n%s", c.name, c.flagged, strings.Join(rows, "\n"))
		}
	}

	wide := set([]float64{60, 100, 140, 100, 80}, []float64{1000, 1000, 1000, 1000, 1000})
	rows, ok := compareSets(spec, wide, set([]float64{105}, []float64{1000}))
	if !ok || !strings.Contains(verdicts(rows)["op_p50_ms"], "unresolved") {
		t.Errorf("a spread wider than the bound should be unresolved, not a failure:\n%s", strings.Join(rows, "\n"))
	}

	other := set([]float64{100}, []float64{1000})
	other.hashes["study"] = map[string]bool{"other": true}
	if _, ok := compareSets(spec, base, other); ok {
		t.Error("differing output hashes must fail")
	}
	broken := set([]float64{100}, []float64{1000})
	broken.correct = false
	if _, ok := compareSets(spec, base, broken); ok {
		t.Error("an incorrect run must fail")
	}
}

func TestPairVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	if v, wins := pairVerdict(parent, faster, "lower", 0.1); v != "GAIN" || wins != 10 {
		t.Errorf("clear gain: %s with %d wins", v, wins)
	}
	mixed := append([]float64(nil), faster...)
	mixed[0], mixed[1] = 120, 120 // 8 of 10 wins
	if v, _ := pairVerdict(parent, mixed, "lower", 0.1); v != "no gain shown" {
		t.Errorf("8/10 wins: %s", v)
	}
	within := []float64{99.5, 100.5, 98.5, 99.5, 101.5, 97.5, 99.5, 100.5, 98.5, 99.5}
	if v, _ := pairVerdict(parent, within, "lower", 0.1); v != "no gain shown" {
		t.Errorf("median gap inside the parent's IQR: %s", v)
	}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	if v, _ := pairVerdict(parent, slower, "lower", 0.1); v != "REGRESSION" {
		t.Errorf("slower beyond the bound: %s", v)
	}
	if v, _ := pairVerdict(parent[:5], faster[:5], "lower", 0.1); !strings.HasPrefix(v, "too few pairs") {
		t.Errorf("five pairs: %s", v)
	}
}
