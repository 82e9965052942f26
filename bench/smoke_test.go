package main

import (
	"sort"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload traced on a tiny world with
// one-second steps and one iteration, so the benchmark cannot rot: each
// must pass its correctness checks and emit exactly the metrics
// BENCHMARK.json lists, every end-to-end metric and every per-layer
// time non-zero.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	units := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
		units[m.Name] = m.Unit
	}
	sz := sizes{
		studyScale: 0.02, servedScale: 0.02, crawlScale: 0.02,
		seconds: time.Second, minIters: 1, warm: time.Second, sweep: time.Second, setups: 2,
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rec, tr, err := runWorkload(w.name, w.run, sz, 1, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range rec.Checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Info)
				}
			}
			if !rec.Correct || rec.Attempted < 1 {
				t.Errorf("correct %v, attempted %d", rec.Correct, rec.Attempted)
			}
			assertMetrics(t, "end_to_end", rec.EndToEnd, e2e, units, true)
			assertMetrics(t, "per_layer", rec.PerLayer, layer, units, false)
			if len(tr.snapshot()) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// assertMetrics checks that got holds exactly the names, each with its
// BENCHMARK.json unit; times must be non-zero, and so must every value
// when allNonZero is set.
func assertMetrics(t *testing.T, kind string, got map[string]metric, names []string, units map[string]string, allNonZero bool) {
	t.Helper()
	var have []string
	for n := range got {
		have = append(have, n)
	}
	sort.Strings(have)
	sort.Strings(names)
	if len(have) != len(names) {
		t.Errorf("%s metrics:\n got %v\nwant %v", kind, have, names)
		return
	}
	for i := range have {
		if have[i] != names[i] {
			t.Errorf("%s metrics:\n got %v\nwant %v", kind, have, names)
			return
		}
	}
	for n, m := range got {
		if m.Unit != units[n] {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", n, m.Unit, units[n])
		}
		isTime := m.Unit == "s" || m.Unit == "ms" || m.Unit == "us"
		if (allNonZero || isTime) && !(m.Value > 0) {
			t.Errorf("%s = %v, want > 0", n, m.Value)
		}
	}
}
