package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	if path == "" {
		path = "BENCHMARK.json"
		if _, err := os.Stat(path); err != nil {
			path = filepath.Join("..", path)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSet is a set of runs: per workload and end-to-end metric, the
// values of the untraced runs, plus each workload's output hashes and
// whether every run was correct.
type runSet struct {
	values  map[string]map[string][]float64
	hashes  map[string]map[string]bool
	correct bool
}

// loadRuns reads a results file, or every *.json results file in a
// directory, into one set.
func loadRuns(path string) (*runSet, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	s := &runSet{values: map[string]map[string][]float64{}, hashes: map[string]map[string]bool{}, correct: true}
	for _, f := range files {
		res, err := readResults(f)
		if err != nil {
			return nil, err
		}
		for _, rec := range res.Records {
			if rec.Traced {
				continue
			}
			s.correct = s.correct && rec.Correct
			if s.values[rec.Workload] == nil {
				s.values[rec.Workload] = map[string][]float64{}
				s.hashes[rec.Workload] = map[string]bool{}
			}
			for name, m := range rec.EndToEnd {
				s.values[rec.Workload][name] = append(s.values[rec.Workload][name], m.Value)
			}
			if rec.Hash != "" {
				s.hashes[rec.Workload][rec.Hash] = true
			}
		}
	}
	return s, nil
}

// worse is how much b is worse than a, as a share of a: positive when b
// is worse in the metric's better direction.
func worse(a, b float64, better string) float64 {
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "", "BENCHMARK.json with the metrics' bounds (default ./BENCHMARK.json, then ../BENCHMARK.json)")
	pairs := fs.String("pairs", "", "directory of alternating parent-*.json and change-*.json runs to test a claimed gain")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	if *pairs != "" {
		return comparePairs(spec, *pairs, stdout, stderr)
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "bench compare: want two results files or directories, A (base) and B")
		return 2
	}
	a, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	b, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	rows, ok := compareSets(spec, a, b)
	fmt.Fprintf(stdout, "%-8s %-12s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "median A", "median B", "worse", "bound", "spread", "verdict")
	for _, r := range rows {
		fmt.Fprintln(stdout, r)
	}
	if !ok {
		return 1
	}
	return 0
}

// compareSets checks every (workload, end-to-end metric) pair of B
// against A: B's median may be worse than A's by at most the metric's
// bound. A pair whose spread within either set exceeds the bound is
// unresolved unless every run of B beats every run of A. Output hashes
// must match, and every run must be correct. It returns the report rows
// and whether B passes.
func compareSets(spec *benchSpec, a, b *runSet) ([]string, bool) {
	var rows []string
	ok := a.correct && b.correct
	if !ok {
		rows = append(rows, "a run in A or B failed its correctness checks")
	}
	for _, wl := range workloads {
		va, vb := a.values[wl.name], b.values[wl.name]
		if va == nil || vb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			xa, xb := va[m.Name], vb[m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				rows = append(rows, fmt.Sprintf("%-8s %-12s missing", wl.name, m.Name))
				ok = false
				continue
			}
			ma, mb := percentile(xa, 50), percentile(xb, 50)
			d := worse(ma, mb, m.Better)
			// The spread needs four runs on a side; with fewer it is unknown.
			sp, spText := math.NaN(), "-"
			for _, x := range [][]float64{xa, xb} {
				if s := spread(x); !math.IsNaN(s) && (math.IsNaN(sp) || s > sp) {
					sp, spText = s, fmt.Sprintf("%.1f%%", 100*s)
				}
			}
			verdict := "ok"
			switch {
			case d > m.Bound:
				verdict = "REGRESSION"
				ok = false
			case sp > m.Bound && !allBetter(xa, xb, m.Better):
				verdict = "unresolved (spread wider than bound)"
			}
			rows = append(rows, fmt.Sprintf("%-8s %-12s %12.4f %12.4f %+7.1f%% %6.0f%% %7s  %s",
				wl.name, m.Name, ma, mb, 100*d, 100*m.Bound, spText, verdict))
		}
		switch ha, hb := a.hashes[wl.name], b.hashes[wl.name]; {
		case len(ha)+len(hb) == 0:
		case sameKeys(ha, hb):
			rows = append(rows, fmt.Sprintf("%-8s output sha256 %v in both  ok", wl.name, keys(ha)))
		default:
			rows = append(rows, fmt.Sprintf("%-8s output sha256 differs: A %v, B %v  MISMATCH", wl.name, keys(ha), keys(hb)))
			ok = false
		}
	}
	return rows, ok
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if worse(x, y, better) >= 0 {
				return false
			}
		}
	}
	return true
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// minPairs is the fewest parent/change pairs a claimed gain rests on.
const minPairs = 10

// comparePairs applies the rule for claiming a gain: over at least ten
// alternating parent/change runs, the change wins at least nine tenths
// of the pairs (ties count for neither side), and the medians differ by
// more than the interquartile range of the parent's runs. It also flags
// any metric whose change median is worse than the parent's by more
// than its bound.
func comparePairs(spec *benchSpec, dir string, stdout, stderr io.Writer) int {
	side := func(prefix string) ([]*runSet, error) {
		files, err := filepath.Glob(filepath.Join(dir, prefix+"*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(files)
		var sets []*runSet
		for _, f := range files {
			s, err := loadRuns(f)
			if err != nil {
				return nil, err
			}
			sets = append(sets, s)
		}
		return sets, nil
	}
	parents, err := side("parent")
	if err == nil && len(parents) == 0 {
		err = fmt.Errorf("no parent-*.json files in %s", dir)
	}
	var changes []*runSet
	if err == nil {
		changes, err = side("change")
	}
	if err == nil && len(changes) != len(parents) {
		err = fmt.Errorf("%d parent runs but %d change runs", len(parents), len(changes))
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-8s %-12s %28s %28s %6s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			var p, c []float64
			for i := range parents {
				xp, xc := parents[i].values[wl.name][m.Name], changes[i].values[wl.name][m.Name]
				if len(xp) > 0 && len(xc) > 0 {
					p, c = append(p, xp[0]), append(c, xc[0])
				}
			}
			if len(p) == 0 {
				continue
			}
			v, wins := pairVerdict(p, c, m.Better, m.Bound)
			if v == "REGRESSION" {
				code = 1
			}
			p1, p3 := quartilesOrNaN(p)
			c1, c3 := quartilesOrNaN(c)
			fmt.Fprintf(stdout, "%-8s %-12s %10.4f [%7.4g, %7.4g] %10.4f [%7.4g, %7.4g] %2d/%-3d  %s\n",
				wl.name, m.Name, percentile(p, 50), p1, p3, percentile(c, 50), c1, c3, wins, len(p), v)
		}
	}
	return code
}

// pairVerdict judges one metric over paired parent (p) and change (c)
// runs and returns the verdict and the change's wins.
func pairVerdict(p, c []float64, better string, bound float64) (string, int) {
	wins := 0
	for i := range p {
		if worse(p[i], c[i], better) < 0 {
			wins++
		}
	}
	mp, mc := percentile(p, 50), percentile(c, 50)
	switch {
	case worse(mp, mc, better) > bound:
		return "REGRESSION", wins
	case len(p) < minPairs:
		return fmt.Sprintf("too few pairs (%d < %d)", len(p), minPairs), wins
	}
	q1, q3 := quartiles(p)
	if 10*wins >= 9*len(p) && math.Abs(mc-mp) > q3-q1 && worse(mp, mc, better) < 0 {
		return "GAIN", wins
	}
	return "no gain shown", wins
}

func quartilesOrNaN(xs []float64) (float64, float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	return quartiles(xs)
}
