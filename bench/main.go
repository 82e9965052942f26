// Command bench is the repository's benchmark. It builds the honeypot
// study and its served system in-process from the same public
// constructors cmd/honeypotd and cmd/likefraud use, drives seeded
// workloads, checks their outputs, and prints every metric
// BENCHMARK.json names. See README.md.
//
// Usage:
//
//	bench [-workload all|study|ingest|replica|crawl] [-seed N] [-seconds S]
//	      [-trace 0|1] [-out FILE]
//	bench compare [-bench BENCHMARK.json] A B
//	bench compare [-bench BENCHMARK.json] -pairs DIR
//
// With one workload the last line of standard output is the run's JSON
// result; with -workload all each workload runs in a child process, so
// its peak memory and garbage-collector state are its own. Runs keep
// their data, and traced runs their spans, under .bench_build in the
// current directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// workloads maps each workload name to its runner, in run order.
var workloads = []struct {
	name string
	run  func(*runner) error
}{
	{"study", runStudy},
	{"ingest", runIngest},
	{"replica", runReplica},
	{"crawl", runCrawl},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
}

// workDir holds the runs' data directories, records and spans files.
const workDir = ".bench_build"

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, study, ingest, replica or crawl")
	fs.Int64Var(&o.seed, "seed", 1, "seed the world and the load are derived from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&o.trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "write the results JSON here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive, -trace 0 or 1, and no arguments may follow the flags")
		return 2
	}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	for _, w := range workloads {
		if w.name == o.workload {
			return runOne(o, w.run, defaultSizes(time.Duration(o.seconds*float64(time.Second))), stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
	return 2
}

// runWorkload runs one workload in this process and returns its record.
// Its scratch directory is removed afterwards.
func runWorkload(name string, run func(*runner) error, sz sizes, seed int64, traced bool, dir string) (*record, *tracer, error) {
	scratch, err := scratchDir(dir, name)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	r := &runner{sz: sz, seed: seed, dir: scratch, t0: t0,
		rec: &record{Workload: name, Seed: seed, Traced: traced, Detail: map[string]metric{}}}
	if traced {
		r.tr = newTracer(t0)
	}
	err = run(r)
	err = errors.Join(err, removeAll(scratch))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	r.rec.Correct = len(r.rec.Checks) > 0
	for _, c := range r.rec.Checks {
		r.rec.Correct = r.rec.Correct && c.OK
	}
	return r.rec, r.tr, nil
}

func runOne(o options, run func(*runner) error, sz sizes, stdout, stderr io.Writer) int {
	rec, tr, err := runWorkload(o.workload, run, sz, o.seed, o.trace == 1, workDir)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	printRecord(stdout, rec)
	if tr != nil {
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "bench: spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "  spans: %s\n  self time by layer (whole run):\n", path)
		printLayerReport(stdout, tr.snapshot())
	}
	if o.out != "" {
		if err := writeResults(o.out, o.seconds, []record{*rec}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	metrics := rec.EndToEnd
	if rec.Traced {
		metrics = rec.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process — untraced, and
// traced too with -trace 1 — and reports each metric, the tracing
// overhead, and the correctness checks.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var recs []record
	code := 0
	for _, w := range workloads {
		for traced := 0; traced <= o.trace; traced++ {
			tmp := filepath.Join(workDir, fmt.Sprintf("record-%s-%d-%d.json", w.name, traced, os.Getpid()))
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced), "-out", tmp)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				code = 1
			}
			f, err := readResults(tmp)
			os.Remove(tmp)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				code = 1
				continue
			}
			recs = append(recs, f.Records...)
		}
	}
	printSummary(stdout, recs)
	if o.out != "" {
		if err := writeResults(o.out, o.seconds, recs); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// results is the file -out writes: the runs plus what identifies the
// build and the machine.
type results struct {
	Commit     string   `json:"commit"`
	Go         string   `json:"go"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seconds    float64  `json:"seconds"`
	Records    []record `json:"records"`
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = " (modified)"
			}
		}
	}
	return rev + modified
}

func writeResults(path string, seconds float64, recs []record) error {
	data, err := json.MarshalIndent(results{
		Commit: commit(), Go: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seconds: seconds, Records: recs,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f results
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printRecord writes one run's metrics, steps and checks.
func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  attempted %d  failed %d\n", rec.Workload, rec.Seed, rec.Traced, rec.Attempted, rec.Failed)
	printMetrics(w, "end-to-end", rec.EndToEnd)
	printMetrics(w, "detail", rec.Detail)
	printMetrics(w, "per-layer", rec.PerLayer)
	for name, steps := range rec.Steps {
		fmt.Fprintf(w, "  %s steps:  %8s %7s %6s %9s %9s %9s\n", name, "rate", "n", "failed", "p50_ms", "p99_ms", "backlog_s")
		for _, s := range steps {
			fmt.Fprintf(w, "  %*s %8.0f %7d %6d %9.3f %9.3f %9.3f\n", len(name)+7, "", s.Rate, s.N, s.Failed, s.P50Ms, s.P99Ms, s.BacklogS)
		}
	}
	for _, c := range rec.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s  %s\n", status, c.Name, c.Info)
	}
	if rec.Hash != "" {
		fmt.Fprintf(w, "  output sha256 %s\n", rec.Hash)
	}
}

func printMetrics(w io.Writer, title string, m map[string]metric) {
	if len(m) == 0 {
		return
	}
	fmt.Fprintf(w, "  %s:\n", title)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "    %-40s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printSummary writes one line per workload and end-to-end metric, with
// the tracing overhead when traced runs exist.
func printSummary(w io.Writer, recs []record) {
	fmt.Fprintf(w, "\nsummary:\n  %-8s %-12s %14s %14s %6s\n", "workload", "metric", "untraced", "traced-untr.", "unit")
	for _, wl := range workloads {
		var plain, traced *record
		for i := range recs {
			if recs[i].Workload == wl.name {
				if recs[i].Traced {
					traced = &recs[i]
				} else {
					plain = &recs[i]
				}
			}
		}
		if plain == nil {
			continue
		}
		names := make([]string, 0, len(plain.EndToEnd))
		for n := range plain.EndToEnd {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			overhead := "-"
			if traced != nil {
				overhead = strconv.FormatFloat(traced.EndToEnd[n].Value-plain.EndToEnd[n].Value, 'f', 4, 64)
			}
			fmt.Fprintf(w, "  %-8s %-12s %14.4f %14s %6s\n", wl.name, n, plain.EndToEnd[n].Value, overhead, plain.EndToEnd[n].Unit)
		}
		fmt.Fprintf(w, "  %-8s correct %v\n", wl.name, plain.Correct)
	}
}
