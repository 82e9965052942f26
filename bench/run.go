package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/socialnet"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness check and its outcome.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Info string `json:"info,omitempty"`
}

// record is everything one workload run measured.
type record struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// EndToEnd holds the metrics BENCHMARK.json lists as end_to_end,
	// PerLayer (traced runs only) its per_layer list.
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	// Detail holds the workload's own named metrics: per-stream
	// latencies with sample counts, capacity, and per-route and
	// per-layer breakdowns.
	Detail map[string]metric       `json:"detail"`
	Steps  map[string][]stepResult `json:"steps,omitempty"`
	Checks []check                 `json:"checks"`
	// Hash identifies the workload's output (study results, crawl
	// tables), so two sets of runs can compare it.
	Hash string `json:"hash,omitempty"`
}

// sizes fixes a run's input sizes and durations.
type sizes struct {
	studyScale, servedScale, crawlScale float64
	// seconds is the measured stretch: the study and crawl iterate at
	// least minIters times and until it has passed; the served
	// workloads hold their reference rate for it.
	seconds  time.Duration
	minIters int
	// warm and sweep are the lengths of the served workloads' unmeasured
	// rate steps before and after the reference step.
	warm, sweep time.Duration
	// setups is how many times each run sets its system up; setup_s is
	// the median.
	setups int
}

func defaultSizes(seconds time.Duration) sizes {
	return sizes{
		studyScale: 0.25, servedScale: 0.05, crawlScale: 0.25,
		seconds: seconds, minIters: 3,
		warm: time.Second, sweep: time.Second,
		setups: 3,
	}
}

// runner carries one workload run's settings and accumulates its record.
type runner struct {
	sz   sizes
	seed int64
	dir  string // scratch directory for this run, removed afterwards
	tr   *tracer
	t0   time.Time
	rec  *record

	// from and to bound the measured stretch, as offsets from t0; the
	// per-layer busy shares and the runtime counters cover it.
	from, to time.Duration
	ms0, ms1 runtime.MemStats
	peakMB   float64 // peak resident set during the measured stretch
	opN      int     // operations timed in the measured stretch
}

// deriveSeed splits the run seed into independent streams (world, load
// schedule, load requests) with a splitmix64 step.
func deriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64(z ^ z>>31)
}

const (
	worldStream = iota + 1
	scheduleStream
	requestStream
	writeStream
	probeStream
)

func (r *runner) worldSeed() int64 { return deriveSeed(r.seed, worldStream) }

func (r *runner) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(r.seed, stream)))
}

func (r *runner) since() time.Duration { return time.Since(r.t0) }

// beginMeasure marks the start of the measured stretch.
func (r *runner) beginMeasure() {
	resetPeakRSS()
	runtime.ReadMemStats(&r.ms0)
	r.from = r.since()
}

// endMeasure marks its end.
func (r *runner) endMeasure() {
	r.to = r.since()
	runtime.ReadMemStats(&r.ms1)
	r.peakMB = peakRSSMB()
}

// measureWindow marks the measured stretch of a load phase that began
// at start: [start+from, start+to). It runs on its own goroutine while
// the load runs.
func (r *runner) measureWindow(start time.Time, from, to time.Duration) {
	time.Sleep(time.Until(start.Add(from)))
	r.beginMeasure()
	time.Sleep(time.Until(start.Add(to)))
	r.endMeasure()
}

func (r *runner) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if format != "" {
		c.Info = fmt.Sprintf(format, args...)
	}
	r.rec.Checks = append(r.rec.Checks, c)
}

func (r *runner) detail(name string, v float64, unit string) {
	r.rec.Detail[name] = metric{v, unit}
}

// latencyDetail records a latency stream's median, tail and sample
// count under prefix.
func (r *runner) latencyDetail(prefix string, ms []float64, tail float64) {
	r.detail(prefix+"_p50_ms", percentile(ms, 50), "ms")
	r.detail(fmt.Sprintf("%s_p%g_ms", prefix, tail), percentile(ms, tail), "ms")
	r.detail(prefix+"_n", float64(len(ms)), "count")
}

// endToEnd fills the end-to-end metrics: set-up time (median over the
// run's set-ups), the workload operation's median and p90 latency, and
// the peak resident memory during the measured stretch. The p99 and
// the highest percentile with ten samples beyond it go to the detail.
func (r *runner) endToEnd(setups []time.Duration, opMs []float64) {
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	r.rec.EndToEnd = map[string]metric{
		"setup_s":     {percentile(setupS, 50), "s"},
		"op_p50_ms":   {percentile(opMs, 50), "ms"},
		"op_p90_ms":   {percentile(opMs, 90), "ms"},
		"peak_rss_mb": {r.peakMB, "MB"},
	}
	r.detail("op_p99_ms", percentile(opMs, 99), "ms")
	if p := tailPercentile(len(opMs)); p > 90 {
		r.detail(fmt.Sprintf("op_p%g_ms", p), percentile(opMs, p), "ms")
	}
	r.detail("peak_rss_lifetime_mb", lifetimePeakRSSMB(), "MB")
	r.opN = len(opMs)
	r.detail("op_n", float64(len(opMs)), "count")
	r.detail("setups", float64(len(setups)), "count")
}

// resetPeakRSS restarts the kernel's peak-resident-set tracking for
// this process, so peakRSSMB covers only what follows. A kernel that
// refuses leaves the lifetime peak in place, which only overstates.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size since the last
// resetPeakRSS (VmHWM), or over its whole life when that is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return lifetimePeakRSSMB()
}

// lifetimePeakRSSMB is the process's peak resident set size over its
// whole life, set-up included.
func lifetimePeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layers are the repository's modules plus the load generator: the
// per-layer busy shares cover each.
var layers = []string{"core", "socialnet", "detect", "api", "crawler", "analysis", "load"}

// perLayer assembles the per-layer metrics of a traced run from its
// spans, the probes, and the workload's counters. Counters a workload
// does not exercise read 0.
func (r *runner) perLayer(p probeResult, counts map[string]float64) {
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	sum, n := layerSelf(spans, self, r.from, r.to)
	window := float64(r.to - r.from)
	ops := float64(max(r.opN, 1))
	pl := map[string]metric{
		"core.new_study_ms":        {percentile(spansNamed(spans, "core.new_study"), 50), "ms"},
		"core.run_world_ms":        {percentile(spansNamed(spans, "core.run_world"), 50), "ms"},
		"core.finalize_ms":         {percentile(spansNamed(spans, "core.finalize"), 50), "ms"},
		"detect.catchup_ms":        {ms(p.catchup), "ms"},
		"detect.batch_verdicts_ms": {ms(p.batchVerdicts), "ms"},
		"analysis.run_pass_ms":     {ms(p.runPass), "ms"},
		"socialnet.add_like_us":    {float64(p.addLike) / 1e3, "us"},
		"detect.enrolled":          {float64(p.enrolled), "count"},
		"detect.lockstep_groups":   {float64(p.groups), "count"},
		"detect.state_kb":          {float64(p.stateBytes) / 1024, "KB"},
		"proc.gcs_per_op":          {float64(r.ms1.NumGC-r.ms0.NumGC) / ops, "1"},
		"proc.alloc_kb_per_op":     {float64(r.ms1.TotalAlloc-r.ms0.TotalAlloc) / 1024 / ops, "KB"},
	}
	for _, l := range layers {
		pl[l+".busy_pct"] = metric{100 * float64(sum[l]) / window, "%"}
	}
	in := windowed(spans, r.from, r.to)
	var bytes int64
	for _, s := range in {
		if s.layer() == "api" {
			bytes += s.Bytes
		}
	}
	pl["api.resp_kb"] = metric{float64(bytes) / float64(max(n["api"], 1)) / 1024, "KB"}
	for _, name := range perLayerCounters {
		pl[name.name] = metric{counts[name.name], name.unit}
	}
	r.rec.PerLayer = pl
	r.routeDetail(spans, in)
}

// perLayerCounters are the per-layer metrics that only some workloads
// exercise; they read 0 elsewhere.
var perLayerCounters = []struct{ name, unit string }{
	{"detect.tick_events", "count"},
	{"socialnet.repl_records_per_poll", "count"},
	{"socialnet.repl_held", "count"},
	{"crawler.requests", "count"},
	{"crawler.requests_per_profile", "1"},
	{"crawler.retries", "count"},
	{"crawler.throttled", "count"},
	{"crawler.checkpoints", "count"},
}

// routeDetail records per-route handler latencies and response sizes,
// the client time outside the handler, crawler round trips and sink
// calls over the measured stretch (the spans in), and the crawl's
// checkpoint and table times over the whole run.
func (r *runner) routeDetail(spans, in []span) {
	handler := map[string][]float64{}
	kb := map[string][]float64{}
	rt := map[string][]float64{}
	childOf := map[uint64]span{}
	for _, s := range spans {
		if s.layer() == "api" && s.Parent != 0 {
			childOf[s.Parent] = s
		}
	}
	var outside []float64
	for _, s := range in {
		_, op, _ := strings.Cut(s.Name, ".")
		switch s.layer() {
		case "api":
			handler[op] = append(handler[op], float64(s.dur())/1e6)
			kb[op] = append(kb[op], float64(s.Bytes)/1024)
		case "load":
			if c, ok := childOf[s.ID]; ok {
				outside = append(outside, float64(s.dur()-c.dur())/1e6)
			}
		case "crawler":
			if rest, ok := strings.CutPrefix(op, "rt."); ok {
				rt[rest] = append(rt[rest], float64(s.dur())/1e6)
			}
		}
	}
	for op, xs := range handler {
		r.detail("api.handler_p50_ms."+op, percentile(xs, 50), "ms")
		r.detail("api.handler_p99_ms."+op, percentile(xs, 99), "ms")
		r.detail("api.resp_kb."+op, mean(kb[op]), "KB")
		r.detail("api.requests."+op, float64(len(xs)), "count")
	}
	for op, xs := range rt {
		r.detail("crawler.rt_p50_ms."+op, percentile(xs, 50), "ms")
	}
	if len(outside) > 0 {
		r.detail("load.outside_handler_p50_ms", percentile(outside, 50), "ms")
	}
	for _, name := range []string{"crawler.sink_profile", "crawler.sink_likes"} {
		if xs := spansNamed(in, name); len(xs) > 0 {
			r.detail(name+"_us", percentile(xs, 50)*1e3, "us")
		}
	}
	for _, name := range []string{"crawler.checkpoint", "analysis.crawl_tables"} {
		if xs := spansNamed(spans, name); len(xs) > 0 {
			r.detail(name+"_ms", percentile(xs, 50), "ms")
		}
	}
}

func windowed(spans []span, from, to time.Duration) []span {
	var out []span
	for _, s := range spans {
		if s.Start >= int64(from) && s.Start < int64(to) {
			out = append(out, s)
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// probeResult holds the per-layer probes: single calls into a layer on
// the workload's final world, made after its end-to-end numbers are
// taken.
type probeResult struct {
	catchup, batchVerdicts, runPass time.Duration
	addLike                         time.Duration // per call
	enrolled, groups, stateBytes    int
}

// addLikeProbes is how many serial AddLike calls the add-like probe
// times.
const addLikeProbes = 2000

// probe times a cold scorer drain, the batch verdicts, the §4 analysis
// pass, and serial AddLike calls on the workload's final world.
func (r *runner) probe(st *socialnet.Store, res *core.Results) (probeResult, error) {
	var p probeResult
	workers := runtime.GOMAXPROCS(0)
	start := time.Now()
	var sc *detect.StreamScorer
	r.tr.do("detect.catchup", spanRef{}, func() {
		sc = detect.NewStreamScorer(st, detect.StreamScorerConfig{})
		sc.Tick()
	})
	p.catchup = time.Since(start)
	p.enrolled = len(sc.Accounts())
	p.groups = len(sc.LockstepGroups())
	state, err := sc.MarshalState()
	if err != nil {
		return p, err
	}
	p.stateBytes = len(state)

	pages := st.HoneypotPages()
	seen := map[socialnet.UserID]bool{}
	var likers []socialnet.UserID
	for _, pg := range pages {
		for _, lk := range st.LikesOfPage(pg) {
			if !seen[lk.User] {
				seen[lk.User] = true
				likers = append(likers, lk.User)
			}
		}
	}
	sort.Slice(likers, func(i, j int) bool { return likers[i] < likers[j] })
	start = time.Now()
	r.tr.do("detect.batch_verdicts", spanRef{}, func() {
		_, err = detect.BatchVerdicts(st, likers, pages, detect.DefaultLockstepConfig(), workers)
	})
	p.batchVerdicts = time.Since(start)
	if err != nil {
		return p, err
	}

	camps := analysisCampaigns(res)
	aggs := []analysis.Aggregator{
		analysis.NewGeoAggregator(st, camps),
		analysis.NewDemoAggregator(st, camps),
		analysis.NewWindowAggregator(camps),
		analysis.NewPageLikeCDFAggregator(camps, res.Baseline),
		analysis.NewJaccardAggregator(camps),
		analysis.NewRemovedLikesAggregator(st, camps),
	}
	start = time.Now()
	r.tr.do("analysis.run_pass", spanRef{}, func() {
		err = analysis.RunPass(st.Journal(), camps, res.Baseline, workers, aggs...)
	})
	p.runPass = time.Since(start)
	if err != nil {
		return p, err
	}

	gen := newLikeGen(r.rng(probeStream), st, 0)
	reqs := make([]likeReq, addLikeProbes)
	for i := range reqs {
		reqs[i] = gen.next()
	}
	start = time.Now()
	r.tr.do("socialnet.add_like", spanRef{}, func() {
		for _, q := range reqs {
			if err = st.AddLike(q.User, q.Page, q.At); err != nil {
				return
			}
		}
	})
	p.addLike = time.Since(start) / addLikeProbes
	return p, err
}

// analysisCampaigns is the §4 campaign roster of a study's results.
func analysisCampaigns(res *core.Results) []analysis.Campaign {
	out := make([]analysis.Campaign, len(res.Campaigns))
	for i, c := range res.Campaigns {
		out[i] = analysis.Campaign{ID: c.Spec.ID, Provider: c.Spec.Provider, Page: c.Page, Likers: c.Likers, Active: c.Active}
	}
	return out
}

// scratchDir creates the run's scratch directory under base.
func scratchDir(base, workload string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-"+workload+"-")
}
