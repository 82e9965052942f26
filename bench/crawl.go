package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/socialnet"
)

// crawlWorld is the crawl workload's served world and what a finished
// crawl must reproduce.
type crawlWorld struct {
	study    *core.Study
	res      *core.Results
	srv      *server
	pages    []int64
	roster   []analysis.CrawlCampaign
	baseline []socialnet.UserID
	want     []byte // the journal engine's §4 tables
}

func setupCrawlWorld(tr *tracer, seed int64, scale float64) (*crawlWorld, error) {
	study, res, _, err := buildWorld(tr, seed, scale)
	if err != nil {
		return nil, err
	}
	w := &crawlWorld{study: study, res: res, baseline: res.Baseline}
	t := res.CrawlTables()
	if w.want, err = t.MarshalStable(); err != nil {
		return nil, err
	}
	for _, c := range res.Campaigns {
		w.roster = append(w.roster, analysis.CrawlCampaign{ID: c.Spec.ID, Page: c.Page, Active: c.Active})
		w.pages = append(w.pages, int64(c.Page))
	}
	if w.srv, err = serve(tr, api.NewServer(study.Store(), "")); err != nil {
		return nil, err
	}
	return w, nil
}

// crawlStats counts one crawl iteration's work.
type crawlStats struct {
	requests, retries, throttled, profiles, checkpoints int
}

// runCrawl is the §3 data collection plus the §4 analysis, read-only
// and closed-loop, as `likefraud crawl -analyze -checkpoint` runs it
// against a self-served world: a fresh client and pipeline per
// iteration (2 workers, batches of 50, no politeness spacing so it
// measures the program), an analysis sink, a durable checkpoint after
// every like window, then the baseline sample's profiles. One operation
// is one whole crawl, tables included; the tables must equal the
// journal engine's byte for byte.
func runCrawl(r *runner) error {
	var w *crawlWorld
	var setups []time.Duration
	for i := 0; i < r.sz.setups; i++ {
		if w != nil {
			if err := w.srv.close(); err != nil {
				return err
			}
			w = nil
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		if w, err = setupCrawlWorld(r.tr, r.worldSeed(), r.sz.crawlScale); err != nil {
			return err
		}
		setups = append(setups, time.Since(start))
	}
	defer w.srv.close()

	var ops []time.Duration
	var last crawlStats
	mismatch := 0
	var cpErr error
	runtime.GC()
	r.beginMeasure()
	for i := 0; i < r.sz.minIters || r.since()-r.from < r.sz.seconds; i++ {
		start := time.Now()
		got, stats, err := crawlOnce(r.tr, w, filepath.Join(r.dir, "crawl-checkpoint.json"))
		if err != nil && !errors.Is(err, errCheckpoint) {
			return err
		}
		cpErr = errors.Join(cpErr, err)
		ops = append(ops, time.Since(start))
		if !bytes.Equal(got, w.want) {
			mismatch++
		}
		last = stats
	}
	r.endMeasure()
	r.rec.Attempted = len(ops)
	sum := sha256.Sum256(w.want)
	r.rec.Hash = hex.EncodeToString(sum[:])
	r.check("crawl.tables_match_journal_engine", mismatch == 0, "%d of %d crawls differ from the journal engine's tables", mismatch, len(ops))
	r.check("crawl.checkpoints_written", cpErr == nil, "%v", cpErr)

	r.endToEnd(setups, msList(ops))
	r.detail("wall_s", percentile(msList(ops), 50)/1e3, "s")
	counts := map[string]float64{
		"crawler.requests":             float64(last.requests),
		"crawler.requests_per_profile": float64(last.requests) / float64(max(last.profiles, 1)),
		"crawler.retries":              float64(last.retries),
		"crawler.throttled":            float64(last.throttled),
		"crawler.checkpoints":          float64(last.checkpoints),
	}
	for _, c := range perLayerCounters {
		if v, ok := counts[c.name]; ok {
			r.detail(c.name, v, c.unit)
		}
	}
	r.detail("crawler.profiles", float64(last.profiles), "count")
	if r.tr == nil {
		return nil
	}
	p, err := r.probe(w.study.Store(), w.res)
	if err != nil {
		return err
	}
	r.perLayer(p, counts)
	return nil
}

// errCheckpoint marks a failed checkpoint write: the crawl goes on, as
// likefraud's does, but the run is not correct.
var errCheckpoint = errors.New("checkpoint write failed")

// crawlOnce runs one full crawl and returns the tables it produced.
func crawlOnce(tr *tracer, w *crawlWorld, checkpointPath string) ([]byte, crawlStats, error) {
	var stats crawlStats
	ref, end := tr.begin("crawler.crawl", spanRef{})
	defer end()
	ctx := withSpan(context.Background(), ref)

	ccfg := crawler.DefaultConfig(w.srv.url)
	ccfg.MinInterval = 0
	if tr != nil {
		ccfg.HTTPClient = &http.Client{Timeout: 10 * time.Second, Transport: tr.transport("crawler.rt.", http.DefaultTransport)}
	}
	cl, err := crawler.New(ccfg)
	if err != nil {
		return nil, stats, err
	}
	analyzer := analysis.NewCrawlAnalyzer(w.roster, w.baseline)
	var sink crawler.Sink = crawler.NewAnalysisSink(analyzer.Aggregators()...)
	if tr != nil {
		sink = tracedSink{Sink: sink, tr: tr, parent: ref}
	}
	var cpErr error
	writeCheckpoint := func(ck crawler.Checkpoint) {
		tr.do("crawler.checkpoint", ref, func() {
			data, err := json.MarshalIndent(ck, "", "  ")
			if err == nil {
				err = socialnet.WriteFileDurable(checkpointPath, data)
			}
			if err != nil {
				cpErr = errors.Join(cpErr, fmt.Errorf("%w: %v", errCheckpoint, err))
			}
		})
		stats.checkpoints++
	}
	pipe := crawler.NewPipeline(cl, crawler.PipelineConfig{Workers: 2, BatchSize: 50, Sink: sink, OnCheckpoint: writeCheckpoint}, nil)
	emit := func(int64, crawler.LikerProfile) error {
		stats.profiles++
		return nil
	}
	if err := pipe.Crawl(ctx, w.pages, emit); err != nil {
		return nil, stats, err
	}
	ids := make([]int64, len(w.baseline))
	for i, u := range w.baseline {
		ids[i] = int64(u)
	}
	if err := pipe.CrawlProfiles(ctx, ids, emit); err != nil {
		return nil, stats, err
	}
	ck := pipe.Checkpoint()
	if err := pipe.SnapshotErr(); err != nil {
		return nil, stats, err
	}
	writeCheckpoint(ck)
	var t analysis.CrawlTables
	tr.do("analysis.crawl_tables", ref, func() { t, err = analyzer.Tables() })
	if err != nil {
		return nil, stats, err
	}
	data, err := t.MarshalStable()
	if err != nil {
		return nil, stats, err
	}
	stats.requests, stats.retries, stats.throttled = cl.Requests(), cl.Retries(), cl.Throttled()
	return data, stats, cpErr
}

// tracedSink records a span around every sink observation.
type tracedSink struct {
	crawler.Sink
	tr     *tracer
	parent spanRef
}

func (s tracedSink) ObserveProfile(page int64, prof crawler.LikerProfile) (err error) {
	s.tr.do("crawler.sink_profile", s.parent, func() { err = s.Sink.ObserveProfile(page, prof) })
	return err
}

func (s tracedSink) ObserveLikes(page int64, likes []api.LikeDoc) (err error) {
	s.tr.do("crawler.sink_likes", s.parent, func() { err = s.Sink.ObserveLikes(page, likes) })
	return err
}
