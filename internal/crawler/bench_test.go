package crawler

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/socialnet"
)

// Bench roster shape: one busy page plus several quiet ones — the §3
// campaign mix where the global queue earns its keep. A page-sequential
// crawl pays each quiet page's probe+profile latency serially AFTER the
// busy page; the global queue overlaps all of it.
const (
	benchBusyLikers  = 40
	benchQuietPages  = 8
	benchQuietLikers = 2
	benchProfiles    = benchBusyLikers + benchQuietPages*benchQuietLikers
	benchDelay       = 2 * time.Millisecond
)

// benchMixedWorld serves the mixed busy/quiet roster through a
// stand-in for a remote platform: every request costs `delay` of
// server-side latency, the resource a concurrent crawl overlaps and a
// serial one pays in full.
func benchMixedWorld(tb testing.TB, delay time.Duration) (*httptest.Server, []int64) {
	tb.Helper()
	st := socialnet.NewStore()
	base := time.Date(2014, 3, 12, 0, 0, 0, 0, time.UTC)
	var pages []int64
	busy, err := st.AddPage(socialnet.Page{Name: "hp-busy", Honeypot: true})
	if err != nil {
		tb.Fatal(err)
	}
	pages = append(pages, int64(busy))
	for i := 0; i < benchBusyLikers; i++ {
		u := st.AddUser(socialnet.User{Country: "USA", FriendsPublic: i%3 != 0})
		_ = st.AddLike(u, busy, base.Add(time.Duration(i)*time.Minute))
	}
	for q := 0; q < benchQuietPages; q++ {
		p, err := st.AddPage(socialnet.Page{Name: fmt.Sprintf("hp-quiet-%d", q), Honeypot: true})
		if err != nil {
			tb.Fatal(err)
		}
		pages = append(pages, int64(p))
		for i := 0; i < benchQuietLikers; i++ {
			u := st.AddUser(socialnet.User{Country: "Turkey", FriendsPublic: true})
			_ = st.AddLike(u, p, base.Add(time.Duration(q*10+i)*time.Minute))
		}
	}
	inner := api.NewServer(st, "")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		inner.ServeHTTP(w, r)
	}))
	tb.Cleanup(srv.Close)
	return srv, pages
}

func benchClient(tb testing.TB, srv *httptest.Server) *Client {
	tb.Helper()
	cfg := DefaultConfig(srv.URL)
	cfg.MinInterval = 0
	c, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// crawlEngineRoster drains the roster through the pipeline —
// page-sequential when sequential is set, the global work queue
// otherwise — and returns the client for its request counters.
func crawlEngineRoster(tb testing.TB, srv *httptest.Server, pages []int64, sequential bool) *Client {
	tb.Helper()
	c := benchClient(tb, srv)
	p := NewPipeline(c, PipelineConfig{Workers: 8, BatchSize: 5, Sequential: sequential}, nil)
	n := 0
	if err := p.Crawl(context.Background(), pages, func(int64, LikerProfile) error { n++; return nil }); err != nil {
		tb.Fatal(err)
	}
	if n != benchProfiles {
		tb.Fatalf("profiles = %d, want %d", n, benchProfiles)
	}
	return c
}

// BenchmarkCrawlPipeline8 is the page-sequential pipeline on the mixed
// roster: 8 workers overlap latency WITHIN a page, but every quiet
// page still serializes behind the busy one. This is the engine the
// global queue is measured against.
func BenchmarkCrawlPipeline8(b *testing.B) {
	srv, pages := benchMixedWorld(b, benchDelay)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crawlEngineRoster(b, srv, pages, true)
	}
}

// BenchmarkCrawlGlobalQueue is the global work queue on the same
// roster: quiet-page probes and profile batches ride the same queue as
// the busy page's work, so the whole roster's latency overlaps across
// the 8 workers. The acceptance bar for this PR is ≥2x over
// BenchmarkCrawlPipeline8; observed is ~3x.
func BenchmarkCrawlGlobalQueue(b *testing.B) {
	srv, pages := benchMixedWorld(b, benchDelay)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crawlEngineRoster(b, srv, pages, false)
	}
}

// BenchmarkCrawlAnalyze measures the crawl-to-analysis path: the
// global-queue crawl with the full §4 aggregator family attached as a
// Sink. Comparing against BenchmarkCrawlGlobalQueue isolates what the
// streaming analyses add on top of the crawl itself.
func BenchmarkCrawlAnalyze(b *testing.B) {
	srv, pages := benchMixedWorld(b, benchDelay)
	roster := make([]analysis.CrawlCampaign, len(pages))
	for i, p := range pages {
		roster[i] = analysis.CrawlCampaign{ID: fmt.Sprintf("C%d", i), Page: socialnet.PageID(p), Active: true}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzer := analysis.NewCrawlAnalyzer(roster, nil)
		sink := NewAnalysisSink(analyzer.Aggregators()...)
		p := NewPipeline(benchClient(b, srv), PipelineConfig{Workers: 8, BatchSize: 5, Sink: sink}, nil)
		n := 0
		if err := p.Crawl(context.Background(), pages, func(int64, LikerProfile) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != benchProfiles {
			b.Fatalf("profiles = %d", n)
		}
		tables, err := analyzer.Tables()
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, g := range tables.Geo {
			total += g.Total
		}
		if total != benchProfiles {
			b.Fatalf("geo totals = %d, want %d", total, benchProfiles)
		}
	}
}

// crawlBenchResult is one row of BENCH_crawl.json — the
// machine-readable perf trajectory CI archives per run.
type crawlBenchResult struct {
	Name      string `json:"name"`
	NsPerOp   int64  `json:"ns_per_op"`
	Requests  int    `json:"requests"`
	Throttles int    `json:"throttles"`
}

// TestEmitCrawlBenchJSON, gated behind CRAWL_BENCH_JSON=<path>, runs
// the two crawl engines through testing.Benchmark and writes their
// ns/op plus request/throttle counts as JSON. CI uploads the file as
// an artifact and gates on the global-queue/pipeline ratio.
func TestEmitCrawlBenchJSON(t *testing.T) {
	path := os.Getenv("CRAWL_BENCH_JSON")
	if path == "" {
		t.Skip("set CRAWL_BENCH_JSON=<path> to emit the crawl benchmark artifact")
	}
	type engine struct {
		name string
		run  func(tb testing.TB, srv *httptest.Server, pages []int64) *Client
	}
	engines := []engine{
		{"BenchmarkCrawlPipeline8", func(tb testing.TB, srv *httptest.Server, pages []int64) *Client {
			return crawlEngineRoster(tb, srv, pages, true)
		}},
		{"BenchmarkCrawlGlobalQueue", func(tb testing.TB, srv *httptest.Server, pages []int64) *Client {
			return crawlEngineRoster(tb, srv, pages, false)
		}},
	}
	var results []crawlBenchResult
	for _, e := range engines {
		br := testing.Benchmark(func(b *testing.B) {
			srv, pages := benchMixedWorld(b, benchDelay)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.run(b, srv, pages)
			}
		})
		// One instrumented pass for the request/throttle counters
		// (benchmark iterations share a client-per-iteration, so the
		// counts of a single crawl are the meaningful figure).
		srv, pages := benchMixedWorld(t, benchDelay)
		c := e.run(t, srv, pages)
		results = append(results, crawlBenchResult{
			Name:      e.name,
			NsPerOp:   br.NsPerOp(),
			Requests:  c.Requests(),
			Throttles: c.Throttled(),
		})
	}
	raw, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s:\n%s", path, raw)
}
