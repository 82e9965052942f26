package crawler

import (
	"context"
	"testing"
	"time"

	"net/http/httptest"

	"repro/internal/api"
	"repro/internal/socialnet"
)

// TestCrawlerSurvivesThrottledServer is the failure-injection test for
// the 429 path: a tightly rate-limited server must slow the crawler
// down, not break it.
func TestCrawlerSurvivesThrottledServer(t *testing.T) {
	st := socialnet.NewStore()
	page, err := st.AddPage(socialnet.Page{Name: "hp", Honeypot: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		u := st.AddUser(socialnet.User{Country: "USA", FriendsPublic: true})
		_ = st.AddLike(u, page, time.Date(2014, 3, 12, i, 0, 0, 0, time.UTC))
	}
	// 300 req/s with burst 3: the crawl's burst of requests must hit
	// 429s.
	srv := httptest.NewServer(api.Throttle(api.NewServer(st, ""), 300, 3))
	defer srv.Close()

	cfg := DefaultConfig(srv.URL)
	cfg.MinInterval = 0
	cfg.Backoff = 5 * time.Millisecond
	cfg.RetryAfterCap = 20 * time.Millisecond
	cfg.MaxRetries = 8
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	profiles := 0
	err = NewPipeline(c, PipelineConfig{}, nil).Crawl(context.Background(), []int64{int64(page)}, func(int64, LikerProfile) error {
		profiles++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if profiles != 12 {
		t.Fatalf("profiles = %d, want 12", profiles)
	}
	if c.Retries() == 0 {
		t.Fatal("throttled crawl should have retried at least once")
	}
}

func TestCrawlerHonorsRetryAfterCap(t *testing.T) {
	st := socialnet.NewStore()
	page, err := st.AddPage(socialnet.Page{Name: "hp", Honeypot: true})
	if err != nil {
		t.Fatal(err)
	}
	// Extremely slow refill: Retry-After will suggest whole seconds,
	// which the crawler caps at 2 s; with 1 retry it must give up fast
	// rather than hang.
	srv := httptest.NewServer(api.Throttle(api.NewServer(st, ""), 0.001, 1))
	defer srv.Close()
	cfg := DefaultConfig(srv.URL)
	cfg.MinInterval = 0
	cfg.MaxRetries = 1
	cfg.Backoff = time.Millisecond
	cfg.RetryAfterCap = 100 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First request consumes the only token; the second must 429 twice
	// and fail in bounded time.
	if _, err := c.Page(context.Background(), int64(page)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Page(context.Background(), int64(page))
	if err == nil {
		t.Fatal("expected rate-limit failure")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("gave up too slowly: %v", elapsed)
	}
}
