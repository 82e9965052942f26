package crawler

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/socialnet"
)

// liveWriteWorld serves a page with nLikers likers through a wrapper
// that injects a brand-new liker with a PRE-study timestamp before
// serving each of the first maxInject like-stream requests — the §3
// situation: campaigns still delivering while the crawler paginates.
func liveWriteWorld(t *testing.T, nLikers, maxInject int) (*httptest.Server, socialnet.PageID, func() []socialnet.UserID) {
	t.Helper()
	st := socialnet.NewStore()
	page, err := st.AddPage(socialnet.Page{Name: "hp", Honeypot: true})
	if err != nil {
		t.Fatal(err)
	}
	var likers []socialnet.UserID
	for i := 0; i < nLikers; i++ {
		u := st.AddUser(socialnet.User{Country: "USA", FriendsPublic: true})
		_ = st.AddLike(u, page, t0.Add(time.Duration(i)*time.Minute))
		likers = append(likers, u)
	}
	inner := api.NewServer(st, "")
	var injected atomic.Int32
	var mu sync.Mutex
	likesPath := fmt.Sprintf("/api/page/%d/likes", page)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == likesPath {
			if n := injected.Add(1); int(n) <= maxInject {
				mu.Lock()
				u := st.AddUser(socialnet.User{Country: "Turkey", FriendsPublic: true})
				_ = st.AddLike(u, page, t0.Add(-time.Duration(n)*time.Hour))
				likers = append(likers, u)
				mu.Unlock()
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, page, func() []socialnet.UserID {
		mu.Lock()
		defer mu.Unlock()
		return append([]socialnet.UserID(nil), likers...)
	}
}

// TestLiveWritesCursorVsOffset: likes injected concurrently with the
// crawl would make offset paging duplicate likers (every later offset
// shifts), so the server refuses offset= on the like stream; cursor
// paging returns the exact final liker set — no dups, no gaps.
func TestLiveWritesCursorVsOffset(t *testing.T) {
	srv, page, _ := liveWriteWorld(t, 25, 3)
	c := newClient(t, srv)
	c.cfg.PageSize = 10
	var doc api.PageLikesDoc
	err := c.get(context.Background(), fmt.Sprintf("/api/page/%d/likes?offset=10&limit=10", page), false, &doc)
	if err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("offset paging err = %v, want a 400 rejection", err)
	}

	// Cursor mode on an identical world: exactly-once delivery.
	srv2, page2, likers2Fn := liveWriteWorld(t, 25, 3)
	c2 := newClient(t, srv2)
	c2.cfg.PageSize = 10
	seen := map[int64]int{}
	cursor := 0
	for {
		batch, next, err := c2.PageLikesSince(context.Background(), int64(page2), cursor)
		if err != nil {
			t.Fatal(err)
		}
		for _, lk := range batch {
			seen[lk.User]++
		}
		cursor = next
		if len(batch) == 0 {
			break
		}
	}
	likers2 := likers2Fn()
	if len(seen) != len(likers2) {
		t.Fatalf("cursor paging saw %d likers, want %d", len(seen), len(likers2))
	}
	for _, u := range likers2 {
		if seen[int64(u)] != 1 {
			t.Fatalf("user %d delivered %d times under cursor paging", u, seen[int64(u)])
		}
	}
}

// TestClientConcurrentGets exercises the shared client from many
// goroutines — the data race on last/Requests/Retries this PR fixes is
// caught by -race here.
func TestClientConcurrentGets(t *testing.T) {
	srv, _, page, _, _ := testWorld(t)
	c := newClient(t, srv)
	c.cfg.MinInterval = 200 * time.Microsecond
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := c.Page(context.Background(), int64(page)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Requests(); got != 40 {
		t.Fatalf("requests = %d, want 40", got)
	}
}

// TestRetryAfterHonoredOnce pins the 429 fix: the server's Retry-After
// hint is spent on exactly one sleep and never folded into the
// exponential backoff (which used to double it on every retry).
func TestRetryAfterHonoredOnce(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"id":1,"name":"p","honeypot":false,"like_count":0}`))
	}))
	defer srv.Close()
	cfg := DefaultConfig(srv.URL)
	cfg.MinInterval = 0
	cfg.Backoff = time.Millisecond
	cfg.MaxRetries = 5
	cfg.RetryAfterCap = 100 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Page(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if c.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", c.Retries())
	}
	// Two hints of 100ms each: ~200ms. The old compounding behavior
	// slept hint then 2*hint: ~300ms.
	if elapsed < 190*time.Millisecond {
		t.Fatalf("elapsed %v: Retry-After hint not honored", elapsed)
	}
	if elapsed > 280*time.Millisecond {
		t.Fatalf("elapsed %v: Retry-After hint compounded into backoff", elapsed)
	}
}

// TestStaleTotalDoesNotTruncate pins pagination termination: a stale
// reported total (the list grew since) must not make the client drop
// the tail — only a short window ends the loop.
func TestStaleTotalDoesNotTruncate(t *testing.T) {
	const actual = 23
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cursor := 0
		fmt.Sscanf(r.URL.Query().Get("cursor"), "%d", &cursor)
		limit := 10
		end := min(cursor+limit, actual)
		var sb strings.Builder
		// total is stale
		fmt.Fprintf(&sb, `{"total":5,"cursor":%d,"next_cursor":%d,"likes":[`, cursor, max(cursor, end))
		for i := cursor; i < end; i++ {
			if i > cursor {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, `{"user":%d,"at":"2014-03-12T00:00:00Z"}`, i+1)
		}
		sb.WriteString(`]}`)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(sb.String()))
	}))
	defer srv.Close()
	cfg := DefaultConfig(srv.URL)
	cfg.MinInterval = 0
	cfg.PageSize = 10
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	likes, _, err := c.PageLikesSince(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(likes) != actual {
		t.Fatalf("crawled %d likes, want %d (stale total truncated the tail)", len(likes), actual)
	}
}

// pipelineWorld builds a store with two honeypot pages sharing some
// likers (cross-campaign dedup) and a mix of public/private friend
// lists, served without injection.
func pipelineWorld(t *testing.T, nLikers int) (*httptest.Server, []int64, []socialnet.UserID) {
	t.Helper()
	st := socialnet.NewStore()
	pageA, err := st.AddPage(socialnet.Page{Name: "hpA", Honeypot: true})
	if err != nil {
		t.Fatal(err)
	}
	pageB, err := st.AddPage(socialnet.Page{Name: "hpB", Honeypot: true})
	if err != nil {
		t.Fatal(err)
	}
	var likers []socialnet.UserID
	for i := 0; i < nLikers; i++ {
		u := st.AddUser(socialnet.User{Country: "USA", FriendsPublic: i%3 != 0})
		if i%4 == 0 {
			f := st.AddUser(socialnet.User{})
			_ = st.Friend(u, f)
		}
		_ = st.AddLike(u, pageA, t0.Add(time.Duration(i)*time.Minute))
		if i%2 == 0 { // every other liker hits both campaigns
			_ = st.AddLike(u, pageB, t0.Add(time.Duration(i)*time.Minute+time.Hour))
		}
		likers = append(likers, u)
	}
	srv := httptest.NewServer(api.NewServer(st, ""))
	t.Cleanup(srv.Close)
	return srv, []int64{int64(pageA), int64(pageB)}, likers
}

func collectPipeline(t *testing.T, srv *httptest.Server, pages []int64, workers int, resume *Checkpoint) (*Client, *Pipeline, []LikerProfile) {
	t.Helper()
	c := newClient(t, srv)
	p := NewPipeline(c, PipelineConfig{Workers: workers, BatchSize: 7}, resume)
	var mu sync.Mutex
	var got []LikerProfile
	if err := p.Crawl(context.Background(), pages, func(_ int64, prof LikerProfile) error {
		mu.Lock()
		got = append(got, prof)
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return c, p, got
}

// TestPipelineCrawlsEachProfileOnce: likers shared by two campaigns are
// emitted exactly once, with friends/privacy/page-likes intact.
func TestPipelineCrawlsEachProfileOnce(t *testing.T) {
	srv, pages, likers := pipelineWorld(t, 30)
	_, _, got := collectPipeline(t, srv, pages, 4, nil)
	if len(got) != len(likers) {
		t.Fatalf("emitted %d profiles, want %d", len(got), len(likers))
	}
	byID := map[int64]LikerProfile{}
	for _, prof := range got {
		if _, dup := byID[prof.User.ID]; dup {
			t.Fatalf("user %d emitted twice", prof.User.ID)
		}
		byID[prof.User.ID] = prof
	}
	for i, u := range likers {
		prof, ok := byID[int64(u)]
		if !ok {
			t.Fatalf("liker %d never emitted", u)
		}
		wantHidden := i%3 == 0
		if prof.FriendsHidden != wantHidden {
			t.Fatalf("liker %d hidden = %v, want %v", u, prof.FriendsHidden, wantHidden)
		}
		wantLikes := 1
		if i%2 == 0 {
			wantLikes = 2
		}
		if len(prof.PageLikes) != wantLikes {
			t.Fatalf("liker %d page likes = %d, want %d", u, len(prof.PageLikes), wantLikes)
		}
	}
}

// TestPipelineWorkerCountsAgree: the emitted profile set is identical
// for 1, 4, and 16 workers — concurrency affects order only.
func TestPipelineWorkerCountsAgree(t *testing.T) {
	srv, pages, _ := pipelineWorld(t, 40)
	var baseline []int64
	for _, workers := range []int{1, 4, 16} {
		_, _, got := collectPipeline(t, srv, pages, workers, nil)
		ids := make([]int64, len(got))
		for i, prof := range got {
			ids[i] = prof.User.ID
		}
		slices.Sort(ids)
		if baseline == nil {
			baseline = ids
			continue
		}
		if !slices.Equal(ids, baseline) {
			t.Fatalf("workers=%d emitted %v, want %v", workers, ids, baseline)
		}
	}
}

// TestPipelineResumeRefetchesNothing: resuming from a completed crawl's
// checkpoint costs one like-stream probe per page and zero profile
// fetches; resuming from a mid-crawl checkpoint collects exactly the
// remainder.
func TestPipelineResumeRefetchesNothing(t *testing.T) {
	srv, pages, likers := pipelineWorld(t, 30)
	_, p, _ := collectPipeline(t, srv, pages, 4, nil)
	ck := p.Checkpoint()
	if len(ck.Crawled) != len(likers) {
		t.Fatalf("checkpoint crawled = %d, want %d", len(ck.Crawled), len(likers))
	}

	// Full resume: nothing to do.
	c2, _, got2 := collectPipeline(t, srv, pages, 4, &ck)
	if len(got2) != 0 {
		t.Fatalf("resume emitted %d profiles, want 0", len(got2))
	}
	if reqs := c2.Requests(); reqs != len(pages) {
		t.Fatalf("resume issued %d requests, want %d (one tail probe per page)", reqs, len(pages))
	}

	// Partial resume: first half of page A's stream already done.
	half := Checkpoint{PageCursors: map[int64]int{pages[0]: 15}}
	done := map[int64]bool{}
	for _, u := range likers[:15] { // stream order == insertion order here
		half.Crawled = append(half.Crawled, int64(u))
		done[int64(u)] = true
	}
	_, _, got3 := collectPipeline(t, srv, pages, 4, &half)
	if len(got3) != len(likers)-15 {
		t.Fatalf("partial resume emitted %d, want %d", len(got3), len(likers)-15)
	}
	for _, prof := range got3 {
		if done[prof.User.ID] {
			t.Fatalf("partial resume refetched already-crawled user %d", prof.User.ID)
		}
	}
}

// TestPipelinePicksUpLiveWrites: likes landing while the pipeline
// crawls their page are collected before Crawl returns.
func TestPipelinePicksUpLiveWrites(t *testing.T) {
	srv, page, likersFn := liveWriteWorld(t, 20, 4)
	c := newClient(t, srv)
	p := NewPipeline(c, PipelineConfig{Workers: 4, BatchSize: 5}, nil)
	seen := map[int64]int{}
	if err := p.Crawl(context.Background(), []int64{int64(page)}, func(_ int64, prof LikerProfile) error {
		seen[prof.User.ID]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	likers := likersFn()
	if len(seen) != len(likers) {
		t.Fatalf("pipeline saw %d likers, want %d (including live-injected)", len(seen), len(likers))
	}
	for _, u := range likers {
		if seen[int64(u)] != 1 {
			t.Fatalf("user %d emitted %d times", u, seen[int64(u)])
		}
	}
}

// TestPipelineEmitErrorAborts: an emit error stops the crawl, and the
// rejected profile is NOT marked crawled — a resume re-delivers every
// profile the consumer failed to accept.
func TestPipelineEmitErrorAborts(t *testing.T) {
	srv, pages, likers := pipelineWorld(t, 20)
	c := newClient(t, srv)
	p := NewPipeline(c, PipelineConfig{Workers: 4, BatchSize: 5}, nil)
	sinkFull := errors.New("sink full")
	accepted := map[int64]bool{}
	budget := 7
	err := p.Crawl(context.Background(), pages, func(_ int64, prof LikerProfile) error {
		if len(accepted) >= budget {
			return sinkFull
		}
		accepted[prof.User.ID] = true
		return nil
	})
	if !errors.Is(err, sinkFull) {
		t.Fatalf("crawl error = %v, want sink full", err)
	}
	ck := p.Checkpoint()
	if len(ck.Crawled) != budget {
		t.Fatalf("checkpoint crawled = %d, want %d (only accepted profiles)", len(ck.Crawled), budget)
	}
	for _, u := range ck.Crawled {
		if !accepted[u] {
			t.Fatalf("user %d checkpointed but never accepted by the consumer", u)
		}
	}
	// Resume delivers exactly the remainder.
	_, _, rest := collectPipeline(t, srv, pages, 4, &ck)
	if len(rest)+budget != len(likers) {
		t.Fatalf("resume emitted %d, want %d", len(rest), len(likers)-budget)
	}
	for _, prof := range rest {
		if accepted[prof.User.ID] {
			t.Fatalf("resume re-delivered accepted user %d", prof.User.ID)
		}
	}
}

// TestPipelineRespectsSharedLimiter: 8 workers behind one client never
// exceed the politeness budget — total wall clock is bounded below by
// (requests-1) * MinInterval.
func TestPipelineRespectsSharedLimiter(t *testing.T) {
	srv, pages, _ := pipelineWorld(t, 10)
	c := newClient(t, srv)
	c.cfg.MinInterval = 3 * time.Millisecond
	p := NewPipeline(c, PipelineConfig{Workers: 8, BatchSize: 4}, nil)
	start := time.Now()
	if err := p.Crawl(context.Background(), pages, func(int64, LikerProfile) error { return nil }); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	floor := time.Duration(c.Requests()-1) * c.cfg.MinInterval
	if elapsed < floor*9/10 {
		t.Fatalf("crawl of %d requests took %v, below politeness floor %v", c.Requests(), elapsed, floor)
	}
}

// TestPipelineCheckpointCallback: OnCheckpoint snapshots are internally
// consistent and monotonic.
func TestPipelineCheckpointCallback(t *testing.T) {
	srv, pages, _ := pipelineWorld(t, 12)
	c := newClient(t, srv)
	var snaps []Checkpoint
	p := NewPipeline(c, PipelineConfig{
		Workers: 4, BatchSize: 4,
		OnCheckpoint: func(ck Checkpoint) { snaps = append(snaps, ck) },
	}, nil)
	if err := p.Crawl(context.Background(), pages, func(int64, LikerProfile) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(snaps) < len(pages) {
		t.Fatalf("got %d checkpoint callbacks, want >= %d", len(snaps), len(pages))
	}
	prev := 0
	for _, ck := range snaps {
		if len(ck.Crawled) < prev {
			t.Fatalf("crawled set shrank: %d -> %d", prev, len(ck.Crawled))
		}
		prev = len(ck.Crawled)
		if !slices.IsSorted(ck.Crawled) {
			t.Fatalf("checkpoint crawled set not sorted: %v", ck.Crawled)
		}
	}
}
