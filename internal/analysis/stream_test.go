package analysis

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/socialnet"
)

var st0 = time.Date(2014, 3, 12, 0, 0, 0, 0, time.UTC)

// buildStreamWorld fills a store with a deterministic multi-campaign
// world: demographically varied likers, two honeypot campaigns plus an
// inactive one, ambient history likes, and a few terminated accounts.
// Returns the campaigns (monitor-observed likers = page likers) and the
// baseline sample.
func buildStreamWorld(t *testing.T, st *socialnet.Store) ([]Campaign, []socialnet.UserID) {
	t.Helper()
	r := rand.New(rand.NewSource(77))
	countries := []string{socialnet.CountryUSA, socialnet.CountryIndia, "Nowhere", socialnet.CountryTurkey}

	var users []socialnet.UserID
	for i := 0; i < 120; i++ {
		users = append(users, st.AddUser(socialnet.User{
			Gender:     socialnet.Gender(i % 3),
			Age:        socialnet.AgeBracket(i % 6),
			Country:    countries[i%len(countries)],
			Searchable: true,
		}))
	}
	var ambient []socialnet.PageID
	for i := 0; i < 30; i++ {
		p, err := st.AddPage(socialnet.Page{Name: "ambient", Category: "ambient"})
		if err != nil {
			t.Fatal(err)
		}
		ambient = append(ambient, p)
	}
	pageA, _ := st.AddPage(socialnet.Page{Name: "hp-A", Honeypot: true})
	pageB, _ := st.AddPage(socialnet.Page{Name: "hp-B", Honeypot: true})
	pageC, _ := st.AddPage(socialnet.Page{Name: "hp-C", Honeypot: true})

	// Campaign A: first 60 users; campaign B: users 40..100 (overlap
	// with A drives the Jaccard liker similarity).
	var likersA, likersB []socialnet.UserID
	for i, u := range users[:60] {
		at := st0.Add(time.Duration(i%13) * time.Hour)
		if err := st.AddLike(u, pageA, at); err != nil {
			t.Fatal(err)
		}
		likersA = append(likersA, u)
	}
	for i, u := range users[40:100] {
		at := st0.Add(time.Duration(24+i%7) * time.Hour)
		if err := st.AddLike(u, pageB, at); err != nil {
			t.Fatal(err)
		}
		likersB = append(likersB, u)
	}
	// Ambient cover histories for every user (distinct pages per user).
	for _, u := range users {
		n := 1 + r.Intn(5)
		var hist []socialnet.Like
		perm := r.Perm(len(ambient))[:n]
		for k, pi := range perm {
			hist = append(hist, socialnet.Like{
				Page: ambient[pi],
				At:   st0.AddDate(0, 0, -30).Add(time.Duration(k) * time.Hour),
			})
		}
		if err := st.AddHistory(u, hist); err != nil {
			t.Fatal(err)
		}
	}
	// Terminations feed the removed-likes analysis.
	for _, u := range users[:10] {
		if err := st.Terminate(u); err != nil {
			t.Fatal(err)
		}
	}

	campaigns := []Campaign{
		{ID: "A", Provider: "ProvA", Page: pageA, Likers: likersA, Active: true},
		{ID: "B", Provider: "ProvB", Page: pageB, Likers: likersB, Active: true},
		{ID: "C", Provider: "ProvC", Page: pageC, Active: false},
	}
	// users[110:] are bystanders: ambient histories only, tracked by no
	// campaign and absent from the baseline — the filterable tail.
	baseline := users[100:110]
	return campaigns, baseline
}

// runStreamPass drives every aggregator over the store's canonical
// journal and returns their outputs bundled for comparison.
type streamOutputs struct {
	Geo     []GeoRow
	Demo    []DemoRow
	Windows []WindowStats
	CDFs    []PageLikeCDF
	PageSim [][]float64
	UserSim [][]float64
	Removed map[string]int
}

func runStreamPass(t *testing.T, st *socialnet.Store, campaigns []Campaign, baseline []socialnet.UserID, workers int) streamOutputs {
	t.Helper()
	geo := NewGeoAggregator(st, campaigns)
	demo := NewDemoAggregator(st, campaigns)
	win := NewWindowAggregator(campaigns)
	cdf := NewPageLikeCDFAggregator(campaigns, baseline)
	jac := NewJaccardAggregator(campaigns)
	rem := NewRemovedLikesAggregator(st, campaigns)
	// workers=1 exercises the fused journal scan, >1 the materialized
	// fan-out — both must produce identical output.
	if err := RunPass(st.Journal(), campaigns, baseline, workers, geo, demo, win, cdf, jac, rem); err != nil {
		t.Fatal(err)
	}
	pageSim, userSim := jac.Matrices()
	return streamOutputs{
		Geo: geo.Rows(), Demo: demo.Rows(), Windows: win.Stats(),
		CDFs: cdf.Rows(), PageSim: pageSim, UserSim: userSim,
		Removed: rem.Removed(),
	}
}

// crawlReference folds the store's view of every campaign liker and
// baseline member, one profile per user, into the crawl-side analyzer
// — the independent engine the journal aggregators are checked against.
func crawlReference(t *testing.T, st *socialnet.Store, campaigns []Campaign, baseline []socialnet.UserID) CrawlTables {
	t.Helper()
	roster := make([]CrawlCampaign, len(campaigns))
	var users []socialnet.UserID
	for i, c := range campaigns {
		roster[i] = CrawlCampaign{ID: c.ID, Page: c.Page, Active: c.Active}
		users = append(users, c.Likers...)
	}
	an := NewCrawlAnalyzer(roster, baseline)
	seen := make(map[socialnet.UserID]bool)
	for _, uid := range append(users, baseline...) {
		if seen[uid] {
			continue
		}
		seen[uid] = true
		u, err := st.User(uid)
		if err != nil {
			t.Fatal(err)
		}
		p := CrawlProfile{User: uid, Gender: u.Gender, Age: u.Age, Country: u.Country}
		for _, lk := range st.LikesOfUser(uid) {
			p.PageLikes = append(p.PageLikes, lk.Page)
		}
		for _, agg := range an.Aggregators() {
			agg.ObserveProfile(p)
		}
	}
	tables, err := an.Tables()
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

// TestAggregatorsMatchBatchAnalyses is the one-pass engine's anchor:
// every journal aggregator must reproduce an independent reference on
// the same store — the crawl-side family fed the store's profiles for
// Figures 1, 4, 5 and Table 2, inline store scans for the windows and
// removed likes.
func TestAggregatorsMatchBatchAnalyses(t *testing.T) {
	st := socialnet.NewStore()
	campaigns, baseline := buildStreamWorld(t, st)
	got := runStreamPass(t, st, campaigns, baseline, 4)
	want := crawlReference(t, st, campaigns, baseline)

	if !reflect.DeepEqual(got.Geo, want.Geo) {
		t.Fatalf("Geo diverges:\n got %+v\nwant %+v", got.Geo, want.Geo)
	}
	if !reflect.DeepEqual(got.Demo, want.Demo) {
		t.Fatalf("Demo diverges:\n got %+v\nwant %+v", got.Demo, want.Demo)
	}
	if !reflect.DeepEqual(got.CDFs, want.CDFs) {
		t.Fatalf("CDFs diverge:\n got %+v\nwant %+v", got.CDFs, want.CDFs)
	}
	if !reflect.DeepEqual(got.PageSim, want.PageSim) || !reflect.DeepEqual(got.UserSim, want.UserSim) {
		t.Fatal("Jaccard matrices diverge")
	}
	for i, c := range campaigns {
		likes := st.LikesOfPage(c.Page)
		times := make([]time.Time, len(likes))
		for j, lk := range likes {
			times[j] = lk.At
		}
		want, err := WindowAnalysis(c.ID, times)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Windows[i], want) {
			t.Fatalf("Windows[%d] = %+v, want %+v", i, got.Windows[i], want)
		}
	}
	for _, c := range campaigns {
		want := st.LikeCountOfPage(c.Page) - st.ActiveLikeCountOfPage(c.Page)
		if got.Removed[c.ID] != want {
			t.Fatalf("Removed[%s] = %d, want %d", c.ID, got.Removed[c.ID], want)
		}
	}
	if got.Removed["A"] == 0 {
		t.Fatal("terminations should have removed likes from campaign A")
	}
}

// TestAggregatorsDeterministicAcrossShardCounts pins the streaming
// engine's determinism contract: identical worlds stored under
// different shard counts, consumed with different worker counts, must
// produce identical aggregator output — the canonical event order is a
// property of the events, not of the sharding.
func TestAggregatorsDeterministicAcrossShardCounts(t *testing.T) {
	type run struct {
		out       streamOutputs
		shards    int
		workers   int
		campaigns []Campaign
	}
	var runs []run
	for _, shards := range []int{1, 4, 128} {
		for _, workers := range []int{1, 8} {
			st := socialnet.NewShardedStore(shards)
			campaigns, baseline := buildStreamWorld(t, st)
			runs = append(runs, run{
				out:     runStreamPass(t, st, campaigns, baseline, workers),
				shards:  shards,
				workers: workers,
			})
		}
	}
	for _, r := range runs[1:] {
		if !reflect.DeepEqual(r.out, runs[0].out) {
			t.Fatalf("aggregator output diverges at shards=%d workers=%d", r.shards, r.workers)
		}
	}
}

// TestRelevantEventsTransparent: the pre-filter is a pure superset
// optimization — aggregators produce identical output whether they
// consume the raw canonical stream or the filtered subsequence.
func TestRelevantEventsTransparent(t *testing.T) {
	st := socialnet.NewStore()
	campaigns, baseline := buildStreamWorld(t, st)
	raw := st.Journal().EventsCanonical(1)
	filtered := RelevantEvents(st.Journal(), campaigns, baseline, 1)
	if len(filtered) >= len(raw) {
		t.Fatalf("filter dropped nothing: %d of %d events", len(filtered), len(raw))
	}
	// Filtered output (runStreamPass) must match a pass over the raw
	// stream, aggregator by aggregator.
	want := runStreamPass(t, st, campaigns, baseline, 1)
	geo := NewGeoAggregator(st, campaigns)
	cdf := NewPageLikeCDFAggregator(campaigns, baseline)
	jac := NewJaccardAggregator(campaigns)
	for _, agg := range []Aggregator{geo, cdf, jac} {
		if err := Consume(raw, agg); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(geo.Rows(), want.Geo) {
		t.Fatal("Geo differs between raw and filtered streams")
	}
	if !reflect.DeepEqual(cdf.Rows(), want.CDFs) {
		t.Fatal("CDFs differ between raw and filtered streams")
	}
	pageSim, userSim := jac.Matrices()
	if !reflect.DeepEqual(pageSim, want.PageSim) || !reflect.DeepEqual(userSim, want.UserSim) {
		t.Fatal("Jaccard differs between raw and filtered streams")
	}
}

// TestGeoAggregatorIgnoresUnobservedLikers: page traffic from users the
// monitor never attributed to the campaign must not leak into the
// analyses — the aggregators honor the observed-liker sets.
func TestGeoAggregatorIgnoresUnobservedLikers(t *testing.T) {
	st := socialnet.NewStore()
	u1 := st.AddUser(socialnet.User{Country: socialnet.CountryUSA})
	u2 := st.AddUser(socialnet.User{Country: socialnet.CountryIndia})
	page, _ := st.AddPage(socialnet.Page{Name: "hp", Honeypot: true})
	if err := st.AddLike(u1, page, st0); err != nil {
		t.Fatal(err)
	}
	if err := st.AddLike(u2, page, st0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	// Only u1 was observed.
	campaigns := []Campaign{{ID: "A", Page: page, Likers: []socialnet.UserID{u1}, Active: true}}
	geo := NewGeoAggregator(st, campaigns)
	if err := Consume(st.Journal().EventsCanonical(1), geo); err != nil {
		t.Fatal(err)
	}
	rows := geo.Rows()
	if len(rows) != 1 || rows[0].Total != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Percent[socialnet.CountryUSA] != 100 {
		t.Fatalf("percent = %+v", rows[0].Percent)
	}
}
