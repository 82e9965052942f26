package core

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/crawler"
	"repro/internal/socialnet"
	"repro/internal/stats"
)

// TestHTTPCrawlMatchesStoreAnalysis runs a scaled study, serves the
// resulting world over HTTP, crawls one campaign's likers through the
// network stack, and verifies that the crawled observables reproduce the
// store-side analysis — the §3 pipeline end to end.
func TestHTTPCrawlMatchesStoreAnalysis(t *testing.T) {
	res := miniResults(t)
	// miniResults caches the Results but not the Study; rebuild the
	// same world deterministically.
	cfg, err := ScaledConfig(7, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.NewServer(s.Store(), "tok"))
	defer srv.Close()

	ccfg := crawler.DefaultConfig(srv.URL)
	ccfg.MinInterval = 0
	ccfg.AdminToken = "tok"
	cl, err := crawler.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	target := campaign(t, res2, "SF-ALL")
	var profiles []crawler.LikerProfile
	pipe := crawler.NewPipeline(cl, crawler.PipelineConfig{}, nil)
	err = pipe.Crawl(ctx, []int64{int64(target.Page)}, func(_ int64, prof crawler.LikerProfile) error {
		profiles = append(profiles, prof)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != target.Likes {
		t.Fatalf("crawled %d likers, store says %d", len(profiles), target.Likes)
	}

	// Crawled country mix must match the store-side Figure 1 row.
	turkey := 0
	for _, p := range profiles {
		if p.User.Country == socialnet.CountryTurkey {
			turkey++
		}
	}
	var storeRow float64
	for _, row := range res2.Geo {
		if row.CampaignID == "SF-ALL" {
			storeRow = row.Percent[socialnet.CountryTurkey]
		}
	}
	crawled := 100 * float64(turkey) / float64(len(profiles))
	if diff := crawled - storeRow; diff > 0.5 || diff < -0.5 {
		t.Fatalf("crawled turkey %.1f%% vs analysis %.1f%%", crawled, storeRow)
	}

	// Crawled page-like medians must match the store-side Figure 4 value.
	var likeCounts []float64
	for _, p := range profiles {
		likeCounts = append(likeCounts, float64(len(p.PageLikes)))
	}
	med, err := stats.Median(likeCounts)
	if err != nil {
		t.Fatal(err)
	}
	var storeMed float64
	for _, c := range res2.CDFs {
		if c.CampaignID == "SF-ALL" {
			storeMed = c.Median
		}
	}
	if med != storeMed {
		t.Fatalf("crawled median %v vs analysis median %v", med, storeMed)
	}

	// Friend-list privacy fractions agree with Table 3's SF row.
	hidden := 0
	for _, p := range profiles {
		if p.FriendsHidden {
			hidden++
		}
	}
	publicFrac := 100 * float64(len(profiles)-hidden) / float64(len(profiles))
	var t3 float64
	for _, row := range res2.Table3 {
		if row.Provider == FarmSocialFormula {
			t3 = row.PublicPct
		}
	}
	// Table 3 groups all SF campaigns; allow a loose band.
	if publicFrac < t3-15 || publicFrac > t3+15 {
		t.Fatalf("crawled public-list %.1f%% vs Table 3 %.1f%%", publicFrac, t3)
	}

	// Admin report over HTTP equals the direct report.
	rep, err := cl.AdminReport(ctx, int64(target.Page))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalLikes != target.Likes {
		t.Fatalf("admin report likes %d vs %d", rep.TotalLikes, target.Likes)
	}

	// Determinism across rebuilds: the cached mini results and this
	// rebuild came from the same seed and must agree.
	if res.Campaigns[7].Likes != res2.Campaigns[7].Likes {
		t.Fatalf("rebuild diverged: %d vs %d", res.Campaigns[7].Likes, res2.Campaigns[7].Likes)
	}
}
