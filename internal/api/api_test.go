package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/socialnet"
)

var t0 = time.Date(2014, 3, 12, 0, 0, 0, 0, time.UTC)

func testServer(t *testing.T) (*httptest.Server, *socialnet.Store, socialnet.PageID, socialnet.UserID, socialnet.UserID) {
	t.Helper()
	st := socialnet.NewStore()
	pub := st.AddUser(socialnet.User{
		Gender: socialnet.GenderFemale, Age: socialnet.Age18to24,
		Country: "USA", HomeTown: "USA-town-01", CurrentTown: "USA-town-02",
		FriendsPublic: true, Searchable: true, DeclaredFriends: 250,
	})
	priv := st.AddUser(socialnet.User{
		Gender: socialnet.GenderMale, Age: socialnet.Age25to34,
		Country: "India", FriendsPublic: false, Searchable: true,
	})
	_ = st.Friend(pub, priv)
	page, err := st.AddPage(socialnet.Page{Name: "Virtual Electricity", Description: "not real", Honeypot: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = st.AddLike(pub, page, t0)
	_ = st.AddLike(priv, page, t0.Add(time.Hour))
	srv := httptest.NewServer(NewServer(st, "sekrit"))
	t.Cleanup(srv.Close)
	return srv, st, page, pub, priv
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestPageEndpoint(t *testing.T) {
	srv, _, page, _, _ := testServer(t)
	var doc PageDoc
	code := getJSON(t, fmt.Sprintf("%s/api/page/%d", srv.URL, page), &doc)
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if doc.Name != "Virtual Electricity" || !doc.Honeypot || doc.LikeCount != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	if code := getJSON(t, srv.URL+"/api/page/999", nil); code != 404 {
		t.Fatalf("missing page status = %d", code)
	}
	if code := getJSON(t, srv.URL+"/api/page/xyz", nil); code != 400 {
		t.Fatalf("bad id status = %d", code)
	}
}

func TestPageLikesPagination(t *testing.T) {
	srv, st, page, _, _ := testServer(t)
	// Add more likers to exercise pagination.
	for i := 0; i < 25; i++ {
		u := st.AddUser(socialnet.User{Country: "Egypt"})
		_ = st.AddLike(u, page, t0.Add(time.Duration(i+2)*time.Hour))
	}
	// A bare limit= pages from cursor 0.
	var doc PageLikesDoc
	code := getJSON(t, fmt.Sprintf("%s/api/page/%d/likes?limit=10", srv.URL, page), &doc)
	if code != 200 || doc.Total != 27 || len(doc.Likes) != 10 {
		t.Fatalf("first page: code=%d total=%d likes=%d", code, doc.Total, len(doc.Likes))
	}
	if doc.Cursor != 0 || doc.NextCursor != 10 {
		t.Fatalf("first page cursors = %d/%d, want 0/10", doc.Cursor, doc.NextCursor)
	}
	var page2 PageLikesDoc
	getJSON(t, fmt.Sprintf("%s/api/page/%d/likes?cursor=20&limit=10", srv.URL, page), &page2)
	if len(page2.Likes) != 7 {
		t.Fatalf("last page likes = %d, want 7", len(page2.Likes))
	}
	// Likes arrived in time order, so the stream window is time-ordered.
	if doc.Likes[0].At > doc.Likes[9].At {
		t.Fatal("likes not time-ordered")
	}
	if code := getJSON(t, fmt.Sprintf("%s/api/page/%d/likes?offset=-1", srv.URL, page), nil); code != 400 {
		t.Fatalf("offset status = %d", code)
	}
	if code := getJSON(t, fmt.Sprintf("%s/api/page/%d/likes?limit=0", srv.URL, page), nil); code != 400 {
		t.Fatalf("bad limit status = %d", code)
	}
}

// TestPageLikesCursorPaging exercises cursor mode: windows tile the
// append-only stream, next_cursor resumes exactly after the last event,
// and a like landing mid-pagination — with an earlier timestamp than
// events already served — is delivered exactly once at the tail instead
// of shifting the windows (the offset-mode dup/drop bug).
func TestPageLikesCursorPaging(t *testing.T) {
	srv, st, page, _, _ := testServer(t)
	for i := 0; i < 23; i++ {
		u := st.AddUser(socialnet.User{Country: "Egypt"})
		_ = st.AddLike(u, page, t0.Add(time.Duration(i+2)*time.Hour))
	}
	seen := map[int64]int{}
	cursor, got := 0, 0
	for {
		var doc PageLikesDoc
		code := getJSON(t, fmt.Sprintf("%s/api/page/%d/likes?cursor=%d&limit=10", srv.URL, page, cursor), &doc)
		if code != 200 {
			t.Fatalf("status = %d", code)
		}
		if doc.Cursor != cursor {
			t.Fatalf("echoed cursor = %d, want %d", doc.Cursor, cursor)
		}
		if doc.NextCursor != cursor+len(doc.Likes) {
			t.Fatalf("next_cursor = %d after cursor %d with %d likes", doc.NextCursor, cursor, len(doc.Likes))
		}
		for _, lk := range doc.Likes {
			seen[lk.User]++
		}
		got += len(doc.Likes)
		cursor = doc.NextCursor
		if len(doc.Likes) == 0 {
			break
		}
		// A like with a PRE-study timestamp lands while we paginate.
		if got == 10 {
			u := st.AddUser(socialnet.User{Country: "Turkey"})
			_ = st.AddLike(u, page, t0.Add(-time.Hour))
		}
	}
	if got != 26 {
		t.Fatalf("cursor crawl saw %d likes, want 26", got)
	}
	for u, n := range seen {
		if n != 1 {
			t.Fatalf("user %d delivered %d times", u, n)
		}
	}
	// cursor + offset together is a 400; so is a malformed cursor.
	if code := getJSON(t, fmt.Sprintf("%s/api/page/%d/likes?cursor=0&offset=1", srv.URL, page), nil); code != 400 {
		t.Fatalf("cursor+offset status = %d", code)
	}
	if code := getJSON(t, fmt.Sprintf("%s/api/page/%d/likes?cursor=-2", srv.URL, page), nil); code != 400 {
		t.Fatalf("bad cursor status = %d", code)
	}
}

func TestUsersBatch(t *testing.T) {
	srv, _, _, pub, priv := testServer(t)
	var doc UsersDoc
	// Unknown ID 999 is skipped, not fatal; order follows the request.
	code := getJSON(t, fmt.Sprintf("%s/api/users?ids=%d,999,%d", srv.URL, pub, priv), &doc)
	if code != 200 || len(doc.Users) != 2 {
		t.Fatalf("batch: code=%d users=%d", code, len(doc.Users))
	}
	if doc.Users[0].ID != int64(pub) || doc.Users[1].ID != int64(priv) {
		t.Fatalf("batch order = %+v", doc.Users)
	}
	if doc.Users[0].Country != "USA" || doc.Users[0].DeclaredFriends != 250 {
		t.Fatalf("batch profile = %+v", doc.Users[0])
	}
	if code := getJSON(t, srv.URL+"/api/users", nil); code != 400 {
		t.Fatalf("missing ids status = %d", code)
	}
	if code := getJSON(t, srv.URL+"/api/users?ids=1,x", nil); code != 400 {
		t.Fatalf("bad id status = %d", code)
	}
	ids := make([]string, MaxPageSize+1)
	for i := range ids {
		ids[i] = "1"
	}
	if code := getJSON(t, srv.URL+"/api/users?ids="+strings.Join(ids, ","), nil); code != 400 {
		t.Fatalf("oversize batch status = %d", code)
	}
}

// TestOffsetRejectedOnCursorRoutes: the cursor routes answer offset=
// with a 400 naming cursor= — ignoring it would serve an old offset
// client the same first window forever. The directory, which has no
// cursor mode, keeps offset paging.
func TestOffsetRejectedOnCursorRoutes(t *testing.T) {
	srv, _, page, pub, _ := testServer(t)
	for name, url := range map[string]string{
		"page likes":   fmt.Sprintf("%s/api/page/%d/likes?offset=1", srv.URL, page),
		"user likes":   fmt.Sprintf("%s/api/user/%d/likes?offset=0&limit=5", srv.URL, pub),
		"user friends": fmt.Sprintf("%s/api/user/%d/friends?offset=1", srv.URL, pub),
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var doc ErrorDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 400 || !strings.Contains(doc.Error, "cursor=") {
			t.Fatalf("%s: status %d error %q, want 400 naming cursor=", name, resp.StatusCode, doc.Error)
		}
	}
	var dir DirectoryDoc
	if code := getJSON(t, srv.URL+"/api/directory?offset=1&limit=1", &dir); code != 200 || dir.Offset != 1 || len(dir.Users) != 1 {
		t.Fatalf("directory offset paging: code=%d doc=%+v", code, dir)
	}
}

// TestEmptyWindowsAreArrays pins the JSON shape: empty like/friend/page
// windows serialize as [] rather than null, so typed clients in other
// languages don't need null guards.
func TestEmptyWindowsAreArrays(t *testing.T) {
	srv, st, page, pub, _ := testServer(t)
	lonely := st.AddUser(socialnet.User{FriendsPublic: true})
	for name, url := range map[string]string{
		"likes cursor":   fmt.Sprintf("%s/api/page/%d/likes?cursor=%d", srv.URL, page, 9999),
		"friends":        fmt.Sprintf("%s/api/user/%d/friends", srv.URL, lonely),
		"friends cursor": fmt.Sprintf("%s/api/user/%d/friends?cursor=%d", srv.URL, pub, 9999),
		"user likes":     fmt.Sprintf("%s/api/user/%d/likes?cursor=%d", srv.URL, pub, 9999),
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", name, resp.StatusCode)
		}
		if strings.Contains(string(body), "null") {
			t.Fatalf("%s: body has null window: %s", name, body)
		}
	}
}

func TestUserEndpoint(t *testing.T) {
	srv, _, _, pub, _ := testServer(t)
	var doc UserDoc
	code := getJSON(t, fmt.Sprintf("%s/api/user/%d", srv.URL, pub), &doc)
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if doc.Gender != "F" || doc.Age != "18-24" || doc.Country != "USA" {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.DeclaredFriends != 250 {
		t.Fatalf("declared friends = %d", doc.DeclaredFriends)
	}
	if doc.Status != "active" {
		t.Fatalf("status = %s", doc.Status)
	}
	if code := getJSON(t, srv.URL+"/api/user/999", nil); code != 404 {
		t.Fatalf("missing user = %d", code)
	}
}

func TestFriendListPrivacy(t *testing.T) {
	srv, _, _, pub, priv := testServer(t)
	var doc UserFriendsDoc
	code := getJSON(t, fmt.Sprintf("%s/api/user/%d/friends", srv.URL, pub), &doc)
	if code != 200 || doc.Total != 1 || doc.Friends[0] != int64(priv) {
		t.Fatalf("public list: code=%d doc=%+v", code, doc)
	}
	code = getJSON(t, fmt.Sprintf("%s/api/user/%d/friends", srv.URL, priv), nil)
	if code != 403 {
		t.Fatalf("private list status = %d, want 403", code)
	}
}

func TestUserLikes(t *testing.T) {
	srv, _, page, pub, _ := testServer(t)
	var doc UserLikesDoc
	code := getJSON(t, fmt.Sprintf("%s/api/user/%d/likes", srv.URL, pub), &doc)
	if code != 200 || doc.Total != 1 || doc.Pages[0] != int64(page) {
		t.Fatalf("likes: code=%d doc=%+v", code, doc)
	}
}

func TestDirectory(t *testing.T) {
	srv, _, _, _, _ := testServer(t)
	var doc DirectoryDoc
	code := getJSON(t, srv.URL+"/api/directory?limit=10", &doc)
	if code != 200 || doc.Total != 2 {
		t.Fatalf("directory: code=%d doc=%+v", code, doc)
	}
}

func TestAdminReportAuth(t *testing.T) {
	srv, _, page, _, _ := testServer(t)
	url := fmt.Sprintf("%s/api/admin/report/%d", srv.URL, page)
	// No token: 401.
	if code := getJSON(t, url, nil); code != 401 {
		t.Fatalf("unauthorized status = %d", code)
	}
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("X-Admin-Token", "sekrit")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("authorized status = %d", resp.StatusCode)
	}
	var doc ReportDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.TotalLikes != 2 || doc.GenderCounts["F"] != 1 || doc.GenderCounts["M"] != 1 {
		t.Fatalf("report = %+v", doc)
	}
	if doc.AgeCounts["18-24"] != 1 {
		t.Fatalf("ages = %v", doc.AgeCounts)
	}
}

func TestAdminDisabledWithoutToken(t *testing.T) {
	st := socialnet.NewStore()
	page, _ := st.AddPage(socialnet.Page{Name: "p"})
	srv := httptest.NewServer(NewServer(st, ""))
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/api/admin/report/%d", srv.URL, page), nil)
	req.Header.Set("X-Admin-Token", "")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Fatalf("disabled admin status = %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _, page, _, _ := testServer(t)
	resp, err := http.Post(fmt.Sprintf("%s/api/page/%d", srv.URL, page), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	srv, _, _, _, _ := testServer(t)
	if code := getJSON(t, srv.URL+"/api/healthz", nil); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
}

// TestHealthzReportsFailure: once the process marks itself unhealthy —
// a replica whose tail loop died, say — healthz flips to 503 so load
// balancers and probes route traffic away from the stale instance.
func TestHealthzReportsFailure(t *testing.T) {
	st := socialnet.NewStore()
	api := NewServer(st, "")
	srv := httptest.NewServer(api)
	defer srv.Close()
	if code := getJSON(t, srv.URL+"/api/healthz", nil); code != 200 {
		t.Fatalf("healthz before failure = %d, want 200", code)
	}
	api.SetHealthError("replication tail dead: cursor predates leader chain")
	resp, err := http.Get(srv.URL + "/api/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("healthz after failure = %d, want 503", resp.StatusCode)
	}
	var body struct{ Status, Error string }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "failed" || body.Error == "" {
		t.Fatalf("healthz body = %+v, want failed status with the error", body)
	}
}

// TestUserLikesCursorPaging mirrors the page-likes cursor contract on
// the user side: windows tile the user's append-only like stream, and
// a like landing mid-pagination is delivered exactly once at the tail.
func TestUserLikesCursorPaging(t *testing.T) {
	srv, st, page, pub, _ := testServer(t)
	pages := []socialnet.PageID{page}
	for i := 0; i < 22; i++ {
		p, err := st.AddPage(socialnet.Page{Name: fmt.Sprintf("p%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
		_ = st.AddLike(pub, p, t0.Add(time.Duration(i+2)*time.Hour))
	}
	seen := map[int64]int{}
	cursor, windows := 0, 0
	for {
		var doc UserLikesDoc
		code := getJSON(t, fmt.Sprintf("%s/api/user/%d/likes?cursor=%d&limit=7", srv.URL, pub, cursor), &doc)
		if code != 200 {
			t.Fatalf("cursor window: status %d", code)
		}
		if doc.Cursor != cursor {
			t.Fatalf("cursor window echo: %+v", doc)
		}
		for _, p := range doc.Pages {
			seen[p]++
		}
		if windows == 1 {
			// A live like with an EARLY timestamp, mid-pagination.
			late, err := st.AddPage(socialnet.Page{Name: "late"})
			if err != nil {
				t.Fatal(err)
			}
			pages = append(pages, late)
			_ = st.AddLike(pub, late, t0.Add(time.Minute))
		}
		windows++
		if len(doc.Pages) == 0 {
			break
		}
		cursor = doc.NextCursor
	}
	if len(seen) != len(pages) {
		t.Fatalf("cursor crawl saw %d pages, want %d", len(seen), len(pages))
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("page %d delivered %d times, want exactly once", p, n)
		}
	}
	// A bare limit= pages from cursor 0.
	var first UserLikesDoc
	if code := getJSON(t, fmt.Sprintf("%s/api/user/%d/likes?limit=5", srv.URL, pub), &first); code != 200 {
		t.Fatalf("bare limit: %d", code)
	}
	if first.Cursor != 0 || first.NextCursor != 5 || len(first.Pages) != 5 {
		t.Fatalf("bare limit should page from cursor 0: %+v", first)
	}
	if code := getJSON(t, fmt.Sprintf("%s/api/user/%d/likes?cursor=0&offset=3", srv.URL, pub), nil); code != 400 {
		t.Fatal("cursor+offset should be rejected")
	}
}

// TestUserFriendsCursorPaging: keyset pagination over the friend list —
// windows tile the ID space, exactly once per friend.
func TestUserFriendsCursorPaging(t *testing.T) {
	srv, st, _, pub, priv := testServer(t)
	want := map[int64]bool{int64(priv): true}
	for i := 0; i < 17; i++ {
		f := st.AddUser(socialnet.User{Country: "UK"})
		if err := st.Friend(pub, f); err != nil {
			t.Fatal(err)
		}
		want[int64(f)] = true
	}
	seen := map[int64]int{}
	var cursor int64
	for {
		var doc UserFriendsDoc
		code := getJSON(t, fmt.Sprintf("%s/api/user/%d/friends?cursor=%d&limit=5", srv.URL, pub, cursor), &doc)
		if code != 200 {
			t.Fatalf("cursor window: status %d", code)
		}
		if doc.Cursor != cursor || doc.Total != len(want) {
			t.Fatalf("window doc: %+v", doc)
		}
		for _, f := range doc.Friends {
			seen[f]++
		}
		if len(doc.Friends) < 5 {
			break
		}
		cursor = doc.NextCursor
	}
	if len(seen) != len(want) {
		t.Fatalf("cursor crawl saw %d friends, want %d", len(seen), len(want))
	}
	for f, n := range seen {
		if !want[f] || n != 1 {
			t.Fatalf("friend %d seen %d times (known=%v)", f, n, want[f])
		}
	}
	// Privacy still applies in cursor mode.
	if code := getJSON(t, fmt.Sprintf("%s/api/user/%d/friends?cursor=0", srv.URL, priv), nil); code != 403 {
		t.Fatal("private friend list served in cursor mode")
	}
}

// TestPostLike: the admin-gated like-injection surface used by the
// crash-recovery smoke test.
func TestPostLike(t *testing.T) {
	srv, st, page, _, _ := testServer(t)
	u := st.AddUser(socialnet.User{Country: "USA"})
	post := func(token string, body string) int {
		req, err := http.NewRequest(http.MethodPost,
			fmt.Sprintf("%s/api/page/%d/likes", srv.URL, page), strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("X-Admin-Token", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	body := fmt.Sprintf(`{"user": %d}`, u)
	if code := post("", body); code != 401 {
		t.Fatalf("unauthenticated POST = %d, want 401", code)
	}
	before := st.LikeCountOfPage(page)
	if code := post("sekrit", body); code != 201 {
		t.Fatalf("POST like = %d, want 201", code)
	}
	if got := st.LikeCountOfPage(page); got != before+1 {
		t.Fatalf("like count %d, want %d", got, before+1)
	}
	if code := post("sekrit", body); code != 409 {
		t.Fatalf("duplicate POST = %d, want 409", code)
	}
	if code := post("sekrit", `{"user": 99999}`); code != 404 {
		t.Fatalf("unknown user POST = %d, want 404", code)
	}
	if code := post("sekrit", `{"user":`); code != 400 {
		t.Fatalf("bad body POST = %d, want 400", code)
	}
}
