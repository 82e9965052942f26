// Package api exposes the simulated platform over HTTP, standing in for
// the web surface the paper's Selenium crawler scraped (§3): page views
// with like counts and like streams, public profiles, friend lists
// gated by the owner's privacy setting, public page-like lists, the
// searchable directory, and the page-admin aggregate report (gated by an
// admin token, as the real report tool was gated by page ownership).
//
// The like streams and friend lists page by cursor only (cursor=,
// default 0, resumed from each response's next_cursor), which stays
// exactly-once under live writes; offset= on those routes is a 400.
// The directory, which has no cursor mode, pages by offset=.
//
// The same admin token gates the platform's internal enforcement view —
// the §5 fraud detector's live verdicts, backed by a
// detect.StreamScorer attached via SetFraudScorer (503 until then):
//
//	GET /api/page/{id}/fraud  per-liker verdicts + page aggregates
//	                          (likers, high-risk count, mean score)
//	GET /api/user/{id}/fraud  one enrolled account's verdict (404 if
//	                          the account never liked a tracked page)
//	GET /api/fraud            the all-tracked-pages report, pages
//	                          ascending — byte-identical to
//	                          BatchFraudReport over the same world
//
// Each request ticks the scorer first, so verdicts reflect the journal
// tail at request time. See DESIGN.md §14.
package api

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	"repro/internal/platform"
	"repro/internal/socialnet"
)

// Server serves the world over HTTP.
type Server struct {
	store *socialnet.Store
	// AdminToken gates /api/admin endpoints.
	adminToken string
	mux        *http.ServeMux
	// handler is the mux behind the server-wide middleware (gzip).
	handler http.Handler
	// scorer, when attached via SetFraudScorer, backs the admin-gated
	// /fraud endpoints with live streaming verdicts.
	scorerMu sync.RWMutex
	scorer   *detect.StreamScorer
	// readOnly rejects writes with 403 — the replica stance: reads are
	// local, writes belong to the leader.
	readOnly atomic.Bool
	// replOffsets, when set, supplies the per-shard applied offsets
	// stamped on every response as X-Repl-Offsets — the staleness
	// signal a client can compare across leader and replicas.
	replOffsets atomic.Value // func() []uint64
	// health, when set non-empty via SetHealthError, flips
	// /api/healthz to 503 with the reason — how a replica whose
	// replication tail died tells load balancers to eject it instead
	// of letting it serve ever-staler reads.
	health atomic.Value // string
}

// MaxPageSize caps pagination limits.
const MaxPageSize = 500

// NewServer builds the HTTP front-end. adminToken may be empty to
// disable admin endpoints entirely.
func NewServer(st *socialnet.Store, adminToken string) *Server {
	s := &Server{store: st, adminToken: adminToken, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /api/page/{id}", s.handlePage)
	s.mux.HandleFunc("GET /api/page/{id}/likes", s.handlePageLikes)
	s.mux.HandleFunc("POST /api/page/{id}/likes", s.handlePostLike)
	s.mux.HandleFunc("GET /api/user/{id}", s.handleUser)
	s.mux.HandleFunc("GET /api/users", s.handleUsersBatch)
	s.mux.HandleFunc("GET /api/user/{id}/friends", s.handleUserFriends)
	s.mux.HandleFunc("GET /api/user/{id}/likes", s.handleUserLikes)
	s.mux.HandleFunc("GET /api/directory", s.handleDirectory)
	s.mux.HandleFunc("GET /api/admin/report/{id}", s.handleAdminReport)
	s.mux.HandleFunc("GET /api/page/{id}/fraud", s.handlePageFraud)
	s.mux.HandleFunc("GET /api/user/{id}/fraud", s.handleUserFraud)
	s.mux.HandleFunc("GET /api/fraud", s.handleFraudReport)
	s.mux.HandleFunc("GET /api/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /api/repl/manifest", s.handleReplManifest)
	s.mux.HandleFunc("GET /api/repl/snapshot/{name}", s.handleReplSnapshot)
	s.mux.HandleFunc("GET /api/repl/segments", s.handleReplSegments)
	// Response compression is part of the server, not an opt-in wrapper:
	// every deployment (honeypotd, self-served crawls, tests) negotiates
	// it the same way.
	s.handler = Gzip(s.mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if fn, ok := s.replOffsets.Load().(func() []uint64); ok && fn != nil {
		offs := fn()
		var b strings.Builder
		for i, o := range offs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(o, 10))
		}
		w.Header().Set("X-Repl-Offsets", b.String())
	}
	s.handler.ServeHTTP(w, r)
}

// SetReadOnly makes the server reject writes with 403 — the stance a
// read replica serves in: every GET is answered from local state,
// every write belongs to the leader.
func (s *Server) SetReadOnly(ro bool) { s.readOnly.Store(ro) }

// handleHealthz answers 200 while the process is serving normally and
// 503 with the recorded reason after SetHealthError — the signal a
// load balancer or client uses to stop routing to a dead-tailed
// replica.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if msg, ok := s.health.Load().(string); ok && msg != "" {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "failed", "error": msg})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// SetHealthError marks the server unhealthy: /api/healthz answers 503
// with the given reason until it is cleared with an empty string. The
// read API keeps serving — existing clients can still drain — but
// health-checked traffic moves away.
func (s *Server) SetHealthError(msg string) { s.health.Store(msg) }

// SetReplOffsets installs the offsets source stamped on responses as
// X-Repl-Offsets (comma-separated decimals, one per WAL shard). On a
// leader this is Store.ReplOffsets (the fsync horizon); on a follower,
// FollowerStore.Offsets (the applied horizon). A client comparing the
// two headers reads the replica's staleness directly in records.
func (s *Server) SetReplOffsets(fn func() []uint64) { s.replOffsets.Store(fn) }

// ---- wire types ----

// PageDoc is the public page view.
type PageDoc struct {
	ID          int64  `json:"id"`
	Name        string `json:"name"`
	Description string `json:"description"`
	Category    string `json:"category"`
	Honeypot    bool   `json:"honeypot"`
	LikeCount   int    `json:"like_count"`
}

// LikeDoc is one like event.
type LikeDoc struct {
	User int64 `json:"user"`
	// At is RFC3339 with nanoseconds when the instant has them: the
	// crawl-side window analyses must see the exact instants the
	// journal holds, and whole-second truncation would shift events
	// across 2-hour window boundaries.
	At string `json:"at"`
}

// PageLikesDoc is a page's like stream (paginated).
//
// `cursor=` (default 0) windows the append-only stream: Cursor echoes
// the request and NextCursor resumes after the last returned event,
// exactly once per event even under live writes.
type PageLikesDoc struct {
	Total      int       `json:"total"`
	Cursor     int       `json:"cursor"`
	NextCursor int       `json:"next_cursor"`
	Likes      []LikeDoc `json:"likes"`
}

// UserDoc is the public profile view.
type UserDoc struct {
	ID              int64  `json:"id"`
	Gender          string `json:"gender"`
	Age             string `json:"age"`
	Country         string `json:"country"`
	HomeTown        string `json:"home_town"`
	CurrentTown     string `json:"current_town"`
	FriendsPublic   bool   `json:"friends_public"`
	DeclaredFriends int    `json:"declared_friends"`
	Status          string `json:"status"`
}

// UserFriendsDoc is a (public) friend list page.
//
// `cursor=` (default 0) is keyset pagination over the ID-sorted list:
// Cursor echoes the request (the smallest friend ID the window may
// contain) and NextCursor resumes after the last returned friend —
// entries present when pagination began are delivered exactly once
// even if edges are inserted mid-crawl.
type UserFriendsDoc struct {
	Total      int     `json:"total"`
	Cursor     int64   `json:"cursor"`
	NextCursor int64   `json:"next_cursor"`
	Friends    []int64 `json:"friends"`
}

// UserLikesDoc is a user's page-like list page.
//
// `cursor=` windows the user's append-only like stream exactly like
// PageLikesDoc windows a page's: NextCursor resumes after the last
// returned like, and a like (or bulk history import) landing mid-crawl
// only ever extends the tail.
type UserLikesDoc struct {
	Total      int     `json:"total"`
	Cursor     int     `json:"cursor"`
	NextCursor int     `json:"next_cursor"`
	Pages      []int64 `json:"pages"`
}

// UsersDoc is the batched-profile response: the profiles of the
// requested IDs that exist, in request order. Unknown IDs are skipped
// (a profile deleted mid-crawl is not an error), so callers diff the
// response against the request to detect missing users.
type UsersDoc struct {
	Users []UserDoc `json:"users"`
}

// DirectoryDoc is a slice of the searchable directory.
type DirectoryDoc struct {
	Total  int     `json:"total"`
	Offset int     `json:"offset"`
	Users  []int64 `json:"users"`
}

// ReportDoc is the admin aggregate report.
type ReportDoc struct {
	Page          int64          `json:"page"`
	TotalLikes    int            `json:"total_likes"`
	GenderCounts  map[string]int `json:"gender_counts"`
	AgeCounts     map[string]int `json:"age_counts"`
	CountryCounts map[string]int `json:"country_counts"`
}

// ErrorDoc carries API errors.
type ErrorDoc struct {
	Error string `json:"error"`
}

// ---- handlers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorDoc{Error: fmt.Sprintf(format, args...)})
}

func pathID(r *http.Request) (int64, error) {
	return strconv.ParseInt(r.PathValue("id"), 10, 64)
}

func limitParam(r *http.Request) (int, error) {
	limit := 100
	if v := r.URL.Query().Get("limit"); v != "" {
		var err error
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 1 {
			return 0, errors.New("bad limit")
		}
	}
	if limit > MaxPageSize {
		limit = MaxPageSize
	}
	return limit, nil
}

// cursorParams parses the paging of the cursor routes (page likes,
// user likes, user friends): cursor= (default 0) and limit=. offset=
// is rejected rather than ignored — an old offset client would
// otherwise get the same first window forever.
func cursorParams(r *http.Request) (cursor int64, limit int, err error) {
	q := r.URL.Query()
	if q.Has("offset") {
		return 0, 0, errors.New("offset paging is not supported: page with cursor= and next_cursor")
	}
	if v := q.Get("cursor"); v != "" {
		cursor, err = strconv.ParseInt(v, 10, 64)
		if err != nil || cursor < 0 {
			return 0, 0, errors.New("bad cursor")
		}
	}
	limit, err = limitParam(r)
	if err != nil {
		return 0, 0, err
	}
	return cursor, limit, nil
}

// paging parses the directory's offset= and limit=.
func paging(r *http.Request) (offset, limit int, err error) {
	if v := r.URL.Query().Get("offset"); v != "" {
		offset, err = strconv.Atoi(v)
		if err != nil || offset < 0 {
			return 0, 0, errors.New("bad offset")
		}
	}
	limit, err = limitParam(r)
	if err != nil {
		return 0, 0, err
	}
	return offset, limit, nil
}

func window[T any](xs []T, offset, limit int) []T {
	if offset >= len(xs) {
		return nil
	}
	end := offset + limit
	if end > len(xs) {
		end = len(xs)
	}
	return xs[offset:end]
}

func (s *Server) handlePage(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad page id")
		return
	}
	p, err := s.store.Page(socialnet.PageID(id))
	if err != nil {
		writeError(w, http.StatusNotFound, "no such page")
		return
	}
	writeJSON(w, http.StatusOK, PageDoc{
		ID: int64(p.ID), Name: p.Name, Description: p.Description,
		Category: p.Category, Honeypot: p.Honeypot,
		LikeCount: s.store.LikeCountOfPage(p.ID),
	})
}

func (s *Server) handlePageLikes(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad page id")
		return
	}
	if _, err := s.store.Page(socialnet.PageID(id)); err != nil {
		writeError(w, http.StatusNotFound, "no such page")
		return
	}
	cursor, limit, err := cursorParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	evs, next := s.store.PageEventsPage(socialnet.PageID(id), int(cursor), limit)
	doc := PageLikesDoc{
		Total:  s.store.LikeCountOfPage(socialnet.PageID(id)),
		Cursor: int(cursor), NextCursor: next,
		Likes: make([]LikeDoc, 0, len(evs)),
	}
	for _, ev := range evs {
		doc.Likes = append(doc.Likes, LikeDoc{User: int64(ev.User), At: ev.At.Format(time.RFC3339Nano)})
	}
	writeJSON(w, http.StatusOK, doc)
}

// LikeRequest is the POST /api/page/{id}/likes body: inject one like
// into the live world. At is optional RFC3339 (default: server time).
type LikeRequest struct {
	User int64  `json:"user"`
	At   string `json:"at,omitempty"`
}

// handlePostLike records a like against a served world. This is the
// simulation-control surface (there is no organic user session to act
// through), so it sits behind the admin token like the report tool;
// the crash-recovery smoke test drives it to prove injected likes
// survive a SIGKILL via the durable journal.
func (s *Server) handlePostLike(w http.ResponseWriter, r *http.Request) {
	if !s.adminAuthorized(r) {
		writeError(w, http.StatusUnauthorized, "admin token required")
		return
	}
	if s.readOnly.Load() {
		writeError(w, http.StatusForbidden, "read-only replica: writes go to the leader")
		return
	}
	id, err := pathID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad page id")
		return
	}
	var req LikeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	at := time.Now().UTC()
	if req.At != "" {
		at, err = time.Parse(time.RFC3339, req.At)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad at: %v", err)
			return
		}
		// Normalize to UTC: the WAL record format stores instants, not
		// zones, so a zoned timestamp would render differently before
		// and after a crash-recovery replay.
		at = at.UTC()
	}
	err = s.store.AddLike(socialnet.UserID(req.User), socialnet.PageID(id), at)
	switch {
	case errors.Is(err, socialnet.ErrNoUser), errors.Is(err, socialnet.ErrNoPage):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, socialnet.ErrDuplicateLike):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, socialnet.ErrTerminated):
		writeError(w, http.StatusForbidden, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		// The like is in the in-memory world, but a 201 also promises
		// durability when the store is disk-backed; a failed WAL write
		// or fsync (ENOSPC, EIO) must not be silently acknowledged.
		if derr := s.store.DurabilityErr(); derr != nil {
			writeError(w, http.StatusInsufficientStorage, "like accepted in memory but journal write failed: %v", derr)
			return
		}
		writeJSON(w, http.StatusCreated, LikeDoc{User: req.User, At: at.Format(time.RFC3339Nano)})
	}
}

func (s *Server) handleUser(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad user id")
		return
	}
	u, err := s.store.User(socialnet.UserID(id))
	if err != nil {
		writeError(w, http.StatusNotFound, "no such user")
		return
	}
	writeJSON(w, http.StatusOK, s.userDoc(u))
}

func (s *Server) userDoc(u socialnet.User) UserDoc {
	return UserDoc{
		ID: int64(u.ID), Gender: u.Gender.String(), Age: u.Age.String(),
		Country: u.Country, HomeTown: u.HomeTown, CurrentTown: u.CurrentTown,
		FriendsPublic:   u.FriendsPublic,
		DeclaredFriends: s.store.DeclaredFriendCount(u.ID),
		Status:          u.Status.String(),
	}
}

// handleUsersBatch serves GET /api/users?ids=1,2,3 — up to MaxPageSize
// public profiles in one round trip, for crawlers that would otherwise
// pay one request per liker.
func (s *Server) handleUsersBatch(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("ids")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "missing ids")
		return
	}
	parts := strings.Split(raw, ",")
	if len(parts) > MaxPageSize {
		writeError(w, http.StatusBadRequest, "too many ids (max %d)", MaxPageSize)
		return
	}
	doc := UsersDoc{Users: []UserDoc{}}
	for _, p := range parts {
		id, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad user id %q", p)
			return
		}
		u, err := s.store.User(socialnet.UserID(id))
		if err != nil {
			continue // unknown/deleted profiles are skipped, not fatal
		}
		doc.Users = append(doc.Users, s.userDoc(u))
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleUserFriends(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad user id")
		return
	}
	uid := socialnet.UserID(id)
	if _, err := s.store.User(uid); err != nil {
		writeError(w, http.StatusNotFound, "no such user")
		return
	}
	if !s.store.FriendsVisible(uid) {
		writeError(w, http.StatusForbidden, "friend list is private")
		return
	}
	cursor, limit, err := cursorParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	friends, next := s.store.FriendsPage(uid, cursor, limit)
	doc := UserFriendsDoc{
		Total:  s.store.FriendCount(uid),
		Cursor: cursor, NextCursor: next,
		Friends: make([]int64, 0, len(friends)),
	}
	for _, f := range friends {
		doc.Friends = append(doc.Friends, int64(f))
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleUserLikes(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad user id")
		return
	}
	uid := socialnet.UserID(id)
	if _, err := s.store.User(uid); err != nil {
		writeError(w, http.StatusNotFound, "no such user")
		return
	}
	cursor, limit, err := cursorParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	likes, next := s.store.UserLikesPage(uid, int(cursor), limit)
	doc := UserLikesDoc{
		Total:  s.store.LikeCountOfUser(uid),
		Cursor: int(cursor), NextCursor: next,
		Pages: make([]int64, 0, len(likes)),
	}
	for _, lk := range likes {
		doc.Pages = append(doc.Pages, int64(lk.Page))
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleDirectory(w http.ResponseWriter, r *http.Request) {
	offset, limit, err := paging(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dir := s.store.Directory()
	doc := DirectoryDoc{Total: len(dir), Offset: offset, Users: []int64{}}
	for _, u := range window(dir, offset, limit) {
		doc.Users = append(doc.Users, int64(u))
	}
	writeJSON(w, http.StatusOK, doc)
}

// adminAuthorized gates the admin surface. Constant-time compare: a
// byte-wise early-exit comparison would let a crawler recover the
// token one byte at a time from timing.
func (s *Server) adminAuthorized(r *http.Request) bool {
	got := []byte(r.Header.Get("X-Admin-Token"))
	return s.adminToken != "" && subtle.ConstantTimeCompare(got, []byte(s.adminToken)) == 1
}

func (s *Server) handleAdminReport(w http.ResponseWriter, r *http.Request) {
	if !s.adminAuthorized(r) {
		writeError(w, http.StatusUnauthorized, "admin token required")
		return
	}
	id, err := pathID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad page id")
		return
	}
	rep, err := platform.ReportFor(s.store, socialnet.PageID(id))
	if err != nil {
		writeError(w, http.StatusNotFound, "no such page")
		return
	}
	doc := ReportDoc{
		Page: int64(rep.Page), TotalLikes: rep.TotalLikes,
		GenderCounts:  rep.GenderCounts,
		AgeCounts:     map[string]int{},
		CountryCounts: rep.CountryCounts,
	}
	for i, n := range rep.AgeCounts {
		doc.AgeCounts[socialnet.AgeBracket(i).String()] = n
	}
	writeJSON(w, http.StatusOK, doc)
}
