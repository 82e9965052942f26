package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/socialnet"
)

// step is one fixed-rate stretch of an open-loop schedule.
type step struct {
	Rate float64       // arrivals per second
	Dur  time.Duration // length of the step
}

// schedule draws Poisson arrival times for consecutive steps, as
// offsets from the start of the load phase, and returns them with the
// offset at which each step ends.
func schedule(rng *rand.Rand, steps []step) (due []time.Duration, ends []time.Duration) {
	var t time.Duration
	for _, s := range steps {
		end := t + s.Dur
		for at := t + time.Duration(rng.ExpFloat64()/s.Rate*1e9); at < end; at += time.Duration(rng.ExpFloat64() / s.Rate * 1e9) {
			due = append(due, at)
		}
		t = end
		ends = append(ends, end)
	}
	return due, ends
}

// outcome is one open-loop request, timed as offsets from the phase
// start.
type outcome struct {
	Due, Sent, Done time.Duration
	OK              bool
}

// latency is the request's latency from its due time, so the wait a
// slow earlier request imposes on it counts.
func (o outcome) latency() time.Duration { return o.Done - o.Due }

// openLoop sends request i when due[i] arrives, one at a time on the
// calling goroutine (one connection). A request that comes due while an
// earlier one is still in flight is sent as soon as that one finishes,
// and its latency includes the wait. The loop stops at the phase end,
// leaving any still-unsent arrivals as backlog.
func openLoop(start time.Time, due []time.Duration, end time.Duration, send func(i int) bool) []outcome {
	out := make([]outcome, 0, len(due))
	for i, d := range due {
		if d >= end {
			break
		}
		sleepUntil(start.Add(d))
		sent := time.Since(start)
		if sent >= end {
			break
		}
		ok := send(i)
		out = append(out, outcome{Due: d, Sent: sent, Done: time.Since(start), OK: ok})
	}
	return out
}

// sleepUntil blocks until t in a nanosleep system call. The runtime's
// own timers wake an otherwise idle process on a 1 ms grid, which would
// add up to a millisecond of generator lateness to every sub-millisecond
// gap between arrivals; the kernel timer wakes within its ~50 µs slack.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// summarizeSteps reports each step's latency, failures, and the backlog
// the generator carried at the step's end: arrivals due in the step but
// not yet sent when it ended, in seconds of arrivals.
func summarizeSteps(steps []step, ends []time.Duration, due []time.Duration, outs []outcome) []stepResult {
	res := make([]stepResult, len(steps))
	for k, s := range steps {
		from := time.Duration(0)
		if k > 0 {
			from = ends[k-1]
		}
		var lat []float64
		r := stepResult{Rate: s.Rate}
		for _, o := range outs {
			if o.Due < from || o.Due >= ends[k] {
				continue
			}
			r.N++
			if !o.OK {
				r.Failed++
			}
			lat = append(lat, float64(o.latency())/1e6)
		}
		unsent := 0
		for i, d := range due {
			if d < from || d >= ends[k] {
				continue
			}
			if i >= len(outs) || outs[i].Sent >= ends[k] {
				unsent++
			}
		}
		r.P50Ms, r.P99Ms = percentile(lat, 50), percentile(lat, 99)
		r.BacklogS = float64(unsent) / s.Rate
		res[k] = r
	}
	return res
}

// lateMaxMs is the longest a request waited past its due time before
// the generator sent it, over the requests due in [from, to).
func lateMaxMs(outs []outcome, from, to time.Duration) float64 {
	m := time.Duration(0)
	for _, o := range outs {
		if o.Due >= from && o.Due < to && o.Sent-o.Due > m {
			m = o.Sent - o.Due
		}
	}
	return float64(m) / 1e6
}

// latenciesMs returns the latencies of the outcomes due in [from, to).
func latenciesMs(outs []outcome, from, to time.Duration) []float64 {
	var lat []float64
	for _, o := range outs {
		if o.Due >= from && o.Due < to {
			lat = append(lat, float64(o.latency())/1e6)
		}
	}
	return lat
}

// oneConn returns a client that holds at most one connection: every
// load role (writer, reader, prober) is one connection.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// do sends one request and drains the response, recording a load span
// whose handler span becomes its child. It reports the status code.
func do(tr *tracer, hc *http.Client, method, url, token string, body []byte) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if token != "" {
		req.Header.Set("X-Admin-Token", token)
	}
	var end func()
	if tr != nil {
		var ref spanRef
		ref, end = tr.begin("load."+route(req), spanRef{})
		req.Header.Set(spanHeader, formatSpanHeader(ref))
	}
	resp, err := hc.Do(req)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if end != nil {
		end()
	}
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// likeReq is one generated like: who, where, and the virtual-clock
// instant stamped on it.
type likeReq struct {
	User socialnet.UserID
	Page socialnet.PageID
	At   time.Time
	Farm bool
}

func (r likeReq) body() []byte {
	b, _ := json.Marshal(api.LikeRequest{User: int64(r.User), At: r.At.Format(time.RFC3339)})
	return b
}

// Farm orders: a farm delivers orderSize likes onto one honeypot page
// with every like stamped inside one 2 h bin — the burst shape of the
// paper's §4 figures (hundreds of likes within single 2 h windows).
const (
	orderSize = 200
	binWidth  = 2 * time.Hour
	// virtualStep is how far the virtual clock advances per generated
	// like; stamps come from it, never from the wall clock, so the
	// detector's work depends only on the inputs.
	virtualStep = 10 * time.Second
)

// likeGen generates likes that the world accepts: every (user, page)
// pair is new, and every user is active.
type likeGen struct {
	rng      *rand.Rand
	st       *socialnet.Store
	organic  []socialnet.UserID // active organic accounts
	farm     []socialnet.UserID // active farm accounts
	ambient  []socialnet.PageID // non-honeypot pages
	honeypot []socialnet.PageID
	farmFrac float64
	clock    time.Time
	used     map[[2]int64]bool

	order struct {
		page  socialnet.PageID
		bin   time.Time
		users []socialnet.UserID
		k     int
	}
}

// newLikeGen reads the world's accounts and pages once. farmFrac is the
// share of likes that farm orders deliver.
func newLikeGen(rng *rand.Rand, st *socialnet.Store, farmFrac float64) *likeGen {
	g := &likeGen{rng: rng, st: st, farmFrac: farmFrac, used: map[[2]int64]bool{}}
	g.organic = st.UsersWhere(func(u *socialnet.User) bool {
		return u.Status == socialnet.StatusActive && u.Kind == socialnet.KindOrganic
	})
	g.farm = st.UsersWhere(func(u *socialnet.User) bool {
		return u.Status == socialnet.StatusActive && u.Kind != socialnet.KindOrganic
	})
	g.honeypot = st.HoneypotPages()
	hp := map[socialnet.PageID]bool{}
	for _, p := range g.honeypot {
		hp[p] = true
	}
	for _, p := range st.Pages() {
		if !hp[p] {
			g.ambient = append(g.ambient, p)
		}
	}
	// The virtual clock starts a day after the world's last event, on a
	// bin boundary, so every generated like is newer than the world.
	var last time.Time
	st.Journal().Scan(func(ev socialnet.LikeEvent) {
		if ev.At.After(last) {
			last = ev.At
		}
	})
	g.clock = last.Add(24 * time.Hour).Truncate(binWidth)
	return g
}

func (g *likeGen) fresh(u socialnet.UserID, p socialnet.PageID) bool {
	k := [2]int64{int64(u), int64(p)}
	if g.used[k] || g.st.Likes(u, p) {
		return false
	}
	g.used[k] = true
	return true
}

// next returns the next like of the stream.
func (g *likeGen) next() likeReq {
	g.clock = g.clock.Add(virtualStep)
	if g.farmFrac > 0 && g.rng.Float64() < g.farmFrac {
		return g.nextFarm()
	}
	for {
		u := g.organic[g.rng.Intn(len(g.organic))]
		p := g.ambient[g.rng.Intn(len(g.ambient))]
		if g.fresh(u, p) {
			return likeReq{User: u, Page: p, At: g.clock}
		}
	}
}

// nextFarm returns the next like of the current farm order, placing a
// new order (page, bin, accounts) when the last one is delivered. Orders
// reuse the farm's account pool, so the same accounts co-like several
// pages — the lockstep pattern the detector looks for.
func (g *likeGen) nextFarm() likeReq {
	o := &g.order
	if o.k == len(o.users) {
		o.page = g.honeypot[g.rng.Intn(len(g.honeypot))]
		o.bin = g.clock.Truncate(binWidth)
		o.users, o.k = o.users[:0], 0
		for _, pool := range [][]socialnet.UserID{g.farm, g.organic} {
			for _, i := range g.rng.Perm(len(pool)) {
				if len(o.users) == orderSize {
					break
				}
				if g.fresh(pool[i], o.page) {
					o.users = append(o.users, pool[i])
				}
			}
		}
	}
	u := o.users[o.k]
	at := o.bin.Add(time.Duration(o.k) * (binWidth / orderSize))
	o.k++
	return likeReq{User: u, Page: o.page, At: at, Farm: true}
}

// readGen generates the crawler's read mix against a replica: like
// windows of honeypot pages, batched liker profiles, and likers' page
// and friend lists. Every generated read succeeds on the world.
type readGen struct {
	rng    *rand.Rand
	pages  []socialnet.PageID // honeypot pages with likes
	likers map[socialnet.PageID][]socialnet.UserID
	all    []socialnet.UserID // every honeypot liker once
	public []socialnet.UserID // those whose friend lists are public
}

func newReadGen(rng *rand.Rand, st *socialnet.Store) (*readGen, error) {
	g := &readGen{rng: rng, likers: map[socialnet.PageID][]socialnet.UserID{}}
	seen := map[socialnet.UserID]bool{}
	for _, p := range st.HoneypotPages() {
		likes := st.LikesOfPage(p)
		if len(likes) == 0 {
			continue
		}
		g.pages = append(g.pages, p)
		for _, lk := range likes {
			g.likers[p] = append(g.likers[p], lk.User)
			if !seen[lk.User] {
				seen[lk.User] = true
				g.all = append(g.all, lk.User)
				if st.FriendsVisible(lk.User) {
					g.public = append(g.public, lk.User)
				}
			}
		}
	}
	if len(g.pages) == 0 || len(g.public) == 0 {
		return nil, fmt.Errorf("world has %d liked honeypot pages and %d likers with public friend lists; the read mix needs both", len(g.pages), len(g.public))
	}
	return g, nil
}

// next returns the path of the next read.
func (g *readGen) next() string {
	x := g.rng.Float64()
	p := g.pages[g.rng.Intn(len(g.pages))]
	likers := g.likers[p]
	switch {
	case x < 0.40:
		return fmt.Sprintf("/api/page/%d/likes?cursor=%d&limit=100", p, g.rng.Intn(len(likers)))
	case x < 0.70:
		from := g.rng.Intn(len(likers))
		var b bytes.Buffer
		for i := 0; i < 50 && i < len(likers); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprint(&b, likers[(from+i)%len(likers)])
		}
		return "/api/users?ids=" + b.String()
	case x < 0.85:
		return fmt.Sprintf("/api/user/%d/likes?cursor=0&limit=100", g.all[g.rng.Intn(len(g.all))])
	default:
		return fmt.Sprintf("/api/user/%d/friends?cursor=0&limit=100", g.public[g.rng.Intn(len(g.public))])
	}
}
