package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// ack is one acknowledged write on the leader: when the 201 arrived
// (offset from t0) and the leader's fsynced offsets read right after.
type ack struct {
	At     time.Duration
	Target []uint64
}

// runReplica is reads beside writes on a read replica: one connection
// writes organic likes to the leader at a constant rate while a second
// sends the crawler's read mix to the follower through the rate grid.
// It exercises segment shipping, follower apply, and the read handlers
// under write contention; with no farm likes and no fraud reads the
// detector stays idle, so detector changes must leave it unchanged. One
// operation is one read, timed from its due time.
func runReplica(r *runner) error {
	d, setups, err := r.deploySetups(true)
	if err != nil {
		return err
	}
	defer d.close()
	leader := d.leader.store
	reads, err := newReadGen(r.rng(requestStream), leader)
	if err != nil {
		return err
	}
	writes := newLikeGen(r.rng(writeStream), leader, 0)
	steps := r.gridSteps(readGrid)
	var total time.Duration
	for _, s := range steps {
		total += s.Dur
	}
	sched := r.rng(scheduleStream)
	rdue, ends := schedule(sched, steps)
	wdue, _ := schedule(sched, []step{{Rate: replicaWriteRate, Dur: total}})
	paths := make([]string, len(rdue))
	for i := range paths {
		paths[i] = reads.next()
	}
	wreqs := make([]likeReq, len(wdue))
	bodies := make([][]byte, len(wdue))
	for i := range wreqs {
		wreqs[i] = writes.next()
		bodies[i] = wreqs[i].body()
	}
	acked := make([]bool, len(wreqs))
	var acks []ack
	reader, writer := oneConn(), oneConn()
	leaderURL, replicaURL := d.leader.srv.url, d.replica.srv.url
	loop := d.leader.scorer

	runtime.GC()
	start := time.Now()
	phaseEnd := ends[len(ends)-1]
	var wouts []outcome
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		r.measureWindow(start, ends[referenceStep-1], ends[referenceStep])
	}()
	go func() {
		defer wg.Done()
		wouts = openLoop(start, wdue, phaseEnd, func(i int) bool {
			code, err := do(r.tr, writer, http.MethodPost, fmt.Sprintf("%s/api/page/%d/likes", leaderURL, wreqs[i].Page), adminToken, bodies[i])
			if err != nil || code != http.StatusCreated {
				return false
			}
			acked[i] = true
			acks = append(acks, ack{At: r.since(), Target: leader.ReplOffsets(nil)})
			return true
		})
	}()
	routs := openLoop(start, rdue, phaseEnd, func(i int) bool {
		code, err := do(r.tr, reader, http.MethodGet, replicaURL+paths[i], "", nil)
		return err == nil && code == http.StatusOK
	})
	wg.Wait()

	// Correctness: acked writes are on the leader, and once writes stop
	// the follower drains to the leader's journal and page counts.
	pollErr := d.stopPolling()
	r.check("replica.poll", pollErr == nil, "%v", pollErr)
	missing := 0
	for i, ok := range acked {
		if ok && !leader.Likes(wreqs[i].User, wreqs[i].Page) {
			missing++
		}
	}
	r.check("replica.acked_likes_stored", missing == 0, "%d acked likes missing on the leader", missing)
	drainErr := d.drain()
	r.check("replica.follower_drained", drainErr == nil, "%v", drainErr)
	diff := 0
	for _, p := range leader.HoneypotPages() {
		if leader.LikeCountOfPage(p) != d.replica.store.LikeCountOfPage(p) {
			diff++
		}
	}
	r.check("replica.honeypot_counts_match", diff == 0, "%d honeypot pages differ", diff)
	if err := d.stopServing(); err != nil {
		return err
	}

	failed := 0
	for _, outs := range [][]outcome{routs, wouts} {
		for _, o := range outs {
			if !o.OK {
				failed++
			}
		}
	}
	r.rec.Attempted, r.rec.Failed = len(routs)+len(wouts), failed
	from, to := ends[referenceStep-1], ends[referenceStep]
	readMs := latenciesMs(routs, from, to)
	r.endToEnd(setups, readMs)

	stepRes := summarizeSteps(steps, ends, rdue, routs)
	r.rec.Steps = map[string][]stepResult{"read": stepRes}
	r.latencyDetail("read", readMs, 99)
	r.detail("read_max_rps", maxRPS(stepRes), "1/s")
	r.latencyDetail("write", latenciesMs(wouts, from, to), 99)
	r.latencyDetail("repl_lag", replLagMs(acks, d.polls, start.Sub(r.t0)+from, start.Sub(r.t0)+to), 99)
	r.detail("err_frac", float64(failed)/float64(r.rec.Attempted), "1")
	r.detail("load.late_max_ms", lateMaxMs(routs, from, to), "ms")
	var pollMs, applied []float64
	held := 0
	for _, p := range d.polls {
		if p.End >= r.from && p.End < r.to {
			pollMs = append(pollMs, ms(p.Dur))
			applied = append(applied, float64(p.Applied))
			held = max(held, p.Held)
		}
	}
	r.detail("socialnet.repl_poll_p50_ms", percentile(pollMs, 50), "ms")
	r.detail("socialnet.repl_poll_p99_ms", percentile(pollMs, 99), "ms")
	r.detail("socialnet.repl_records_per_poll", mean(applied), "count")
	r.detail("socialnet.repl_held", float64(held), "count")
	tickEvents := r.tickDetail(loop.ticksSnapshot())

	if r.tr != nil {
		p, err := r.probe(leader, d.res)
		if err != nil {
			return err
		}
		r.perLayer(p, map[string]float64{
			"detect.tick_events":              tickEvents,
			"socialnet.repl_records_per_poll": mean(applied),
			"socialnet.repl_held":             float64(held),
		})
	}
	return d.close()
}

// replLagMs returns, for each write acked in [from, to), the time from
// its ack to the end of the first follower poll whose applied offsets
// cover the leader offsets read right after the ack. Acks and polls are
// both in time order and the targets only grow, so one pass suffices.
func replLagMs(acks []ack, polls []poll, from, to time.Duration) []float64 {
	var out []float64
	j := 0
	for _, a := range acks {
		for j < len(polls) && (polls[j].End < a.At || !covers(polls[j].Offsets, a.Target)) {
			j++
		}
		if j == len(polls) {
			break
		}
		if a.At >= from && a.At < to {
			out = append(out, ms(polls[j].End-a.At))
		}
	}
	return out
}

func covers(have, want []uint64) bool {
	if len(have) < len(want) {
		return false
	}
	for i, w := range want {
		if have[i] < w {
			return false
		}
	}
	return true
}
