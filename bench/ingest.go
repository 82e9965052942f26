package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/socialnet"
)

// Served load shape. The write (ingest) and read (replica) rates step
// through a rate grid: a warm-up step, the reference step the
// end-to-end numbers come from, then two capacity steps. Each grid
// brackets the measured capacity knee of its path (see README), so
// *_max_rps does not flap between neighbouring grid points.
var (
	writeGrid = []float64{250, 500, 4000, 8000}
	readGrid  = []float64{250, 500, 3000, 6000}
)

const (
	referenceStep = 1 // index into the rate grids
	// farmShare is the share of ingested likes farm orders deliver.
	farmShare = 0.1
	// replicaWriteRate is the replica workload's background write rate.
	replicaWriteRate = 500
	// proberThink is the verdict prober's think time between requests.
	proberThink = 100 * time.Millisecond
)

// gridSteps lays a rate grid out: warm-up, reference, capacity steps.
func (r *runner) gridSteps(grid []float64) []step {
	steps := make([]step, len(grid))
	for i, rate := range grid {
		d := r.sz.sweep
		switch {
		case i < referenceStep:
			d = r.sz.warm
		case i == referenceStep:
			d = r.sz.seconds
		}
		steps[i] = step{Rate: rate, Dur: d}
	}
	return steps
}

// deploySetups sets the served system up sz.setups times, tearing each
// one down before the next, and keeps the last. It records the set-up
// times and their components.
func (r *runner) deploySetups(follower bool) (*deployment, []time.Duration, error) {
	var d *deployment
	var times, build, open, catchup, boot []time.Duration
	for i := 0; i < r.sz.setups; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, nil, err
			}
			d = nil
			debug.FreeOSMemory()
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("deploy-%d", i))
		start := time.Now()
		var err error
		if d, err = deploy(r.tr, r.t0, dir, r.worldSeed(), r.sz.servedScale, follower); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start))
		build, open, catchup = append(build, d.build), append(open, d.openDurable), append(catchup, d.catchup)
		boot = append(boot, d.bootstrap)
	}
	r.detail("core.build_s", percentile(msList(build), 50)/1e3, "s")
	r.detail("socialnet.open_durable_s", percentile(msList(open), 50)/1e3, "s")
	r.detail("detect.catchup_s", percentile(msList(catchup), 50)/1e3, "s")
	if follower {
		r.detail("socialnet.follower_bootstrap_s", percentile(msList(boot), 50)/1e3, "s")
	}
	return d, times, nil
}

// verdictProbe is one verdict-prober request.
type verdictProbe struct {
	At, Dur time.Duration // offsets from the load start
	OK      bool
}

// runIngest is the leader's write path under farm delivery: one
// connection sends open-loop likes through the rate grid — 90% organic
// (a new active user × ambient page pair), 10% farm orders of 200
// accounts onto one honeypot page stamped inside one 2 h bin — while a
// second connection asks for the verdict of the most recently acked
// farm liker in a closed loop. It is the one workload that exercises
// the WAL group commit, scorer enrollment, and lockstep regrouping
// together. One operation is one like, timed from its due time.
func runIngest(r *runner) error {
	d, setups, err := r.deploySetups(false)
	if err != nil {
		return err
	}
	defer d.close()
	st := d.leader.store
	gen := newLikeGen(r.rng(requestStream), st, farmShare)
	steps := r.gridSteps(writeGrid)
	due, ends := schedule(r.rng(scheduleStream), steps)
	reqs := make([]likeReq, len(due))
	bodies := make([][]byte, len(due))
	for i := range reqs {
		reqs[i] = gen.next()
		bodies[i] = reqs[i].body()
	}
	acked := make([]bool, len(reqs))
	var lastFarm atomic.Int64
	url, writer, prober := d.leader.srv.url, oneConn(), oneConn()
	loop := d.leader.scorer

	runtime.GC()
	start := time.Now()
	phaseEnd := ends[len(ends)-1]
	var probes []verdictProbe
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		r.measureWindow(start, ends[referenceStep-1], ends[referenceStep])
	}()
	go func() {
		defer wg.Done()
		for time.Since(start) < phaseEnd {
			if u := lastFarm.Load(); u != 0 {
				at := time.Since(start)
				code, err := do(r.tr, prober, http.MethodGet, fmt.Sprintf("%s/api/user/%d/fraud", url, u), adminToken, nil)
				probes = append(probes, verdictProbe{At: at, Dur: time.Since(start) - at, OK: err == nil && code == http.StatusOK})
			}
			time.Sleep(proberThink)
		}
	}()
	outs := openLoop(start, due, phaseEnd, func(i int) bool {
		code, err := do(r.tr, writer, http.MethodPost, fmt.Sprintf("%s/api/page/%d/likes", url, reqs[i].Page), adminToken, bodies[i])
		if err != nil || code != http.StatusCreated {
			return false
		}
		acked[i] = true
		if reqs[i].Farm {
			lastFarm.Store(int64(reqs[i].User))
		}
		return true
	})
	wg.Wait()
	if err := d.stopServing(); err != nil {
		return err
	}

	// Correctness: every acknowledged like is in the store, and every
	// acknowledged farm liker has a verdict.
	missing, farmLikers, noVerdict := 0, 0, 0
	for i, ok := range acked {
		if !ok {
			continue
		}
		if !st.Likes(reqs[i].User, reqs[i].Page) {
			missing++
		}
		if reqs[i].Farm {
			farmLikers++
			if _, ok := loop.sc.Verdict(reqs[i].User); !ok {
				noVerdict++
			}
		}
	}
	r.check("ingest.acked_likes_stored", missing == 0, "%d acked likes missing", missing)
	r.check("ingest.farm_likers_scored", noVerdict == 0 && farmLikers > 0, "%d of %d acked farm likes without a verdict", noVerdict, farmLikers)

	failed := 0
	for _, o := range outs {
		if !o.OK {
			failed++
		}
	}
	var verdictMs []float64
	from, to := ends[referenceStep-1], ends[referenceStep]
	for _, p := range probes {
		if !p.OK {
			failed++
		}
		if p.At >= from && p.At < to {
			verdictMs = append(verdictMs, ms(p.Dur))
		}
	}
	r.rec.Attempted, r.rec.Failed = len(outs)+len(probes), failed
	writeMs := latenciesMs(outs, from, to)
	r.endToEnd(setups, writeMs)

	stepRes := summarizeSteps(steps, ends, due, outs)
	r.rec.Steps = map[string][]stepResult{"write": stepRes}
	r.latencyDetail("write", writeMs, 99)
	r.detail("write_max_rps", maxRPS(stepRes), "1/s")
	r.latencyDetail("verdict", verdictMs, 90)
	r.detail("err_frac", float64(failed)/float64(r.rec.Attempted), "1")
	r.detail("load.late_max_ms", lateMaxMs(outs, from, to), "ms")
	tickEvents := r.tickDetail(loop.ticksSnapshot())

	if r.tr != nil {
		// One more tracked-page like makes the lockstep report stale; the
		// next read regroups every sketch.
		q := gen.nextFarm()
		if err := st.AddLike(q.User, q.Page, q.At); err != nil {
			return err
		}
		loop.sc.Tick()
		begin := time.Now()
		r.tr.do("detect.lockstep_groups", spanRef{}, func() { loop.sc.LockstepGroups() })
		r.detail("detect.regroup_ms", ms(time.Since(begin)), "ms")
	}

	// Durability: the reopened journal holds exactly what was acked.
	n := st.Journal().Len()
	if err := st.Close(); err != nil {
		return err
	}
	st, _, err = socialnet.OpenDurable(d.leader.dir, walOptions())
	if err != nil {
		return err
	}
	d.leader.store = st
	r.check("ingest.reopen_journal_len", st.Journal().Len() == n, "journal %d events before close, %d after reopen", n, st.Journal().Len())

	if r.tr != nil {
		p, err := r.probe(st, d.res)
		if err != nil {
			return err
		}
		r.perLayer(p, map[string]float64{"detect.tick_events": tickEvents})
	}
	return d.close()
}

// tickDetail records the live scorer's ticks during the measured
// stretch (all ticks when none fell inside it) and returns the median
// events consumed per tick.
func (r *runner) tickDetail(ticks []tick) float64 {
	var in []tick
	for _, t := range ticks {
		if t.Start >= r.from && t.Start < r.to {
			in = append(in, t)
		}
	}
	if len(in) == 0 {
		in = ticks
	}
	var dur, save, events []float64
	state := 0
	for _, t := range in {
		dur, save = append(dur, ms(t.Dur)), append(save, ms(t.Save))
		events = append(events, float64(t.Events))
		state = t.StateBytes
	}
	r.detail("detect.tick_p50_ms", percentile(dur, 50), "ms")
	r.detail("detect.tick_max_ms", percentile(dur, 100), "ms")
	r.detail("detect.tick_events", percentile(events, 50), "count")
	r.detail("detect.save_ms", percentile(save, 50), "ms")
	r.detail("detect.state_kb", float64(state)/1024, "KB")
	return percentile(events, 50)
}
