package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/socialnet"
)

// The served deployment mirrors cmd/honeypotd's defaults: group-commit
// WAL (every acknowledged like fsynced), a live scorer ticked every 2 s
// with its state saved durably after every tick that consumed events,
// and an http.Server with honeypotd's slow-client timeouts. A follower
// tails the leader over HTTP every followPoll (the replication smoke's
// poll interval) and runs its own scorer. honeypotd's live campaign
// monitor is private to the command and is not mirrored.
const (
	adminToken   = "bench-admin"
	scorerPoll   = 2 * time.Second
	followPoll   = 100 * time.Millisecond
	scorerFile   = "scorer.json"
	drainTimeout = 20 * time.Second
)

func walOptions() socialnet.WALOptions {
	return socialnet.WALOptions{SyncEvery: 1, SyncInterval: socialnet.DefaultSyncInterval}
}

// buildWorld runs the study that builds a world, as honeypotd and
// likefraud crawl do (Run is RunWorld then Finalize), recording the
// core spans. It also returns how long core.NewStudy took.
func buildWorld(tr *tracer, seed int64, scale float64) (*core.Study, *core.Results, time.Duration, error) {
	cfg, err := core.ScaledConfig(seed, scale)
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	var study *core.Study
	tr.do("core.new_study", spanRef{}, func() { study, err = core.NewStudy(cfg) })
	newStudy := time.Since(start)
	if err != nil {
		return nil, nil, 0, err
	}
	tr.do("core.run_world", spanRef{}, func() { err = study.RunWorld() })
	if err != nil {
		return nil, nil, 0, err
	}
	var res *core.Results
	tr.do("core.finalize", spanRef{}, func() { res, err = study.Finalize() })
	if err != nil {
		return nil, nil, 0, err
	}
	return study, res, newStudy, nil
}

// server is one listening HTTP server.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

// serve starts an http.Server on a loopback port with honeypotd's
// timeouts. In a traced run the handler records api spans.
func serve(tr *tracer, h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if tr != nil {
		h = tr.handler(h)
	}
	s := &server{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       15 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for Serve to return.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// tick is one scorer poll that consumed events.
type tick struct {
	Start, Dur, Save   time.Duration
	Events, StateBytes int
}

// scorerLoop is the live fraud scorer: caught up on the whole journal
// at start, then ticked every scorerPoll, its state written durably
// after every tick that consumed events.
type scorerLoop struct {
	sc   *detect.StreamScorer
	path string
	tr   *tracer
	t0   time.Time

	stop, done chan struct{}
	mu         sync.Mutex
	ticks      []tick
	err        error
}

// startScorer builds the scorer, catches it up, saves it, and starts
// the poll loop. catchup is the time the initial drain took.
func startScorer(tr *tracer, t0 time.Time, st *socialnet.Store, dir string) (*scorerLoop, time.Duration, error) {
	l := &scorerLoop{path: filepath.Join(dir, scorerFile), tr: tr, t0: t0, stop: make(chan struct{}), done: make(chan struct{})}
	start := time.Now()
	tr.do("detect.catchup", spanRef{}, func() {
		l.sc = detect.NewStreamScorer(st, detect.StreamScorerConfig{})
		l.sc.Tick()
	})
	catchup := time.Since(start)
	if _, err := l.save(spanRef{}); err != nil {
		return nil, 0, err
	}
	go l.run()
	return l, catchup, nil
}

// save writes the scorer state durably and returns its size.
func (l *scorerLoop) save(parent spanRef) (int, error) {
	var data []byte
	var err error
	l.tr.do("detect.save", parent, func() { data, err = l.sc.MarshalState() })
	if err != nil {
		return 0, err
	}
	l.tr.do("socialnet.write_file_durable", parent, func() { err = socialnet.WriteFileDurable(l.path, data) })
	return len(data), err
}

func (l *scorerLoop) run() {
	defer close(l.done)
	t := time.NewTicker(scorerPoll)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.tick()
		}
	}
}

func (l *scorerLoop) tick() {
	start := time.Now()
	ref, end := l.tr.begin("detect.tick", spanRef{})
	n := l.sc.Tick()
	if n == 0 {
		end()
		return
	}
	saveStart := time.Now()
	size, err := l.save(ref)
	end()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ticks = append(l.ticks, tick{Start: start.Sub(l.t0), Dur: time.Since(start), Save: time.Since(saveStart), Events: n, StateBytes: size})
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("scorer save: %w", err)
	}
}

// close stops the loop, consumes the tail, and saves the state.
func (l *scorerLoop) close() error {
	close(l.stop)
	<-l.done
	l.tick()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

func (l *scorerLoop) ticksSnapshot() []tick {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]tick(nil), l.ticks...)
}

// poll is one follower Poll: when it ended, the offsets it had applied
// by then, how many records it applied, and how many it held back.
type poll struct {
	End, Dur      time.Duration
	Offsets       []uint64
	Applied, Held int
}

// node is one served process: a store, its live scorer, and the HTTP
// server in front of its API.
type node struct {
	dir    string
	store  *socialnet.Store
	fw     *socialnet.FollowerStore // followers only
	scorer *scorerLoop
	srv    *server
}

// deployment is a durable leader and, for the replica workload, one
// bootstrapped follower with its poll loop.
type deployment struct {
	tr      *tracer
	t0      time.Time
	res     *core.Results // the world build's study results
	leader  *node
	replica *node

	pollStop, pollDone chan struct{}
	pollMu             sync.Mutex
	polls              []poll
	pollErr            error

	// Setup timings: the world build, the checkpoint and durable
	// reopen, the leader scorer's catch-up, and the follower bootstrap
	// (snapshot download, reopen, first poll, scorer catch-up).
	build, openDurable, catchup, bootstrap time.Duration
}

// deploy builds the world into dir and serves it; with follower it also
// bootstraps a replica and starts its poll loop.
func deploy(tr *tracer, t0 time.Time, dir string, seed int64, scale float64, follower bool) (d *deployment, err error) {
	d = &deployment{tr: tr, t0: t0}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()
	leaderDir := filepath.Join(dir, "leader")
	start := time.Now()
	var st *socialnet.Store
	tr.do("socialnet.open_or_create", spanRef{}, func() {
		st, _, err = socialnet.OpenOrCreate(leaderDir, walOptions(), func() (*socialnet.Store, error) {
			buildStart := time.Now()
			study, res, _, err := buildWorld(tr, seed, scale)
			if err != nil {
				return nil, err
			}
			d.build = time.Since(buildStart)
			d.res = res
			return study.Store(), nil
		})
	})
	if err != nil {
		return d, err
	}
	d.openDurable = time.Since(start) - d.build
	d.leader = &node{dir: leaderDir, store: st}
	if d.leader.scorer, d.catchup, err = startScorer(tr, t0, st, leaderDir); err != nil {
		return d, err
	}
	leaderAPI := api.NewServer(st, adminToken)
	leaderAPI.SetFraudScorer(d.leader.scorer.sc)
	leaderAPI.SetReplOffsets(func() []uint64 { return st.ReplOffsets(nil) })
	if d.leader.srv, err = serve(tr, leaderAPI); err != nil {
		return d, err
	}
	if !follower {
		return d, nil
	}

	start = time.Now()
	var hc *http.Client
	if tr != nil {
		hc = &http.Client{Transport: tr.transport("socialnet.repl_fetch.", http.DefaultTransport)}
	}
	src := api.NewReplHTTPSource(d.leader.srv.url, adminToken, hc)
	replicaDir := filepath.Join(dir, "replica")
	ctx := context.Background()
	var fw *socialnet.FollowerStore
	tr.do("socialnet.follower_bootstrap", spanRef{}, func() {
		fw, _, err = socialnet.OpenFollower(ctx, replicaDir, src, socialnet.FollowerOptions{WAL: walOptions()})
		if err != nil {
			return
		}
		d.replica = &node{dir: replicaDir, store: fw.Store(), fw: fw}
		_, err = fw.Poll(ctx)
	})
	if err != nil {
		return d, fmt.Errorf("follower: %w", err)
	}
	if d.replica.scorer, _, err = startScorer(tr, t0, fw.Store(), replicaDir); err != nil {
		return d, err
	}
	replicaAPI := api.NewServer(fw.Store(), adminToken)
	replicaAPI.SetFraudScorer(d.replica.scorer.sc)
	replicaAPI.SetReadOnly(true)
	replicaAPI.SetReplOffsets(func() []uint64 { return fw.Offsets(nil) })
	if d.replica.srv, err = serve(tr, replicaAPI); err != nil {
		return d, err
	}
	d.bootstrap = time.Since(start)
	d.pollStop, d.pollDone = make(chan struct{}), make(chan struct{})
	go d.pollLoop()
	return d, nil
}

// pollLoop tails the leader every followPoll until stopped.
func (d *deployment) pollLoop() {
	defer close(d.pollDone)
	t := time.NewTicker(followPoll)
	defer t.Stop()
	for {
		select {
		case <-d.pollStop:
			return
		case <-t.C:
			if err := d.pollOnce(); err != nil {
				d.pollMu.Lock()
				if d.pollErr == nil {
					d.pollErr = err
				}
				d.pollMu.Unlock()
			}
		}
	}
}

func (d *deployment) pollOnce() error {
	fw := d.replica.fw
	start := time.Now()
	ref, end := d.tr.begin("socialnet.repl_poll", spanRef{})
	n, err := fw.Poll(withSpan(context.Background(), ref))
	end()
	if err != nil {
		return err
	}
	p := poll{End: time.Since(d.t0), Dur: time.Since(start), Offsets: fw.Offsets(nil), Applied: n, Held: fw.Held()}
	d.pollMu.Lock()
	d.polls = append(d.polls, p)
	d.pollMu.Unlock()
	return nil
}

// stopPolling stops the poll loop and returns the first poll error.
func (d *deployment) stopPolling() error {
	if d.pollStop == nil {
		return nil
	}
	close(d.pollStop)
	<-d.pollDone
	d.pollStop = nil
	d.pollMu.Lock()
	defer d.pollMu.Unlock()
	return d.pollErr
}

// drain polls the follower until it holds the leader's whole journal.
func (d *deployment) drain() error {
	deadline := time.Now().Add(drainTimeout)
	for d.replica.store.Journal().Len() != d.leader.store.Journal().Len() {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower holds %d journal events after %s, leader %d",
				d.replica.store.Journal().Len(), drainTimeout, d.leader.store.Journal().Len())
		}
		if err := d.pollOnce(); err != nil {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// stopServing stops polling, the servers, and the scorers (each
// consumes its tail and saves), leaving the stores open.
func (d *deployment) stopServing() error {
	err := d.stopPolling()
	for _, n := range []*node{d.replica, d.leader} {
		if n == nil {
			continue
		}
		if n.srv != nil {
			err = errors.Join(err, n.srv.close())
			n.srv = nil
		}
		if n.scorer != nil {
			err = errors.Join(err, n.scorer.close())
			n.scorer = nil
		}
	}
	return err
}

// close stops everything and closes the stores.
func (d *deployment) close() error {
	err := d.stopServing()
	for _, n := range []*node{d.replica, d.leader} {
		if n != nil && n.store != nil {
			err = errors.Join(err, n.store.Close())
		}
	}
	return err
}

// removeAll deletes a directory tree, reporting failures.
func removeAll(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("remove %s: %w", dir, err)
	}
	return nil
}
