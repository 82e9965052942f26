package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A handler that stalls must show up in the latency of every request
// queued behind it: open-loop latency runs from the due time, not from
// when the generator got to send.
func TestOpenLoopCountsQueueingBehindAStall(t *testing.T) {
	const stallAt, stall, gap = 5, 50 * time.Millisecond, 2 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt+1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	hc := oneConn()
	due := make([]time.Duration, 40)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	outs := openLoop(time.Now(), due, time.Second, func(int) bool {
		code, err := do(nil, hc, http.MethodGet, srv.URL, "", nil)
		return err == nil && code == http.StatusOK
	})
	if len(outs) != len(due) {
		t.Fatalf("sent %d of %d requests", len(outs), len(due))
	}
	if got := outs[stallAt].latency(); got < stall {
		t.Errorf("stalled request latency %v, want >= %v", got, stall)
	}
	// Request stallAt+k was due k gaps after the stalled one but could
	// only be sent once it finished: its latency includes the rest of
	// the stall.
	for k := 1; k < 10; k++ {
		want := stall - time.Duration(k)*gap
		if got := outs[stallAt+k].latency(); got < want {
			t.Errorf("request %d queued behind the stall: latency %v, want >= %v", stallAt+k, got, want)
		}
		if late := outs[stallAt+k].Sent - outs[stallAt+k].Due; late < want-5*time.Millisecond {
			t.Errorf("request %d sent %v late, want about %v", stallAt+k, late, want)
		}
	}
	if got := outs[1].latency(); got > 20*time.Millisecond {
		t.Errorf("unqueued request latency %v; the generator should send on time", got)
	}
}

func TestSummarizeStepsBacklog(t *testing.T) {
	steps := []step{{Rate: 10, Dur: time.Second}, {Rate: 10, Dur: time.Second}}
	ends := []time.Duration{time.Second, 2 * time.Second}
	due := []time.Duration{0, 500 * time.Millisecond, 900 * time.Millisecond, 1500 * time.Millisecond}
	// The third arrival of step one went out after the step ended, and
	// the generator never reached step two's arrival.
	outs := []outcome{
		{Due: 0, Sent: 0, Done: 10 * time.Millisecond, OK: true},
		{Due: 500 * time.Millisecond, Sent: 500 * time.Millisecond, Done: 520 * time.Millisecond, OK: false},
		{Due: 900 * time.Millisecond, Sent: 1100 * time.Millisecond, Done: 1200 * time.Millisecond, OK: true},
	}
	res := summarizeSteps(steps, ends, due, outs)
	if res[0].N != 3 || res[0].Failed != 1 || res[0].BacklogS != 0.1 || res[0].P99Ms != 300 {
		t.Errorf("step 1: %+v", res[0])
	}
	if res[1].N != 0 || res[1].BacklogS != 0.1 {
		t.Errorf("step 2: %+v", res[1])
	}
}
