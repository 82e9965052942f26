package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Names are
// "<layer>.<operation>", where the layer is one of the repository's
// modules (core, socialnet, detect, api, crawler, analysis), the
// benchmark's own load generator (load), or the Go runtime (proc).
type span struct {
	Trace  uint64 `json:"trace_id"`
	ID     uint64 `json:"span_id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the response size an api span wrote; it is a count
	// attached to the span, not part of the spans file.
	Bytes int64 `json:"-"`
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRef names an open span so calls it makes can record children.
// The zero value means "no parent": the next span starts a new trace.
type spanRef struct{ trace, id uint64 }

// tracer records spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, and the benchmark installs
// none of its wrappers.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under parent and returns its reference and the
// function that closes it.
func (t *tracer) begin(name string, parent spanRef) (spanRef, func()) {
	ref, end := t.beginBytes(name, parent)
	return ref, func() { end(0) }
}

// beginBytes is begin for spans that report a byte count when closed.
func (t *tracer) beginBytes(name string, parent spanRef) (spanRef, func(bytes int64)) {
	if t == nil {
		return spanRef{}, func(int64) {}
	}
	id := t.ids.Add(1)
	ref := spanRef{trace: parent.trace, id: id}
	if ref.trace == 0 {
		ref.trace = id
	}
	s := span{Trace: ref.trace, ID: id, Parent: parent.id, Name: name, Start: t.now()}
	return ref, func(bytes int64) {
		s.End = t.now()
		s.Bytes = bytes
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent spanRef, fn func()) {
	_, end := t.begin(name, parent)
	fn()
	end()
}

// snapshot returns the spans recorded so far, ordered by start.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// spanHeader carries the client span across an HTTP request, so the
// server's handler span joins the client's trace as its child.
const spanHeader = "X-Bench-Span"

func formatSpanHeader(ref spanRef) string {
	return strconv.FormatUint(ref.trace, 10) + "-" + strconv.FormatUint(ref.id, 10)
}

func parseSpanHeader(v string) spanRef {
	a, b, ok := strings.Cut(v, "-")
	if !ok {
		return spanRef{}
	}
	tr, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{trace: tr, id: id}
}

// route names the API route a request targets, for span names and
// per-route metrics.
func route(r *http.Request) string {
	parts := strings.Split(strings.Trim(strings.TrimPrefix(r.URL.Path, "/api/"), "/"), "/")
	switch {
	case parts[0] == "page" && len(parts) == 3 && parts[2] == "likes" && r.Method == http.MethodPost:
		return "post_like"
	case parts[0] == "page" && len(parts) == 3:
		return "page_" + parts[2]
	case parts[0] == "page":
		return "page"
	case parts[0] == "user" && len(parts) == 3:
		return "user_" + parts[2]
	case parts[0] == "repl" && len(parts) >= 2:
		return "repl_" + parts[1]
	}
	return parts[0]
}

// handler wraps an API server so every request records an api span,
// parented to the client span named in the request header.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, end := t.beginBytes("api."+route(r), parseSpanHeader(r.Header.Get(spanHeader)))
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		end(cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// transport wraps an http.RoundTripper so each request records a client
// span named prefix+route, parented to the span in the request context,
// and closed when the response body is drained or closed.
func (t *tracer) transport(prefix string, base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		ref, end := t.begin(prefix+route(req), spanFrom(req.Context()))
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, formatSpanHeader(ref))
		resp, err := base.RoundTrip(req)
		if err != nil {
			end()
			return nil, err
		}
		resp.Body = &endOnClose{ReadCloser: resp.Body, end: end}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.end)
	}
	return n, err
}

func (b *endOnClose) Close() error {
	b.once.Do(b.end)
	return b.ReadCloser.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) []time.Duration {
	idx := make(map[uint64]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	children := make(map[int][]int)
	for i, s := range spans {
		if p, ok := idx[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		for k, v := range ivs {
			switch {
			case k == 0:
				curA, curB = v.a, v.b
			case v.a > curB:
				covered += curB - curA
				curA, curB = v.a, v.b
			case v.b > curB:
				curB = v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerSelf sums self time and counts spans per layer, over the spans
// that start inside [from, to).
func layerSelf(spans []span, self []time.Duration, from, to time.Duration) (map[string]time.Duration, map[string]int) {
	sum := map[string]time.Duration{}
	n := map[string]int{}
	for i, s := range spans {
		if s.Start < int64(from) || s.Start >= int64(to) {
			continue
		}
		sum[s.layer()] += self[i]
		n[s.layer()]++
	}
	return sum, n
}

// spansNamed returns the durations, in milliseconds, of the spans whose
// name is name or starts with name+".".
func spansNamed(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name || strings.HasPrefix(s.Name, name+".") {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// printLayerReport writes each layer's span count and self time.
func printLayerReport(w io.Writer, spans []span) {
	self := selfTimes(spans)
	sum, n := layerSelf(spans, self, 0, 1<<62)
	layers := make([]string, 0, len(sum))
	for l := range sum {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "  %-10s %8s %12s\n", "layer", "spans", "self_ms")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %8d %12.1f\n", l, n[l], float64(sum[l])/1e6)
	}
}
