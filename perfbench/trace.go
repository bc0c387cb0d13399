package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records spans from the benchmark's own code around each call
// into a layer: the client request, the router's and each worker's
// Handler().ServeHTTP (reached by wrapping the handlers), and the direct
// library calls (Engine.Run, Query.Resolve, the encoders, open/load/apply).
// Spans are kept in memory and reduced at the end of the run.
//
// A span's self time is its duration minus the part its children cover.
// Where children of one span run concurrently (a router fanning out to two
// workers), each instant is split evenly among the deepest spans active in
// it, so the self times of one request always add up to its client span.

// spanHeader carries the parent span ID across a loopback HTTP hop.
const spanHeader = "X-Perfbench-Span"

type span struct {
	id, parent int64
	name       string
	start, end time.Duration // since the tracer's epoch
	// busy > 0 marks a sparse leaf: the span covers only busy worth of its
	// interval (the per-pair encode calls of one join, summed), which is
	// carved out of its parent's self time.
	busy time.Duration
}

type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanKey struct{}

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// begin allocates a span ID and returns it with the start time.
func (t *tracer) begin() (int64, time.Duration) { return t.nextID.Add(1), t.now() }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// finish records a span that began at start.
func (t *tracer) finish(id, parent int64, name string, start time.Duration) {
	t.record(span{id: id, parent: parent, name: name, start: start, end: t.now()})
}

// wrapHandler records a span named name around every request h serves that
// carries a parent span ID in spanHeader (untraced requests pass straight
// through), and puts its own ID in the request context for the router's
// outgoing sub-requests.
func (t *tracer) wrapHandler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		id, start := t.begin()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.finish(id, parent, name, start)
	})
}

// transport links outgoing router sub-requests to the router span in their
// context, and hands each worker response's summary line to onSummary.
type transport struct {
	base      http.RoundTripper
	onSummary func(line []byte)
}

func (tp *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(int64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	resp, err := tp.base.RoundTrip(req)
	if err == nil && tp.onSummary != nil {
		resp.Body = &summaryTap{ReadCloser: resp.Body, fn: tp.onSummary}
	}
	return resp, err
}

// summaryTap passes a worker's NDJSON stream through unchanged while
// watching for its summary line.
type summaryTap struct {
	io.ReadCloser
	fn   func([]byte)
	line []byte
}

var summaryPrefix = []byte(`{"summary":`)

func (s *summaryTap) Read(p []byte) (int, error) {
	n, err := s.ReadCloser.Read(p)
	for _, b := range p[:n] {
		if b == '\n' {
			if bytes.HasPrefix(s.line, summaryPrefix) {
				s.fn(s.line)
			}
			s.line = s.line[:0]
			continue
		}
		if len(s.line) < 4096 {
			s.line = append(s.line, b)
		}
	}
	return n, err
}

// writeSpans writes every recorded span as one NDJSON line (times in
// microseconds since the tracer started).
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	t.mu.Lock()
	for _, s := range t.spans {
		rec := map[string]any{"id": s.id, "parent": s.parent, "name": s.name, "start_us": us(s.start), "end_us": us(s.end)}
		if s.busy > 0 {
			rec["busy_us"] = us(s.busy)
		}
		if err = enc.Encode(rec); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTimes reduces the recorded spans: for every root span name (one per
// operation type) it returns the number of roots, their mean duration, and
// the mean self time per root of every span name in their trees.
type selfTable struct {
	roots int
	total time.Duration
	self  map[string]time.Duration
}

func (t *tracer) selfTimes() map[string]*selfTable {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]int{}
	byID := map[int64]int{}
	for i, s := range spans {
		byID[s.id] = i
	}
	var roots []int
	for i, s := range spans {
		if _, ok := byID[s.parent]; ok && s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	out := map[string]*selfTable{}
	for _, ri := range roots {
		root := spans[ri]
		tab := out[root.name]
		if tab == nil {
			tab = &selfTable{self: map[string]time.Duration{}}
			out[root.name] = tab
		}
		tab.roots++
		tab.total += root.end - root.start
		attribute(spans, children, ri, tab.self)
	}
	return out
}

// attribute splits one tree's root interval among its spans (see above).
func attribute(spans []span, children map[int64][]int, root int, self map[string]time.Duration) {
	type iv struct {
		idx        int
		start, end time.Duration
		parent     int // index into tree, -1 for the root
	}
	var tree []iv
	var sparse []iv
	var walk func(i, parent int, lo, hi time.Duration)
	walk = func(i, parent int, lo, hi time.Duration) {
		s := spans[i]
		st, en := max(s.start, lo), min(s.end, hi)
		if en < st {
			en = st
		}
		if s.busy > 0 {
			sparse = append(sparse, iv{i, st, en, parent})
			return
		}
		me := len(tree)
		tree = append(tree, iv{i, st, en, parent})
		for _, c := range children[s.id] {
			walk(c, me, st, en)
		}
	}
	walk(root, -1, spans[root].start, spans[root].end)

	var cuts []time.Duration
	for _, v := range tree {
		cuts = append(cuts, v.start, v.end)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	share := make([]time.Duration, len(tree))
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		if b <= a {
			continue
		}
		active := make([]bool, len(tree))
		for i, v := range tree {
			active[i] = v.start <= a && b <= v.end
		}
		// A span is a leaf in this instant if none of its children is active.
		leaf := append([]bool(nil), active...)
		for i, v := range tree {
			if active[i] && v.parent >= 0 {
				leaf[v.parent] = false
			}
		}
		n := 0
		for i := range tree {
			if leaf[i] {
				n++
			}
		}
		if n == 0 {
			continue
		}
		part := (b - a) / time.Duration(n)
		for i := range tree {
			if leaf[i] {
				share[i] += part
			}
		}
	}
	for _, v := range sparse {
		busy := spans[v.idx].busy
		if v.parent >= 0 {
			busy = min(busy, share[v.parent])
			share[v.parent] -= busy
		}
		self[spans[v.idx].name] += busy
	}
	for i, v := range tree {
		self[spans[v.idx].name] += share[i]
	}
}
