package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/perfbench/oracle"
	"repro/rcj"
)

// serve_sharded: router.New in front of two server.New workers holding a
// 4-shard manifest, two shards each; the indexes fit in the buffer. An open
// loop offers a fixed rate of bounded queries — top-k in region windows,
// region windows, small max-diameter windows — with a seeded share of exact
// repeats for the result cache, and once a round a burst of region windows
// due at one instant over the shards' common corner, so that every worker
// receives more sub-queries than it has join slots and the batcher has
// queued requests to share. README.md gives the reason for each number.
const (
	ssPoints       = 40000 // per input
	ssShards       = 4
	ssMaxDiameter  = 400.0 // the manifest's serving contract
	ssRate         = 16    // regular queries per second
	ssRound        = 10    // regular queries per round: 4 top-k, 3 region, 3 max-diameter
	ssBurst        = 2     // burst queries per round, due at one instant
	ssSetupReps    = 5
	ssWarmQueries  = 24
	ssHotPerKind   = 12
	ssMaxInFlight  = 64
	ssTopK         = 10
	ssCheckEvery   = 4 // every n-th bounded query is also checked for completeness
	ssTopKWindow   = 1000.0
	ssRegionWindow = 400.0
	ssBurstPoints  = 200   // P points in each burst window
	ssBurstJitter  = 100.0 // burst window centers lie within this of the corner
	ssDiamWindow   = 800.0
	ssDiamBound    = 60.0
)

// query is one /join request body plus what the checker needs to know.
type query struct {
	kind string // "topk", "region", "maxdiam", "burst"
	body map[string]any
	win  oracle.Window
	diam float64 // effective diameter bound (the manifest's when unset)
	k    int
}

func newQuery(kind string, w rcj.Rect) query {
	q := query{kind: kind, diam: ssMaxDiameter}
	switch kind {
	case "topk":
		q.k = ssTopK
	case "maxdiam":
		q.diam = ssDiamBound
	}
	q.win = oracle.Window{MinX: w.MinX, MinY: w.MinY, MaxX: w.MaxX, MaxY: w.MaxY}
	q.body = map[string]any{"region": []float64{w.MinX, w.MinY, w.MaxX, w.MaxY}}
	if q.kind == "topk" {
		q.body["top_k"] = q.k
	}
	if q.kind == "maxdiam" {
		q.body["max_diameter"] = q.diam
	}
	return q
}

// mixGen draws the regular queries: rounds of ten — four top-k, three
// region and three max-diameter windows in a shuffled order — with one of
// each kind an exact repeat of that kind's small hot set (a 30% repeat
// share), the rest fresh.
type mixGen struct {
	r   *rand.Rand
	wg  *windowGen
	hot map[string][]query
}

var windowSize = map[string]float64{"topk": ssTopKWindow, "region": ssRegionWindow, "maxdiam": ssDiamWindow}

func newMixGen(r *rand.Rand, cs []center) *mixGen {
	g := &mixGen{r: r, wg: &windowGen{r: r, cs: cs}, hot: map[string][]query{}}
	for _, k := range []string{"topk", "region", "maxdiam"} {
		for i := 0; i < ssHotPerKind; i++ {
			g.hot[k] = append(g.hot[k], g.fresh(k))
		}
	}
	return g
}

func (g *mixGen) fresh(kind string) query {
	return newQuery(kind, g.wg.window(windowSize[kind], windowSize[kind]))
}

func (g *mixGen) round() []query {
	kinds := []string{"topk", "topk", "topk", "topk", "region", "region", "region", "maxdiam", "maxdiam", "maxdiam"}
	g.r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	repeated := map[string]bool{}
	out := make([]query, 0, len(kinds))
	for _, k := range kinds {
		if !repeated[k] {
			repeated[k] = true
			out = append(out, g.hot[k][g.r.IntN(ssHotPerKind)])
		} else {
			out = append(out, g.fresh(k))
		}
	}
	return out
}

// queryMix returns n regular queries drawn from r.
func queryMix(r *rand.Rand, cs []center, n int) []query {
	g := newMixGen(r, cs)
	var out []query
	for len(out) < n {
		out = append(out, g.round()...)
	}
	return out[:n]
}

// serveSchedule returns the measured pass: rounds of ten regular queries
// due 1/ssRate s apart, and in the middle of each round a burst of ssBurst
// fresh region windows due at one instant, each covering the grid corner
// (cx, cy) that all four shards share. It returns the queries with their
// due times, measured from the start of the pass.
func serveSchedule(r *rand.Rand, cs []center, P []rcj.Point, cx, cy float64, rounds int) ([]query, []time.Duration) {
	g := newMixGen(r, cs)
	step := time.Second / ssRate
	var qs []query
	var dues []time.Duration
	for k := 0; k < rounds; k++ {
		t0 := time.Duration(k*ssRound) * step
		for i, q := range g.round() {
			if i == ssRound/2 {
				for b := 0; b < ssBurst; b++ {
					x := cx + ssBurstJitter*(2*r.Float64()-1)
					y := cy + ssBurstJitter*(2*r.Float64()-1)
					qs = append(qs, newQuery("burst", burstWindow(P, x, y)))
					dues = append(dues, t0+time.Duration(i)*step-step/2)
				}
			}
			qs = append(qs, q)
			dues = append(dues, t0+time.Duration(i)*step)
		}
	}
	return qs, dues
}

// burstWindow returns the square centered at (x, y) just large enough to
// hold ssBurstPoints points of P (and at least twice the jitter wide on each
// side of its center). The density at the corner differs from
// seed to seed with the cluster layout; sizing the window by its points
// keeps the burst answers alike across seeds.
func burstWindow(P []rcj.Point, x, y float64) rcj.Rect {
	d := make([]float64, len(P))
	for i, p := range P {
		d[i] = math.Max(math.Abs(p.X-x), math.Abs(p.Y-y))
	}
	sort.Float64s(d)
	h := max(d[min(ssBurstPoints, len(d))-1], 2*ssBurstJitter)
	return rcj.Rect{MinX: x - h, MinY: y - h, MaxX: x + h, MaxY: y + h}
}

// openLoop issues operations on a fixed schedule, the i-th due at
// start+dues[i] (dues ascending), each in its own goroutine, at most
// maxInFlight at once. do receives the due time; the returned slice holds
// how late the generator dispatched each operation.
func openLoop(start time.Time, dues []time.Duration, maxInFlight int, do func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, len(dues))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	for i, off := range dues {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		late[i] = max(time.Since(due), 0)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			do(i, due)
		}(i)
	}
	wg.Wait()
	return late
}

// evenly returns n due times interval apart.
func evenly(n int, interval time.Duration) []time.Duration {
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(i) * interval
	}
	return dues
}

type shardStack struct {
	dir     string
	workers []*worker
	router  listening
	openMS  float64
	cx, cy  float64 // the grid corner all four shards share
}

func (s *shardStack) stop() {
	if s.router.hs != nil {
		shutdown(s.router.hs)
	}
	for _, w := range s.workers {
		w.stop()
	}
	os.RemoveAll(s.dir)
}

func setupSharded(e *env, tr *tracer, P, Q []rcj.Point, rep int, warm []query, onSummary func([]byte)) (*shardStack, error) {
	s := &shardStack{dir: filepath.Join(e.dir, fmt.Sprintf("shard%d", rep))}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	manifest := filepath.Join(s.dir, "bench.rcjm")
	m, err := shard.Build(manifest, P, Q, shard.BuildConfig{Shards: ssShards, MaxDiameter: ssMaxDiameter, Name: "bench", Packed: true})
	if err != nil {
		return nil, err
	}
	xs, ys := m.InteriorCuts()
	if len(xs) != 1 || len(ys) != 1 {
		return nil, fmt.Errorf("manifest grid %dx%d, want 2x2", m.GridNX, m.GridNY)
	}
	s.cx, s.cy = xs[0], ys[0]
	var ids []int
	for _, sh := range m.Shards {
		if !sh.Empty() {
			ids = append(ids, sh.ID)
		}
	}
	half := (len(ids) + 1) / 2
	var ws []router.Worker
	for _, own := range [][]int{ids[:half], ids[half:]} {
		if len(own) == 0 {
			continue
		}
		var openDur time.Duration
		w, err := startWorker(tr, func(srv *server.Server) error {
			t0 := time.Now()
			_, err := srv.LoadManifestShards(manifest, own, "")
			openDur = time.Since(t0)
			return err
		})
		if err != nil {
			s.stop()
			return nil, err
		}
		s.openMS += ms(openDur)
		s.workers = append(s.workers, w)
		ws = append(ws, router.Worker{URL: w.url, Shards: own})
	}
	// rcjrouter's defaults: a plain http.Client (no cap on connections to a
	// worker), fanout 4, one retry, no sub-query timeout, planner-chosen
	// plans.
	rc := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	if tr != nil {
		rc.Transport = &transport{base: rc.Transport, onSummary: onSummary}
	}
	rt, err := router.New(router.Config{Manifest: m, Workers: ws, Fanout: 4, Retries: 1, Client: rc})
	if err != nil {
		s.stop()
		return nil, err
	}
	h := rt.Handler()
	if tr != nil {
		h = tr.wrapHandler("router", h)
	}
	if s.router, err = serve(h); err != nil {
		s.stop()
		return nil, err
	}
	c := newClient(runtime.NumCPU())
	for _, q := range warm {
		if a := postJoin(context.Background(), c, s.router.url, q.body, 0, false); a.err != nil {
			s.stop()
			return nil, fmt.Errorf("warm-up query: %w", a.err)
		}
	}
	return s, nil
}

func runServeSharded(e *env) error {
	P, Q, cs := inputs(e.seed, ssPoints, ssPoints)
	warm := queryMix(rng(e.seed, 6), cs, ssWarmQueries)

	tr := e.tr
	// Worker summaries, seen by the router's transport in a traced run.
	var sumMu sync.Mutex
	var qerr []float64
	plans := map[string]int{}
	onSummary := func(line []byte) {
		var s struct{ Summary summary }
		if json.Unmarshal(line, &s) == nil {
			sumMu.Lock()
			qerr = append(qerr, qError(s.Summary.estAccesses(), s.Summary.NodeAccesses))
			plans[planShape(s.Summary.Plan)]++
			sumMu.Unlock()
		}
	}
	var st setupTimes
	var s *shardStack
	for rep := 0; rep < ssSetupReps; rep++ {
		if s != nil {
			s.stop()
		}
		if err := st.time(func() (err error) {
			s, err = setupSharded(e, tr, P, Q, rep, warm, onSummary)
			return err
		}); err != nil {
			return err
		}
	}
	defer s.stop()
	res := e.res
	st.report(res)
	var loaded []int64
	for _, w := range s.workers {
		loaded = append(loaded, w.eng.BufferStats().Misses)
	}
	res.notes["worker_pages_loaded_after_warmup"] = loaded
	res.notes["worker_buffer_pages"] = rcjdBuffer

	qs, dues := serveSchedule(rng(e.seed, 5), cs, P, s.cx, s.cy, max(1, int(e.seconds*ssRate/ssRound)))
	n := len(qs)
	// The pass only receives answers and logs their rows to disk; the
	// oracle is built and every answer checked after it, so the pass's heap
	// and CPU time are the program's and the client's, not the checker's.
	rlog, err := newRowLog(filepath.Join(e.dir, "rows.bin"))
	if err != nil {
		return err
	}
	defer rlog.close()
	client := newClient(runtime.NumCPU())
	outs := make([]outcome, n)
	opErrs := make([]error, n)      // the operation failed: status, in-band error, truncation
	encProblems := make([]error, n) // a traced row re-encoded to other bytes
	before := snapshotServing(s.workers, client, s.router.url)
	m := startMeter()
	// A traced run traces every other query (see join_batch).
	late := openLoop(time.Now(), dues, ssMaxInFlight, func(i int, due time.Time) {
		traced := tr != nil && i%2 == 1
		var id int64
		var start time.Duration
		if traced {
			id, start = tr.begin()
		}
		a := postJoin(context.Background(), client, s.router.url, qs[i].body, id, traced)
		out := outcome{lat: time.Since(due), pairs: len(a.rows), sum: a.summary}
		if traced {
			tr.finish(id, 0, "query", start)
		}
		if opErrs[i] = a.err; a.err == nil {
			if traced {
				out.enc, out.bytes, encProblems[i] = reencode(a)
			}
			rlog.put(i, a.rows)
		}
		outs[i] = out
	})
	pm := m.end()
	after := snapshotServing(s.workers, client, s.router.url)

	// Checks: every answer's rows are sound and satisfy the query; every
	// ssCheckEvery-th top-k and max-diameter answer is also complete.
	o := oracle.New(toOracle(P), toOracle(Q))
	checked := make([]bool, n)
	checkErr := rlog.each(func(i int, rows []row) {
		q := qs[i]
		c := constraint{maxDiam: q.diam, region: &q.win}
		full := i%ssCheckEvery == 0 && (q.kind == "topk" || q.kind == "maxdiam")
		var err error
		switch {
		case q.kind == "topk":
			err = checkTopK(o, rows, q.k, c, full)
		default:
			if err = checkRows(o, rows, c); err == nil && full {
				err = checkComplete(o, rows, q.win, q.diam)
			}
		}
		if err == nil {
			err = encProblems[i]
		}
		if err != nil {
			res.problem("%s query %d: %v", q.kind, i, err)
		}
		checked[i] = err == nil
	})
	if checkErr != nil {
		return fmt.Errorf("row log: %w", checkErr)
	}
	for i, q := range qs {
		if opErrs[i] != nil {
			res.opError("%s query %d: %v", q.kind, i, opErrs[i])
		}
		outs[i].ok = opErrs[i] == nil && checked[i]
		res.op(q.kind, outs[i].ok)
	}

	lat, pairs := openLoopLatencies(outs)
	// The pass runs from the first due time to the last completion, so a
	// backlog that drains late lowers the rates.
	res.readMetrics(lat, pairs, pm)
	byKind := map[string][]float64{}
	for i, q := range qs {
		byKind[q.kind] = append(byKind[q.kind], lat[i])
	}
	kindP50 := map[string]float64{}
	for k, xs := range byKind {
		kindP50[k] = median(xs)
	}
	res.notes["op_ms_p50_by_kind"] = kindP50
	res.e2e["index_bytes_per_point"] = float64(indexBytes(s.dir)) / float64(2*ssPoints)
	lateLayer(res.layer, late)

	if tr != nil {
		L := res.layer
		servingLayers(L, before, after, float64(n))
		L["storage.open_ms"] = s.openMS
		var st rcj.Stats
		var enc time.Duration
		var encBytes, encRows int
		var tlat, ulat []float64
		for i, o := range outs {
			st.NodeAccesses += o.sum.NodeAccesses
			st.Candidates += o.sum.Candidates
			st.Results += o.sum.Results
			st.NodesPruned += o.sum.NodesPruned
			st.BoundKilledCandidates += o.sum.BoundKilled
			if i%2 == 1 {
				tlat = append(tlat, lat[i])
				enc += o.enc
				encBytes += o.bytes
				encRows += o.pairs
			} else {
				ulat = append(ulat, lat[i])
			}
		}
		coreLayer(L, st, float64(n))
		L["encode.ms"] = ms(enc) / float64(len(tlat))
		L["encode.bytes_per_pair"] = ratio(float64(encBytes), float64(encRows))
		sumMu.Lock()
		L["plan.qerror"] = median(qerr)
		res.notes["plans"] = plans
		sumMu.Unlock()
		if t := tr.selfTimes()["query"]; t != nil {
			per := func(name string) float64 { return ms(t.self[name]) / float64(t.roots) }
			L["http.overhead_ms"] = per("query")
			L["router.self_ms"] = per("router")
			L["server.handler_ms"] = per("worker")
			L["trace.client_ms"] = ms(t.total) / float64(t.roots)
		}
		L["trace.overhead_pct"] = 100 * (median(tlat)/median(ulat) - 1)
	}
	return nil
}

// outcome is one served read operation's result.
type outcome struct {
	lat   time.Duration // from its due time to the last byte
	pairs int
	ok    bool
	sum   summary
	enc   time.Duration // re-encode time of its rows (traced runs)
	bytes int
}

// openLoopLatencies returns each operation's latency in ms (failed ones as
// +Inf) and the pairs the correct ones delivered.
func openLoopLatencies(outs []outcome) ([]float64, int) {
	lat := make([]float64, len(outs))
	pairs := 0
	for i, o := range outs {
		lat[i] = ms(o.lat)
		if !o.ok {
			lat[i] = math.Inf(1)
			continue
		}
		pairs += o.pairs
	}
	return lat, pairs
}

// reencode re-encodes every received row with server.AppendPairNDJSON,
// timing the calls, and checks the bytes match what the program sent.
func reencode(a answer) (time.Duration, int, error) {
	var buf []byte
	var total time.Duration
	n := 0
	for i, rw := range a.rows {
		pr := rcj.Pair{P: rcj.Point{ID: rw.PID}, Q: rcj.Point{ID: rw.QID}, Center: rcj.Point{X: rw.CX, Y: rw.CY}, Radius: rw.Radius}
		t0 := time.Now()
		buf = server.AppendPairNDJSON(buf[:0], pr)
		total += time.Since(t0)
		n += len(buf)
		if !bytes.Equal(bytes.TrimSuffix(buf, []byte("\n")), a.raw[i]) {
			return 0, 0, fmt.Errorf("row %d re-encodes to %q, received %q", i, buf, a.raw[i])
		}
	}
	return total, n, nil
}

// rowLog keeps the rows of a pass's answers on disk, so that checking them
// after the pass needs no copy of them in memory during it. Each record is
// the query index and row count as two uint32s, then the rows, all
// little-endian.
type rowLog struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	err error
}

func newRowLog(path string) (*rowLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &rowLog{f: f, w: bufio.NewWriter(f)}, nil
}

// put appends the rows of query i.
func (l *rowLog) put(i int, rows []row) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	le := binary.LittleEndian
	b := le.AppendUint32(le.AppendUint32(nil, uint32(i)), uint32(len(rows)))
	for _, rw := range rows {
		b = le.AppendUint64(b, uint64(rw.PID))
		b = le.AppendUint64(b, uint64(rw.QID))
		b = le.AppendUint64(b, math.Float64bits(rw.CX))
		b = le.AppendUint64(b, math.Float64bits(rw.CY))
		b = le.AppendUint64(b, math.Float64bits(rw.Radius))
	}
	_, l.err = l.w.Write(b)
}

// each calls fn for every record in the order they were put.
func (l *rowLog) each(fn func(i int, rows []row)) error {
	if l.err != nil {
		return l.err
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReader(l.f)
	var rows []row
	for {
		var hdr [2]uint32
		if err := binary.Read(r, binary.LittleEndian, &hdr); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		rows = append(rows[:0], make([]row, hdr[1])...)
		if err := binary.Read(r, binary.LittleEndian, rows); err != nil {
			return err
		}
		fn(int(hdr[0]), rows)
	}
}

func (l *rowLog) close() {
	l.f.Close()
	os.Remove(l.f.Name())
}
