package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
	"repro/perfbench/oracle"
	"repro/rcj"
)

// live_churn: one worker serving a live index (LoadMutableIndex over a
// sealed base) joined with an immutable index. One fixed-rate schedule
// alternates writes (a batch of inserts, every few batches with deletes of
// base points) and top-k-in-region reads of the live pair in rounds of one
// write and two reads, while one /subscribe stream stays open for the whole
// run.
const (
	lcBase        = 12000 // live base points
	lcImmutable   = 6000  // immutable side
	lcRate        = 12    // operations per second: a write, then two reads
	lcBatch       = 120   // inserts per write
	lcDeleteEvery = 40    // every n-th write also deletes base points
	lcDeletes     = 2000  // base points per deleting write
	lcSetupReps   = 5
	lcWarmReads   = 8
	lcMaxInFlight = 64
	lcTopK        = 10
	lcWindow      = 1000.0
	lcSamples     = 8 // sampled live points whose partners the final check recomputes
)

// subStream reads one /subscribe stream: it replays the events into a pair
// set and records when each epoch was first seen.
type subStream struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	pairs   map[oracle.Key]bool
	seen    []seqSeen // ascending seq
	resyncs int
	synced  chan struct{} // closed at the first sync event
	err     error         // why the stream ended early
}

type seqSeen struct {
	seq uint64
	at  time.Time
}

func openSubscription(c *http.Client, url string) (*subStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(map[string]any{"p": "live", "q": "imm"})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/subscribe", bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	s := &subStream{cancel: cancel, done: make(chan struct{}), pairs: map[oracle.Key]bool{}, synced: make(chan struct{})}
	go s.read(resp)
	select {
	case <-s.synced:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("subscription ended before its first sync: %v", s.err)
	}
}

func (s *subStream) read(resp *http.Response) {
	defer close(s.done)
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var ev struct {
		Event  string `json:"event"`
		Seq    uint64 `json:"seq"`
		PID    *int64 `json:"p_id"`
		QID    *int64 `json:"q_id"`
		Reason string `json:"reason"`
	}
	synced := false
	for sc.Scan() {
		ev.PID, ev.QID, ev.Reason = nil, nil, ""
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			s.fail(fmt.Errorf("bad event %.80q: %v", sc.Bytes(), err))
			return
		}
		now := time.Now()
		s.mu.Lock()
		switch ev.Event {
		case "add", "remove":
			if ev.PID == nil || ev.QID == nil {
				s.mu.Unlock()
				s.fail(fmt.Errorf("%s event without a pair", ev.Event))
				return
			}
			k := oracle.Key{P: *ev.PID, Q: *ev.QID}
			if ev.Event == "add" {
				s.pairs[k] = true
			} else {
				delete(s.pairs, k)
			}
		case "resync":
			s.pairs = map[oracle.Key]bool{}
			s.resyncs++
		case "sync":
			if !synced {
				synced = true
				close(s.synced)
			}
		case "end":
			s.err = fmt.Errorf("stream ended: %s", ev.Reason)
			s.mu.Unlock()
			return
		}
		if n := len(s.seen); ev.Seq > 0 && (n == 0 || ev.Seq > s.seen[n-1].seq) {
			s.seen = append(s.seen, seqSeen{ev.Seq, now})
		}
		s.mu.Unlock()
	}
	if err := sc.Err(); err != nil {
		s.fail(err)
	}
}

func (s *subStream) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// firstSeen returns when the stream first carried an epoch at or after seq.
func (s *subStream) firstSeen(seq uint64) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.seen), func(i int) bool { return s.seen[i].seq >= seq })
	if i == len(s.seen) {
		return time.Time{}, false
	}
	return s.seen[i].at, true
}

func (s *subStream) close() {
	s.cancel()
	<-s.done
}

type liveStack struct {
	dir    string
	w      *worker
	sub    *subStream
	openMS float64
}

func (s *liveStack) stop() {
	if s.sub != nil {
		s.sub.close()
	}
	if s.w != nil {
		s.w.stop()
	}
	os.RemoveAll(s.dir)
}

// indexInfo is the subset of a GET /indexes row the benchmark reads.
type indexInfo struct {
	Name string `json:"name"`
	Live *struct {
		DeltaPoints    int     `json:"delta_points"`
		Tombstones     int     `json:"tombstones"`
		Compactions    int64   `json:"compactions"`
		CompactSeconds float64 `json:"compact_seconds"`
	} `json:"live"`
}

func liveInfo(c *http.Client, url string) (indexInfo, error) {
	var rows []indexInfo
	if err := getJSON(c, url+"/indexes", &rows); err != nil {
		return indexInfo{}, err
	}
	for _, r := range rows {
		if r.Name == "live" && r.Live != nil {
			return r, nil
		}
	}
	return indexInfo{}, fmt.Errorf("no live index in GET /indexes")
}

func setupLive(e *env, tr *tracer, base, imm []rcj.Point, rep int, warm []rcj.Rect) (*liveStack, error) {
	s := &liveStack{dir: filepath.Join(e.dir, fmt.Sprintf("live%d", rep))}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	basePath, immPath := filepath.Join(s.dir, "live.rcjx"), filepath.Join(s.dir, "imm.rcjx")
	for path, pts := range map[string][]rcj.Point{basePath: base, immPath: imm} {
		ix, err := rcj.BuildIndex(pts, rcj.IndexConfig{})
		if err != nil {
			return nil, err
		}
		err = ix.SavePacked(path)
		ix.Close()
		if err != nil {
			return nil, err
		}
	}
	var err error
	s.w, err = startWorker(tr, func(srv *server.Server) error {
		t0 := time.Now()
		// rcjd's defaults: -live-compact 0 (the default threshold) and
		// -live-keep-generations 0 (keep all).
		if err := srv.LoadMutableIndex("live", basePath, 0, 0); err != nil {
			return err
		}
		err := srv.LoadIndex("imm", immPath)
		s.openMS = ms(time.Since(t0))
		return err
	})
	if err != nil {
		s.stop()
		return nil, err
	}
	if s.sub, err = openSubscription(newClient(1), s.w.url); err != nil {
		s.stop()
		return nil, err
	}
	c := newClient(runtime.NumCPU())
	for _, w := range warm {
		if a := postJoin(context.Background(), c, s.w.url, liveRead(w), 0, false); a.err != nil {
			s.stop()
			return nil, fmt.Errorf("warm-up read: %w", a.err)
		}
	}
	return s, nil
}

func liveRead(w rcj.Rect) map[string]any {
	return map[string]any{"p": "live", "q": "imm", "top_k": lcTopK, "region": []float64{w.MinX, w.MinY, w.MaxX, w.MaxY}}
}

// life is one live point's history as the client saw it: when its insert
// was sent and acknowledged, and when its delete was sent and acknowledged.
// Base points count as inserted before the run; times that have not come
// are far in the future.
type life struct{ insSent, acked, delSent, delAcked time.Time }

// readResult is one live read's answer and when it was sent and completed.
type readResult struct {
	rows       []row
	sent, done time.Time
	region     oracle.Window
}

// checkLiveRead checks one top-k read on the live pair, which ran while
// writes changed the P side. Every returned P point must have been possibly
// present at some instant of the read — its insert sent before the read
// completed, no delete of it acknowledged before the read was sent — and
// each circle must be empty of the immutable side and of every live point
// present throughout the read (insert acknowledged before the read was
// sent, no delete sent before it completed). o indexes every P point the
// run ever generated, so presence is decided here and not by o.
func checkLiveRead(o *oracle.Oracle, lives map[int64]*life, rd readResult, k int) error {
	for _, rw := range rd.rows {
		l := lives[rw.PID]
		if l == nil || !l.insSent.Before(rd.done) {
			return fmt.Errorf("pair (%d,%d) names a live point whose insert was not sent before the read ended", rw.PID, rw.QID)
		}
		if l.delAcked.Before(rd.sent) {
			return fmt.Errorf("pair (%d,%d) names a live point deleted before the read began", rw.PID, rw.QID)
		}
	}
	member := func(side oracle.Side, id int64) bool {
		if side == oracle.SideQ {
			return true
		}
		l := lives[id]
		return l != nil && l.acked.Before(rd.sent) && l.delSent.After(rd.done)
	}
	region := rd.region
	return checkTopK(o, rd.rows, k, constraint{region: &region, member: member}, false)
}

// liveOp is one scheduled live_churn operation.
type liveOp struct {
	write  bool
	ins    []rcj.Point
	del    []int64
	region rcj.Rect
}

// liveSchedule returns n operations in rounds of a write and two reads.
func liveSchedule(seed uint64, cs []center, base, pool []rcj.Point, n int) []liveOp {
	r := rng(seed, 7)
	wg := &windowGen{r: r, cs: cs}
	order := r.Perm(len(base)) // base points in deletion order
	ops := make([]liveOp, n)
	writes, next, nextDel := 0, 0, 0
	for i := range ops {
		if i%3 != 0 {
			ops[i] = liveOp{region: wg.window(lcWindow, lcWindow)}
			continue
		}
		op := liveOp{write: true, ins: pool[next : next+lcBatch]}
		next += lcBatch
		writes++
		if writes%lcDeleteEvery == 0 {
			for _, j := range order[nextDel : nextDel+lcDeletes] {
				op.del = append(op.del, base[j].ID)
			}
			nextDel += lcDeletes
		}
		ops[i] = op
	}
	return ops
}

func runLiveChurn(e *env) error {
	n := int(e.seconds * lcRate)
	writes := (n + 2) / 3
	all, imm, cs := inputs(e.seed, lcBase+writes*lcBatch, lcImmutable)
	base, pool := all[:lcBase], all[lcBase:]
	ops := liveSchedule(e.seed, cs, base, pool, n)
	wg := &windowGen{r: rng(e.seed, 8), cs: cs}
	warm := make([]rcj.Rect, lcWarmReads)
	for i := range warm {
		warm[i] = wg.window(lcWindow, lcWindow)
	}

	tr := e.tr
	var st setupTimes
	var s *liveStack
	for rep := 0; rep < lcSetupReps; rep++ {
		if s != nil {
			s.stop()
		}
		if err := st.time(func() (err error) {
			s, err = setupLive(e, tr, base, imm, rep, warm)
			return err
		}); err != nil {
			return err
		}
	}
	defer s.stop()
	res := e.res
	st.report(res)
	res.notes["worker_pages_loaded_after_warmup"] = s.w.eng.BufferStats().Misses
	res.notes["worker_buffer_pages"] = rcjdBuffer

	never := time.Now().Add(24 * time.Hour)
	var lifeMu sync.Mutex
	lives := make(map[int64]*life, len(all))
	for _, p := range base {
		lives[p.ID] = &life{delSent: never, delAcked: never}
	}

	type writeResult struct {
		epoch uint64
		ack   time.Time
		lat   time.Duration
		ok    bool
	}
	client := newClient(runtime.NumCPU())
	outs := make([]outcome, n)
	reads := make([]readResult, n)
	wres := make([]writeResult, n)
	var mu sync.Mutex
	var sampler sync.WaitGroup
	stopSampling := make(chan struct{})
	type sample struct {
		at          time.Time
		delta       int
		compactions int64
		compactSecs float64
	}
	var samples []sample
	if tr != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				if info, err := liveInfo(client, s.w.url); err == nil {
					samples = append(samples, sample{time.Now(), info.Live.DeltaPoints + info.Live.Tombstones,
						info.Live.Compactions, info.Live.CompactSeconds})
				}
				select {
				case <-stopSampling:
					return
				case <-tick.C:
				}
			}
		}()
	}
	before := snapshotServing([]*worker{s.w}, client, "")
	info0, err := liveInfo(client, s.w.url)
	if err != nil {
		return err
	}
	s.sub.mu.Lock()
	resyncs0 := s.sub.resyncs
	s.sub.mu.Unlock()
	m := startMeter()
	late := openLoop(time.Now(), evenly(n, time.Second/lcRate), lcMaxInFlight, func(i int, due time.Time) {
		op := ops[i]
		traced := tr != nil && (i/3)%2 == 1 // every other round
		var id int64
		var start time.Duration
		if traced {
			id, start = tr.begin()
		}
		if op.write {
			lifeMu.Lock()
			now := time.Now()
			for _, d := range op.del {
				lives[d].delSent = now
			}
			for _, p := range op.ins {
				lives[p.ID] = &life{insSent: now, acked: never, delSent: never, delAcked: never}
			}
			lifeMu.Unlock()
			epoch, err := postMutate(client, s.w.url, op.ins, op.del, id)
			ack := time.Now()
			if traced {
				tr.finish(id, 0, "write", start)
			}
			if err == nil {
				lifeMu.Lock()
				for _, p := range op.ins {
					lives[p.ID].acked = ack
				}
				for _, d := range op.del {
					lives[d].delAcked = ack
				}
				lifeMu.Unlock()
			}
			wres[i] = writeResult{epoch: epoch, ack: ack, lat: ack.Sub(due), ok: err == nil}
			mu.Lock()
			if err != nil {
				res.opError("write %d: %v", i, err)
			}
			res.op("write", err == nil)
			mu.Unlock()
			return
		}
		sent := time.Now()
		a := postJoin(context.Background(), client, s.w.url, liveRead(op.region), id, traced)
		done := time.Now()
		if traced {
			tr.finish(id, 0, "read", start)
		}
		out := outcome{lat: done.Sub(due), pairs: len(a.rows), sum: a.summary}
		var err error
		if a.err == nil && traced {
			out.enc, out.bytes, err = reencode(a)
		}
		out.ok = a.err == nil && err == nil
		outs[i] = out
		w := oracle.Window{MinX: op.region.MinX, MinY: op.region.MinY, MaxX: op.region.MaxX, MaxY: op.region.MaxY}
		reads[i] = readResult{rows: a.rows, sent: sent, done: done, region: w}
		mu.Lock()
		if a.err != nil {
			res.opError("read %d: %v", i, a.err)
		}
		if err != nil {
			res.problem("read %d: %v", i, err)
		}
		res.op("read", out.ok)
		mu.Unlock()
	})
	pm := m.end()
	close(stopSampling)
	sampler.Wait()
	after := snapshotServing([]*worker{s.w}, client, "")
	info1, err := liveInfo(client, s.w.url)
	if err != nil {
		return err
	}

	// Reads: ranking order, predicates, circles, endpoint presence, and
	// emptiness against the immutable side plus every live point present
	// throughout the read.
	everP := make([]oracle.Point, 0, len(lives))
	for _, p := range all[:lcBase+writes*lcBatch] {
		everP = append(everP, oracle.Point{X: p.X, Y: p.Y, ID: p.ID})
	}
	oEver := oracle.New(everP, toOracle(imm))
	for i, rd := range reads {
		if ops[i].write || !outs[i].ok {
			continue
		}
		if err := checkLiveRead(oEver, lives, rd, lcTopK); err != nil {
			res.problem("read %d: %v", i, err)
			outs[i].ok = false
			res.failed["read"]++
		}
	}

	// Quiesce: the subscription must reach the last acknowledged epoch.
	var lastEpoch uint64
	for _, w := range wres {
		lastEpoch = max(lastEpoch, w.epoch)
	}
	quiet := time.Now().Add(30 * time.Second)
	for {
		if _, ok := s.sub.firstSeen(lastEpoch); ok || time.Now().After(quiet) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, subOK := s.sub.firstSeen(lastEpoch)
	s.sub.mu.Lock()
	subErr, resyncs := s.sub.err, s.sub.resyncs-resyncs0
	s.sub.mu.Unlock()
	switch {
	case subErr != nil:
		res.opError("subscription: %v", subErr)
	case !subOK:
		res.problem("subscription did not reach epoch %d", lastEpoch)
	}
	res.op("subscribe", subOK && subErr == nil)

	// The model: base minus acknowledged deletes plus acknowledged inserts.
	model := map[int64]rcj.Point{}
	for _, p := range base {
		model[p.ID] = p
	}
	for i, w := range wres {
		if !w.ok || !ops[i].write {
			continue
		}
		for _, d := range ops[i].del {
			delete(model, d)
		}
		for _, p := range ops[i].ins {
			model[p.ID] = p
		}
	}
	finalP := make([]oracle.Point, 0, len(model))
	for _, p := range model {
		finalP = append(finalP, oracle.Point{X: p.X, Y: p.Y, ID: p.ID})
	}
	sort.Slice(finalP, func(i, j int) bool { return finalP[i].ID < finalP[j].ID })
	res.op("final", checkLiveFinal(res, client, s, finalP, imm, e.seed))

	// Metrics.
	lat, pairs := openLoopLatencies(readsOnly(outs, ops))
	res.readMetrics(lat, pairs, pm)
	res.e2e["index_bytes_per_point"] = float64(indexBytes(s.dir)) / float64(len(model)+len(imm))

	L := res.layer
	plans := map[string]int{}
	for i, o := range outs {
		if !ops[i].write && o.ok {
			plans[planShape(o.sum.Plan)]++
		}
	}
	res.notes["plans"] = plans
	var wlat, fresh []float64
	for i, w := range wres {
		if !ops[i].write {
			continue
		}
		if !w.ok {
			wlat = append(wlat, math.Inf(1))
			continue
		}
		wlat = append(wlat, ms(w.lat))
		if at, ok := s.sub.firstSeen(w.epoch); ok {
			fresh = append(fresh, math.Max(0, ms(at.Sub(w.ack))))
		}
	}
	L["live.write_ms_p50"] = median(append([]float64(nil), wlat...))
	if v, _, ok := tail(wlat); ok {
		L["live.write_ms_tail"] = v
	}
	L["live.fresh_ms_p50"] = median(fresh)
	L["live.compactions"] = float64(info1.Live.Compactions - info0.Live.Compactions)
	L["live.compact_s"] = info1.Live.CompactSeconds - info0.Live.CompactSeconds
	L["live.resyncs"] = float64(resyncs)
	lateLayer(L, late)
	res.notes["live_churn"] = map[string]any{"final_live_points": len(model), "writes": writes,
		"compactions": L["live.compactions"], "resyncs": resyncs}

	if tr != nil {
		nr := float64(len(lat))
		servingLayers(L, before, after, nr)
		L["storage.open_ms"] = s.openMS
		var st rcj.Stats
		var qerr, tlat, ulat []float64
		var enc time.Duration
		var encBytes, encRows int
		for i, o := range outs {
			if ops[i].write {
				continue
			}
			enc += o.enc
			encBytes += o.bytes
			if (i/3)%2 == 1 {
				encRows += o.pairs
			}
			st.NodeAccesses += o.sum.NodeAccesses
			st.Candidates += o.sum.Candidates
			st.Results += o.sum.Results
			st.NodesPruned += o.sum.NodesPruned
			st.BoundKilledCandidates += o.sum.BoundKilled
			qerr = append(qerr, qError(o.sum.estAccesses(), o.sum.NodeAccesses))
			if (i/3)%2 == 1 {
				tlat = append(tlat, ms(o.lat))
			} else {
				ulat = append(ulat, ms(o.lat))
			}
		}
		coreLayer(L, st, nr)
		L["encode.ms"] = ms(enc) / float64(len(tlat))
		L["encode.bytes_per_pair"] = ratio(float64(encBytes), float64(encRows))
		L["plan.qerror"] = median(qerr)
		selfs := tr.selfTimes()
		if t := selfs["read"]; t != nil {
			per := func(name string) float64 { return ms(t.self[name]) / float64(t.roots) }
			L["http.overhead_ms"] = per("read")
			L["server.handler_ms"] = per("worker")
			L["trace.client_ms"] = ms(t.total) / float64(t.roots)
		}
		if t := selfs["write"]; t != nil {
			L["live.apply_ms"] = ms(t.self["worker"]) / float64(t.roots)
		}
		L["trace.overhead_pct"] = 100 * (median(tlat)/median(ulat) - 1)
		// Delta size and compaction windows from the GET /indexes samples. A
		// compaction seen between two samples ran at most CompactSeconds
		// before the later one.
		var deltas []float64
		type span2 struct{ a, b time.Time }
		var compacting []span2
		for k, sm := range samples {
			deltas = append(deltas, float64(sm.delta))
			if k > 0 && sm.compactions > samples[k-1].compactions {
				d := time.Duration((sm.compactSecs - samples[k-1].compactSecs) * float64(time.Second))
				compacting = append(compacting, span2{samples[k-1].at.Add(-d), sm.at})
			}
		}
		L["live.delta_points_mean"] = mean(deltas)
		var during, outside []float64
		for i, rd := range reads {
			if ops[i].write || !outs[i].ok {
				continue
			}
			hit := false
			for _, c := range compacting {
				if rd.sent.Before(c.b) && rd.done.After(c.a) {
					hit = true
				}
			}
			if hit {
				during = append(during, ms(outs[i].lat))
			} else {
				outside = append(outside, ms(outs[i].lat))
			}
		}
		if len(during) > 0 && len(outside) > 0 {
			L["live.stall_ms"] = median(during) - median(outside)
		}
	}
	return nil
}

// readsOnly returns the outcomes of the read operations.
func readsOnly(outs []outcome, ops []liveOp) []outcome {
	var r []outcome
	for i, o := range outs {
		if !ops[i].write {
			r = append(r, o)
		}
	}
	return r
}

// postMutate applies one write batch and returns its epoch.
func postMutate(c *http.Client, url string, ins []rcj.Point, del []int64, spanID int64) (uint64, error) {
	body := struct {
		Insert []map[string]any `json:"insert"`
		Delete []int64          `json:"delete"`
	}{Delete: del}
	for _, p := range ins {
		body.Insert = append(body.Insert, map[string]any{"id": p.ID, "x": p.X, "y": p.Y})
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/indexes/live/points", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var ack struct {
		Epoch    uint64 `json:"epoch"`
		Inserted int    `json:"inserted"`
		Deleted  int    `json:"deleted"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return 0, fmt.Errorf("status %d: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, ack.Error)
	}
	if ack.Inserted != len(ins) || ack.Deleted != len(del) || ack.Epoch == 0 {
		return 0, fmt.Errorf("ack %+v for %d inserts, %d deletes", ack, len(ins), len(del))
	}
	return ack.Epoch, nil
}

// checkLiveFinal runs the quiesced checks: the live point set equals the
// model (every point of a self-join's answer, which holds each point's
// nearest-neighbour pair), a final join over it passes the oracle, and the
// subscription's replayed pair set equals that join.
func checkLiveFinal(res *result, c *http.Client, s *liveStack, finalP []oracle.Point, imm []rcj.Point, seed uint64) bool {
	ok := true
	fail := func(format string, args ...any) {
		res.problem(format, args...)
		ok = false
	}
	byID := make(map[int64]oracle.Point, len(finalP))
	for _, p := range finalP {
		byID[p.ID] = p
	}
	self := postJoin(context.Background(), c, s.w.url, map[string]any{"p": "live", "self": true}, 0, false)
	if self.err != nil {
		res.opError("final self-join: %v", self.err)
		return false
	}
	covered := map[int64]bool{}
	for _, rw := range self.rows {
		a, okA := byID[rw.PID]
		b, okB := byID[rw.QID]
		if !okA || !okB {
			fail("final self-join pair (%d,%d) names a point the model does not hold", rw.PID, rw.QID)
			return false
		}
		if cx, cy, r := oracle.Circle(a, b); !near(cx, rw.CX) || !near(cy, rw.CY) || !near(r, rw.Radius) {
			fail("final self-join pair (%d,%d) has a circle the model's coordinates do not give", rw.PID, rw.QID)
			return false
		}
		covered[rw.PID], covered[rw.QID] = true, true
	}
	if len(covered) != len(finalP) {
		fail("live point set has %d points in its self-join, the model %d", len(covered), len(finalP))
	}

	join := postJoin(context.Background(), c, s.w.url, map[string]any{"p": "live", "q": "imm"}, 0, false)
	if join.err != nil {
		res.opError("final join: %v", join.err)
		return false
	}
	o := oracle.New(finalP, toOracle(imm))
	if err := checkRows(o, join.rows, constraint{}); err != nil {
		fail("final join: %v", err)
	}
	got := make(map[oracle.Key]bool, len(join.rows))
	for _, rw := range join.rows {
		got[oracle.Key{P: rw.PID, Q: rw.QID}] = true
	}
	r := rng(seed, 9)
	for i := 0; i < lcSamples; i++ {
		p := finalP[r.IntN(len(finalP))]
		sure, _ := o.Partners(p)
		for _, q := range sure {
			if !got[oracle.Key{P: p.ID, Q: q}] {
				fail("final join misses pair (%d,%d)", p.ID, q)
				break
			}
		}
	}

	s.sub.mu.Lock()
	replay := s.sub.pairs
	s.sub.mu.Unlock()
	if len(replay) != len(got) {
		fail("subscription replay holds %d pairs, the final join %d", len(replay), len(got))
	} else {
		for k := range got {
			if !replay[k] {
				fail("subscription replay lacks pair %v", k)
				break
			}
		}
	}
	return ok
}
