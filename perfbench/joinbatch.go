package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/server"
	"repro/perfbench/oracle"
	"repro/rcj"
)

// join_batch: the rcjjoin path with one client in a closed loop. Two
// clustered point sets are saved as packed v3 .rcjx files and opened on the
// file backend behind a buffer pool a quarter the size of the two indexes;
// each operation is one full unconstrained join under the plan the planner
// picks, with every pair CSV-encoded into a discarded buffer.
const (
	jbPoints      = 6000 // per input
	jbBufferShare = 0.25 // buffer pages / total index pages
	jbSetupReps   = 5
	jbSamples     = 12 // sampled P points whose partners the oracle recomputes
)

type joinStack struct {
	eng        *rcj.Engine
	ixP, ixQ   *rcj.Index
	dir        string
	openMS     float64
	bufPages   int
	indexPages int
	warm       []row // the warm-up join's answer, checked by the oracle
	warmFP     fingerprint
}

func (s *joinStack) close() {
	s.ixP.Close()
	s.ixQ.Close()
	os.RemoveAll(s.dir)
}

// setupJoin builds, saves, reopens and warms one stack.
func setupJoin(e *env, P, Q []rcj.Point, rep int) (*joinStack, error) {
	s := &joinStack{dir: filepath.Join(e.dir, fmt.Sprintf("join%d", rep))}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	paths := [2]string{filepath.Join(s.dir, "p.rcjx"), filepath.Join(s.dir, "q.rcjx")}
	for i, pts := range [][]rcj.Point{P, Q} {
		ix, err := rcj.BuildIndex(pts, rcj.IndexConfig{})
		if err != nil {
			return nil, err
		}
		s.indexPages += ix.Stats().Pages
		err = ix.SavePacked(paths[i])
		ix.Close()
		if err != nil {
			return nil, err
		}
	}
	s.bufPages = int(math.Ceil(jbBufferShare * float64(s.indexPages)))
	s.eng = rcj.NewEngine(rcj.EngineConfig{BufferPages: s.bufPages})
	t0 := time.Now()
	var err error
	if s.ixP, err = s.eng.OpenIndex(paths[0], rcj.IndexConfig{Backend: rcj.BackendFile}); err != nil {
		return nil, err
	}
	if s.ixQ, err = s.eng.OpenIndex(paths[1], rcj.IndexConfig{Backend: rcj.BackendFile}); err != nil {
		s.ixP.Close()
		return nil, err
	}
	s.openMS = ms(time.Since(t0))
	// Warm-up: one full join, kept for the oracle.
	qry, _ := rcj.Query{Parallelism: 1}.Resolve(s.ixQ, s.ixP, false)
	for pr, err := range s.eng.Run(context.Background(), s.ixQ, s.ixP, qry) {
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up join: %w", err)
		}
		s.warm = append(s.warm, row{PID: pr.P.ID, QID: pr.Q.ID, CX: pr.Center.X, CY: pr.Center.Y, Radius: pr.Radius})
		s.warmFP.add(pr.P.ID, pr.Q.ID)
	}
	return s, nil
}

// joinOp is one measured join's outcome.
type joinOp struct {
	lat     time.Duration
	st      rcj.Stats
	dec     rcj.PlanDecision
	fp      fingerprint
	bytes   int
	encode  time.Duration
	resolve time.Duration
	err     error
}

// runJoinOp runs one full join the way cmd/rcjjoin does (planner-chosen
// algorithm, -parallel 1), encoding each pair with server.AppendPairCSV.
// With a tracer it records op → {resolve, run → encode} spans.
func (s *joinStack) runJoinOp(tr *tracer, buf []byte) (joinOp, []byte) {
	var op joinOp
	on := tr != nil
	var opID, runID int64
	var opStart, runStart time.Duration
	t0 := time.Now()
	if on {
		opID, opStart = tr.begin()
	}
	qry := rcj.Query{Parallelism: 1, Stats: &op.st}
	var resolved rcj.Query
	if on {
		id, st := tr.begin()
		resolved, op.dec = qry.Resolve(s.ixQ, s.ixP, false)
		tr.finish(id, opID, "resolve", st)
		op.resolve = tr.now() - st
		runID, runStart = tr.begin()
	} else {
		resolved, op.dec = qry.Resolve(s.ixQ, s.ixP, false)
	}
	for pr, err := range s.eng.Run(context.Background(), s.ixQ, s.ixP, resolved) {
		if err != nil {
			op.err = err
			break
		}
		if on {
			te := time.Now()
			buf = server.AppendPairCSV(buf[:0], pr)
			op.encode += time.Since(te)
		} else {
			buf = server.AppendPairCSV(buf[:0], pr)
		}
		op.bytes += len(buf)
		op.fp.add(pr.P.ID, pr.Q.ID)
	}
	if on {
		end := tr.now()
		tr.record(span{id: tr.nextID.Add(1), parent: runID, name: "encode", start: runStart, end: end, busy: op.encode})
		tr.record(span{id: runID, parent: opID, name: "run", start: runStart, end: end})
		tr.record(span{id: opID, name: "join", start: opStart, end: tr.now()})
	}
	op.lat = time.Since(t0)
	return op, buf
}

func runJoinBatch(e *env) error {
	P, Q, _ := inputs(e.seed, jbPoints, jbPoints)
	var st setupTimes
	var s *joinStack
	for rep := 0; rep < jbSetupReps; rep++ {
		if s != nil {
			s.close()
		}
		if err := st.time(func() (err error) {
			s, err = setupJoin(e, P, Q, rep)
			return err
		}); err != nil {
			return err
		}
	}
	defer s.close()
	res := e.res
	st.report(res)
	res.notes["join_batch"] = map[string]any{
		"points_per_input": jbPoints, "index_pages": s.indexPages, "buffer_pages": s.bufPages,
		"warm_pairs": len(s.warm),
	}
	// Check the warm-up answer now and drop it, so the measured pass holds
	// only what the program needs (the peak heap measures the program).
	checkJoinAnswer(res, e.seed, P, Q, s.warm)
	s.warm = nil

	tr := e.tr
	// One closed-loop pass. A traced run traces every other join, so the
	// traced and untraced joins of one pass see the same conditions and
	// their medians give the tracing overhead.
	var buf []byte
	var ops []joinOp
	b0 := s.eng.BufferStats()
	nh0, nm0 := s.eng.NodeCacheStats()
	m := startMeter()
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		var op joinOp
		if tr != nil && i%2 == 1 {
			op, buf = s.runJoinOp(tr, buf)
		} else {
			op, buf = s.runJoinOp(nil, buf)
		}
		ops = append(ops, op)
	}
	pm := m.end()
	b1 := s.eng.BufferStats()
	nh1, nm1 := s.eng.NodeCacheStats()

	lat := make([]float64, len(ops))
	pairs := 0
	for i, op := range ops {
		ok := op.err == nil && op.fp == s.warmFP && op.st.Results == int64(s.warmFP.n)
		switch {
		case op.err != nil:
			res.opError("join %d: %v", i, op.err)
		case !ok:
			res.problem("join %d: %d pairs (stats %d, fingerprint match %v), the checked answer has %d",
				i, op.fp.n, op.st.Results, op.fp == s.warmFP, s.warmFP.n)
		}
		res.op("join", ok)
		lat[i] = ms(op.lat)
		if ok {
			pairs += op.fp.n
		} else {
			lat[i] = math.Inf(1)
		}
	}
	res.readMetrics(lat, pairs, pm)
	res.e2e["index_bytes_per_point"] = float64(indexBytes(s.dir)) / float64(2*jbPoints)
	res.notes["ops"] = len(ops)
	plans := map[string]int{}
	for _, op := range ops {
		plans[planShape(op.dec.String())]++
	}
	res.notes["plans"] = plans

	if tr != nil {
		n := float64(len(ops))
		L := res.layer
		var tlat, ulat, qerr, resolveUS []float64
		var st rcj.Stats
		var bytes int
		for i, op := range ops {
			if i%2 == 1 {
				tlat = append(tlat, lat[i])
				resolveUS = append(resolveUS, float64(op.resolve)/float64(time.Microsecond))
			} else {
				ulat = append(ulat, lat[i])
			}
			qerr = append(qerr, qError(op.dec.EstAccesses, op.st.NodeAccesses))
			st.NodeAccesses += op.st.NodeAccesses
			st.Candidates += op.st.Candidates
			st.Results += op.st.Results
			st.NodesPruned += op.st.NodesPruned
			st.BoundKilledCandidates += op.st.BoundKilledCandidates
			bytes += op.bytes
		}
		L["storage.open_ms"] = s.openMS
		L["storage.page_reads"] = float64((b1.Misses-b0.Misses)-(nh1-nh0)) / n
		L["storage.load_wait_ms"] = ms(time.Duration(b1.LoadNanos-b0.LoadNanos)) / n
		bufferLayer(L, b1.Accesses-b0.Accesses, b1.Hits-b0.Hits, b1.Evictions-b0.Evictions, b1.SharedLoads-b0.SharedLoads, n)
		L["nodecache.hit_ratio"] = ratio(float64(nh1-nh0), float64((nh1-nh0)+(nm1-nm0)))
		coreLayer(L, st, n)
		L["encode.bytes_per_pair"] = ratio(float64(bytes), float64(st.Results))
		L["plan.qerror"] = median(qerr)
		L["plan.resolve_us"] = median(resolveUS)
		if t := tr.selfTimes()["join"]; t != nil {
			per := func(name string) float64 { return ms(t.self[name]) / float64(t.roots) }
			L["core.join_ms"] = per("run")
			L["encode.ms"] = per("encode")
			L["trace.client_ms"] = ms(t.total) / float64(t.roots)
		}
		L["trace.overhead_pct"] = 100 * (median(tlat)/median(ulat) - 1)
	}

	return nil
}

// checkJoinAnswer checks one full join answer with the oracle: every pair
// is sound, and the partners of sampled P points are complete.
func checkJoinAnswer(res *result, seed uint64, P, Q []rcj.Point, rows []row) {
	o := oracle.New(toOracle(P), toOracle(Q))
	if err := checkRows(o, rows, constraint{}); err != nil {
		res.problem("join answer: %v", err)
	}
	byP := map[int64]map[int64]bool{}
	for _, rw := range rows {
		if byP[rw.PID] == nil {
			byP[rw.PID] = map[int64]bool{}
		}
		byP[rw.PID][rw.QID] = true
	}
	sr := rng(seed, 3)
	for i := 0; i < jbSamples; i++ {
		pt := P[sr.IntN(len(P))]
		p := oracle.Point{X: pt.X, Y: pt.Y, ID: pt.ID}
		sure, _ := o.Partners(p)
		for _, q := range sure {
			if !byP[p.ID][q] {
				res.problem("join answer misses pair (%d,%d)", p.ID, q)
				break
			}
		}
	}
}

// qError is the planner's estimation error on node accesses:
// max(est, actual) / min(est, actual), 0 when either is missing.
func qError(est, actual int64) float64 {
	if est <= 0 || actual <= 0 {
		return 0
	}
	a, b := float64(est), float64(actual)
	return math.Max(a, b) / math.Min(a, b)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// bufferLayer fills the buffer.* metrics from pool counter deltas over n
// operations.
func bufferLayer(L map[string]float64, accesses, hits, evictions, shared int64, n float64) {
	L["buffer.accesses"] = float64(accesses) / n
	L["buffer.hit_ratio"] = ratio(float64(hits), float64(accesses))
	L["buffer.evictions"] = float64(evictions) / n
	L["buffer.shared_loads"] = float64(shared) / n
}

// coreLayer fills the core.* counts (per operation) from summed stats.
func coreLayer(L map[string]float64, st rcj.Stats, n float64) {
	L["core.node_accesses"] = float64(st.NodeAccesses) / n
	L["core.candidates"] = float64(st.Candidates) / n
	L["core.results"] = float64(st.Results) / n
	L["core.nodes_pruned"] = float64(st.NodesPruned) / n
	L["core.bound_killed"] = float64(st.BoundKilledCandidates) / n
	L["core.candidates_per_result"] = ratio(float64(st.Candidates), float64(st.Results))
}
