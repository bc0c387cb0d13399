package main

import (
	"net/http"
	"time"

	"repro/internal/buffer"
	"repro/internal/sched"
)

// servingSnap is the counter state of a serving stack at one instant: each
// worker's engine and /metrics, and the router's /metrics when present.
type servingSnap struct {
	pool             buffer.Stats
	nodeHits, nodeMs int64
	queueWait, join  sched.HistogramSnapshot
	admitted         int64
	batched          int64
	cacheHits        int64
	cacheMisses      int64
	router           routerMetrics
}

// routerMetrics is the subset of the router's GET /metrics the benchmark
// reads.
type routerMetrics struct {
	Requests        int64 `json:"requests"`
	Subqueries      int64 `json:"subqueries"`
	ShardsContacted int64 `json:"shards_contacted"`
	ShardsPruned    int64 `json:"shards_pruned"`
	DedupDropped    int64 `json:"dedup_dropped"`
}

func snapshotServing(ws []*worker, c *http.Client, routerURL string) servingSnap {
	var s servingSnap
	for _, w := range ws {
		b := w.eng.BufferStats()
		s.pool.Accesses += b.Accesses
		s.pool.Hits += b.Hits
		s.pool.Misses += b.Misses
		s.pool.Evictions += b.Evictions
		s.pool.SharedLoads += b.SharedLoads
		s.pool.LoadNanos += b.LoadNanos
		h, m := w.eng.NodeCacheStats()
		s.nodeHits += h
		s.nodeMs += m
		var wm workerMetrics
		if getJSON(c, w.url+"/metrics", &wm) == nil {
			s.queueWait = histAdd(s.queueWait, wm.Sched.QueueWait)
			s.join = histAdd(s.join, wm.Sched.JoinLatency)
			s.admitted += wm.Sched.Admitted
			s.batched += wm.Sched.BatchedRequests
			s.cacheHits += wm.ResultCache.Hits
			s.cacheMisses += wm.ResultCache.Misses
		}
	}
	if routerURL != "" {
		getJSON(c, routerURL+"/metrics", &s.router)
	}
	return s
}

// histAdd sums two snapshots of histograms with the same buckets.
func histAdd(a, b sched.HistogramSnapshot) sched.HistogramSnapshot {
	if a.Counts == nil {
		a = sched.HistogramSnapshot{BoundsSeconds: b.BoundsSeconds, Counts: make([]int64, len(b.Counts))}
	}
	for i := range b.Counts {
		a.Counts[i] += b.Counts[i]
	}
	a.Count += b.Count
	a.SumSeconds += b.SumSeconds
	return a
}

// servingLayers fills the layer metrics a serving stack's counters give,
// from their change between two snapshots over n client operations.
func servingLayers(L map[string]float64, a, b servingSnap, n float64) {
	misses := b.pool.Misses - a.pool.Misses
	nodeHits := b.nodeHits - a.nodeHits
	L["storage.page_reads"] = float64(misses-nodeHits) / n
	L["storage.load_wait_ms"] = ms(time.Duration(b.pool.LoadNanos-a.pool.LoadNanos)) / n
	bufferLayer(L, b.pool.Accesses-a.pool.Accesses, b.pool.Hits-a.pool.Hits,
		b.pool.Evictions-a.pool.Evictions, b.pool.SharedLoads-a.pool.SharedLoads, n)
	L["nodecache.hit_ratio"] = ratio(float64(nodeHits), float64(nodeHits+b.nodeMs-a.nodeMs))
	qw, jl := histDiff(b.queueWait, a.queueWait), histDiff(b.join, a.join)
	L["sched.queue_wait_ms_p50"] = histP50(qw)
	L["sched.join_ms_p50"] = histP50(jl)
	// The scheduler times each admitted join from slot grant to stream end:
	// the nearest the served workloads get to the core's own time.
	L["core.join_ms"] = 1000 * ratio(jl.SumSeconds, float64(jl.Count))
	L["sched.batched_share"] = ratio(float64(b.batched-a.batched), float64(b.admitted-a.admitted))
	hits, lookups := b.cacheHits-a.cacheHits, (b.cacheHits-a.cacheHits)+(b.cacheMisses-a.cacheMisses)
	L["server.cache_hit_ratio"] = ratio(float64(hits), float64(lookups))
	if req := float64(b.router.Requests - a.router.Requests); req > 0 {
		L["router.subqueries_per_query"] = float64(b.router.Subqueries-a.router.Subqueries) / req
		contacted := b.router.ShardsContacted - a.router.ShardsContacted
		pruned := b.router.ShardsPruned - a.router.ShardsPruned
		L["router.shards_pruned_share"] = ratio(float64(pruned), float64(contacted+pruned))
		L["router.dedup_pairs"] = float64(b.router.DedupDropped-a.router.DedupDropped) / req
	}
}

// lateLayer reports how late the open-loop generator dispatched operations.
func lateLayer(L map[string]float64, late []time.Duration) {
	xs := make([]float64, len(late))
	worst := 0.0
	for i, d := range late {
		xs[i] = ms(d)
		worst = max(worst, xs[i])
	}
	L["loadgen.late_ms_p50"] = median(xs)
	L["loadgen.late_ms_max"] = worst
}
