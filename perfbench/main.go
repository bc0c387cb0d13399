// Command perfbench is the repository benchmark. It generates every input
// from a seed, drives one workload through the program's public entry
// points (rcj, internal/server, internal/sched, internal/router) in this one
// process over loopback HTTP, checks every answer against an independent
// oracle, and prints the metrics as one JSON object on the last line of
// standard output.
//
//	perfbench --workload join_batch --seed 1 --seconds 30 --trace 0
//	perfbench --workload serve_sharded --seed 1 --seconds 30 --repeat 5
//
// --trace 0 prints the end-to-end metrics; --trace 1 traces every other
// operation and prints the per-layer metrics, with the tracing overhead
// measured between the traced and untraced operations of the same run.
// --repeat N runs the workload N times as child processes (seeds seed to
// seed+N-1) and prints each end-to-end metric's median and spread beside
// its bound from BENCHMARK.json. See README.md for the workloads and the
// metric mapping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) error{
	"join_batch":    runJoinBatch,
	"serve_sharded": runServeSharded,
	"live_churn":    runLiveChurn,
}

// env is one workload run: its parameters, its scratch directory, and what
// it measured.
type env struct {
	seed    uint64
	seconds float64
	traced  bool
	dir     string  // scratch directory for index files, removed at exit
	tr      *tracer // nil unless traced

	res *result
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: join_batch, serve_sharded, or live_churn")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 30, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
		repeat   = flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print medians and spreads")
		benchCfg = flag.String("bench-json", "BENCHMARK.json", "benchmark definition holding the metric bounds (for --repeat)")
		spans    = flag.String("spans", "", "with --trace 1, also write every recorded span to this file as NDJSON")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown --workload %q (want join_batch, serve_sharded, or live_churn)", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be > 0 and --trace 0 or 1")
	}
	if *repeat > 0 {
		if err := repeatRuns(*workload, *seed, *seconds, *trace, *repeat, *benchCfg); err != nil {
			fatalf("%v", err)
		}
		return
	}

	dir, err := os.MkdirTemp(".", ".perfbench-")
	if err != nil {
		fatalf("scratch directory: %v", err)
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, seconds: *seconds, traced: *trace == 1, dir: dir, res: newResult()}
	if e.traced {
		e.tr = newTracer()
	}
	if err := run(e); err != nil {
		os.RemoveAll(dir)
		fatalf("%s: %v", *workload, err)
	}
	if e.traced && *spans != "" {
		if err := e.tr.writeSpans(*spans); err != nil {
			os.RemoveAll(dir)
			fatalf("write spans: %v", err)
		}
	}
	e.res.print(os.Stdout, e.traced)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// Metric definitions. Every workload reports every metric of the set its
// mode prints; BENCHMARK.json lists the same names and units.
type metricDef struct{ name, unit string }

// endToEnd is the set printed in the result object of an untraced run:
// the metrics that repeat from run to run on a shared host.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_per_op_ref", "ref"},
	{"peak_heap_mb", "MB"},
	{"index_bytes_per_point", "B"},
}

// hostBound are the figures that follow how fast the host lets this
// machine's CPUs run at the time of the run — how much of them other
// tenants take (README.md, "Reference figures"). An untraced run prints
// them in its detail line, beside the CPU steal and the reference
// computation's time it saw, rather than in the result.
var hostBound = []metricDef{
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"ok_ops_per_s", "ops/s"},
	{"pairs_per_s", "pairs/s"},
	{"cpu_ms_per_op", "ms"},
	{"setup_wall_s", "s"},
}

// perLayer is the per-layer set printed in the JSON result of a traced run:
// every metric here is measured on every workload, or is a count or ratio
// that reads 0 where its layer is absent. Times that exist on one workload
// only (router, scheduler, HTTP and live-index latencies) are printed in the
// full table line instead; see README.md.
var perLayer = []metricDef{
	{"storage.open_ms", "ms"},
	{"storage.page_reads", "count"},
	{"buffer.accesses", "count"},
	{"buffer.hit_ratio", "ratio"},
	{"buffer.evictions", "count"},
	{"buffer.shared_loads", "count"},
	{"nodecache.hit_ratio", "ratio"},
	{"core.join_ms", "ms"},
	{"core.node_accesses", "count"},
	{"core.candidates", "count"},
	{"core.results", "count"},
	{"core.nodes_pruned", "count"},
	{"core.bound_killed", "count"},
	{"core.candidates_per_result", "ratio"},
	{"encode.ms", "ms"},
	{"encode.bytes_per_pair", "B"},
	{"plan.qerror", "ratio"},
	{"server.cache_hit_ratio", "ratio"},
	{"router.subqueries_per_query", "count"},
	{"router.shards_pruned_share", "ratio"},
	{"router.dedup_pairs", "count"},
	{"live.delta_points_mean", "count"},
	{"live.compactions", "count"},
	{"live.resyncs", "count"},
	{"trace.client_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// tableOnly are per-layer times measured only where their layer does work
// (the served workloads' indexes fit in memory, so their buffer never
// waits for a load), and the batcher's share, which stays near 0 under this
// load (see README.md); a traced run prints them (value or null) in its
// table line.
var tableOnly = []metricDef{
	{"storage.load_wait_ms", "ms"},
	{"plan.resolve_us", "us"},
	{"sched.queue_wait_ms_p50", "ms"},
	{"sched.join_ms_p50", "ms"},
	{"sched.batched_share", "ratio"},
	{"server.handler_ms", "ms"},
	{"http.overhead_ms", "ms"},
	{"router.self_ms", "ms"},
	{"live.apply_ms", "ms"},
	{"live.compact_s", "s"},
	{"live.stall_ms", "ms"},
	{"live.write_ms_p50", "ms"},
	{"live.write_ms_tail", "ms"},
	{"live.fresh_ms_p50", "ms"},
	{"loadgen.late_ms_p50", "ms"},
	{"loadgen.late_ms_max", "ms"},
}

// result accumulates one run's outcome.
type result struct {
	attempted map[string]int
	failed    map[string]int
	problems  []string // wrong answers: they make the run incorrect
	errs      []string // failed operations (status, in-band error, truncation)
	e2e       map[string]float64
	layer     map[string]float64
	notes     map[string]any // workload facts printed in the table line
}

func newResult() *result {
	return &result{
		attempted: map[string]int{}, failed: map[string]int{},
		e2e: map[string]float64{}, layer: map[string]float64{}, notes: map[string]any{},
	}
}

// op counts one attempted operation of a type, failed or not.
func (r *result) op(kind string, ok bool) {
	r.attempted[kind]++
	if !ok {
		r.failed[kind]++
	}
}

// problem records an answer that failed a check.
func (r *result) problem(format string, args ...any) {
	if len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// opError records why an operation failed before its answer could be
// checked.
func (r *result) opError(format string, args ...any) {
	if len(r.errs) < 50 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the detail line (per-type counts, notes, and in a traced run
// the full per-layer table) and then the result object as the last line.
func (r *result) print(w *os.File, traced bool) {
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", e)
	}
	detail := map[string]any{"attempted_by_type": r.attempted, "failed_by_type": r.failed, "notes": r.notes}
	defs := endToEnd
	vals := r.e2e
	if traced {
		defs, vals = perLayer, r.layer
		table := map[string]any{}
		for _, d := range append(append([]metricDef(nil), perLayer...), tableOnly...) {
			if v, ok := r.layer[d.name]; ok {
				table[d.name] = metricValue{v, d.unit}
			} else {
				table[d.name] = nil
			}
		}
		detail["per_layer_table"] = table
	} else {
		host := map[string]any{}
		for _, d := range hostBound {
			if v, ok := r.e2e[d.name]; ok {
				host[d.name] = metricValue{v, d.unit}
			}
		}
		detail["host_bound"] = host
		extra := map[string]any{}
		for _, d := range tableOnly {
			if v, ok := r.layer[d.name]; ok {
				extra[d.name] = metricValue{v, d.unit}
			}
		}
		detail["workload_latencies"] = extra
	}
	line, _ := json.Marshal(detail)
	fmt.Fprintln(w, string(line))
	metrics := map[string]metricValue{}
	for _, d := range defs {
		metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	out, _ := json.Marshal(map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": sum(r.attempted),
		"failed":    sum(r.failed),
		"metrics":   metrics,
	})
	fmt.Fprintln(w, string(out))
}

// indexBytes sums the sizes of the index files under dir (every .rcjx file:
// shard copies and sealed live generations included).
func indexBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".rcjx") {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, with its label ("p80"), or ok=false below 40 samples.
// Failed operations enter as +Inf, so they count as missing any limit.
func tail(xs []float64) (v float64, label string, ok bool) {
	n := len(xs)
	if n < 40 {
		return 0, "", false
	}
	sort.Float64s(xs)
	// The k-th smallest value (1-based) has n-k samples beyond it.
	k := n - 10
	pct := 100 * float64(k) / float64(n)
	return xs[k-1], fmt.Sprintf("p%.4g", pct), true
}

// readMetrics fills the end-to-end and host-bound metrics of a measured
// pass from its read latencies in ms (failed reads as +Inf, so they miss
// any limit), the pairs its correct reads delivered, and what the meter
// measured.
func (r *result) readMetrics(lat []float64, pairs int, pm pass) {
	ok := 0
	for _, l := range lat {
		if !math.IsInf(l, 1) {
			ok++
		}
	}
	r.e2e["op_ms_p50"] = median(append([]float64(nil), lat...))
	r.notes["op_ms_p50_by_quarter"] = quarterMedians(lat)
	if v, label, found := tail(append([]float64(nil), lat...)); found {
		r.e2e["op_ms_tail"] = v
		r.notes["op_tail_percentile"] = label
	}
	r.e2e["ok_ops_per_s"] = float64(ok) / pm.wall.Seconds()
	r.e2e["pairs_per_s"] = float64(pairs) / pm.wall.Seconds()
	cpuPerOp := ms(pm.cpu) / float64(len(lat))
	r.e2e["cpu_ms_per_op"] = cpuPerOp
	if pm.refMS > 0 {
		r.e2e["cpu_per_op_ref"] = cpuPerOp / pm.refMS
	} else {
		r.problem("the reference computation could not be timed: no thread CPU clock")
	}
	r.e2e["peak_heap_mb"] = pm.peakMB
	r.notes["cpu_steal_share"] = pm.steal
	r.notes["ref_cpu_ms"] = pm.refMS
}

// setupTimes times a workload's repeated set-ups. setup_s is the median
// of their process CPU times: stolen time is not CPU time, so it does not
// move with how much of the machine other tenants take, while work moved
// into set-up still shows. Their median wall time is printed beside it.
type setupTimes struct{ cpu, wall []float64 }

func (t *setupTimes) time(setup func() error) error {
	w0, c0 := time.Now(), processCPU()
	err := setup()
	t.cpu = append(t.cpu, (processCPU() - c0).Seconds())
	t.wall = append(t.wall, time.Since(w0).Seconds())
	return err
}

func (t *setupTimes) report(r *result) {
	r.e2e["setup_s"] = median(t.cpu)
	r.e2e["setup_wall_s"] = median(t.wall)
}

// quarterMedians returns the median of each quarter of xs, in order: how
// latency drifts over a run.
func quarterMedians(xs []float64) []float64 {
	var out []float64
	for q := 0; q < 4; q++ {
		part := append([]float64(nil), xs[q*len(xs)/4:(q+1)*len(xs)/4]...)
		out = append(out, median(part))
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
