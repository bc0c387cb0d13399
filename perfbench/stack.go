package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/sched"
	"repro/internal/server"
	"repro/rcj"
)

// rcjd's flag defaults (cmd/rcjd): the benchmark serves the configuration
// that ships.
const (
	rcjdBuffer        = 4096
	rcjdMaxConcurrent = 2
	rcjdMaxQueue      = 16
	rcjdQueueTimeout  = 5 * time.Second
	rcjdResultCache   = 256
)

// worker is one in-process rcjd: engine, scheduler, server, and a loopback
// listener.
type worker struct {
	eng *rcj.Engine
	srv *server.Server
	hs  *http.Server
	url string
}

// startWorker assembles a worker the way server.RunDaemon does, lets load
// register its indexes, and starts serving. With a tracer the handler is
// wrapped so each request records a "worker" span.
func startWorker(tr *tracer, load func(*server.Server) error) (*worker, error) {
	eng := rcj.NewEngine(rcj.EngineConfig{BufferPages: rcjdBuffer})
	sch := sched.New(eng, sched.Config{
		MaxConcurrent: rcjdMaxConcurrent,
		MaxQueue:      rcjdMaxQueue,
		QueueTimeout:  rcjdQueueTimeout,
		Batch:         sched.BatchConfig{Enabled: true, MaxRequests: sched.DefaultBatchMaxRequests},
	})
	srv := server.New(sch, server.Config{Backend: rcj.BackendMem,
		ResultCacheEntries: rcjdResultCache, ResultCachePairs: server.DefaultResultCachePairs})
	if err := load(srv); err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.wrapHandler("worker", h)
	}
	w, err := serve(h)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &worker{eng: eng, srv: srv, hs: w.hs, url: w.url}, nil
}

type listening struct {
	hs  *http.Server
	url string
}

// serve starts an HTTP server for h on a loopback port.
func serve(h http.Handler) (listening, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return listening{}, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return listening{hs: hs, url: "http://" + ln.Addr().String()}, nil
}

// stop shuts the HTTP server down (waiting for in-flight handlers) and
// closes the worker's indexes.
func (w *worker) stop() {
	shutdown(w.hs)
	w.srv.Close()
}

func shutdown(hs *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if hs.Shutdown(ctx) != nil {
		hs.Close()
	}
}

// newClient returns the load generator's HTTP client: at most conns
// request connections, as one client process on this machine would open.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// summary is the trailing statistics line of a /join stream, as both the
// worker and the router write it (the router's has no plan).
type summary struct {
	Results      int64  `json:"results"`
	Candidates   int64  `json:"candidates"`
	NodeAccesses int64  `json:"node_accesses"`
	PageFaults   int64  `json:"page_faults"`
	NodesPruned  int64  `json:"nodes_pruned"`
	BoundKilled  int64  `json:"bound_killed_candidates"`
	Plan         string `json:"plan"`
}

// estAccesses extracts est_accesses from a plan string (0 if absent).
func (s summary) estAccesses() int64 {
	i := bytes.Index([]byte(s.Plan), []byte("est_accesses="))
	if i < 0 {
		return 0
	}
	rest := s.Plan[i+len("est_accesses="):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, _ := strconv.ParseInt(rest[:j], 10, 64)
	return n
}

// planShape is a plan string without its cost estimate: the algorithm,
// parallelism, rule and predicate order the planner resolved.
func planShape(plan string) string {
	shape, _, _ := strings.Cut(plan, " est_accesses=")
	return shape
}

// answer is one parsed /join response.
type answer struct {
	rows    []row
	raw     [][]byte // NDJSON row lines as received (traced runs only)
	summary summary
	err     error // transport error, non-200 status, in-band error, or truncation
}

// postJoin sends one /join request and reads the whole NDJSON stream. The
// span ID, when non-zero, travels in spanHeader.
func postJoin(ctx context.Context, c *http.Client, url string, body any, spanID int64, keepRaw bool) answer {
	var a answer
	payload, err := json.Marshal(body)
	if err != nil {
		a.err = err
		return a
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/join", bytes.NewReader(payload))
	if err != nil {
		a.err = err
		return a
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		a.err = err
		return a
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		a.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return a
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	gotSummary := false
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte(`{"p_id":`)):
			var rw row
			if err := json.Unmarshal(line, &rw); err != nil {
				a.err = fmt.Errorf("bad row %.80q: %v", line, err)
				return a
			}
			a.rows = append(a.rows, rw)
			if keepRaw {
				a.raw = append(a.raw, append([]byte(nil), line...))
			}
		case bytes.HasPrefix(line, []byte(`{"summary":`)):
			var s struct{ Summary summary }
			if err := json.Unmarshal(line, &s); err != nil {
				a.err = fmt.Errorf("bad summary: %v", err)
				return a
			}
			a.summary, gotSummary = s.Summary, true
		default:
			a.err = fmt.Errorf("in-band error: %.200s", line)
			return a
		}
	}
	if err := sc.Err(); err != nil {
		a.err = err
	} else if !gotSummary {
		a.err = fmt.Errorf("truncated stream: no summary after %d rows", len(a.rows))
	}
	return a
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// workerMetrics is the subset of a worker's GET /metrics the benchmark
// reads.
type workerMetrics struct {
	Sched       sched.Snapshot `json:"sched"`
	ResultCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"result_cache"`
}

// histP50 interpolates the median of a scheduler histogram, in ms.
func histP50(h sched.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	half := float64(h.Count) / 2
	var cum float64
	lo := 0.0
	for i, c := range h.Counts {
		hi := lo * 2
		if i < len(h.BoundsSeconds) {
			hi = h.BoundsSeconds[i]
		}
		if cum+float64(c) >= half && c > 0 {
			return 1000 * (lo + (hi-lo)*(half-cum)/float64(c))
		}
		cum += float64(c)
		lo = hi
	}
	return 1000 * lo
}

// histDiff subtracts an earlier snapshot of the same histogram.
func histDiff(a, b sched.HistogramSnapshot) sched.HistogramSnapshot {
	out := sched.HistogramSnapshot{BoundsSeconds: a.BoundsSeconds, Counts: make([]int64, len(a.Counts))}
	for i := range a.Counts {
		out.Counts[i] = a.Counts[i]
		if i < len(b.Counts) {
			out.Counts[i] -= b.Counts[i]
		}
		out.Count += out.Counts[i]
	}
	out.SumSeconds = a.SumSeconds - b.SumSeconds
	return out
}

// meter measures one pass: its wall and CPU time; the process's Go heap
// in use (live and not yet swept objects), sampled every millisecond; the
// machine's CPU steal (time the hypervisor ran something else while this
// machine's CPUs had work); and, every refEvery, the CPU time of one fixed
// reference computation on a thread of its own, which shows how fast the
// host let a CPU run during the pass.
type meter struct {
	t0     time.Time
	cpu0   time.Duration
	steal0 [2]uint64
	stop   chan struct{}
	wg     sync.WaitGroup
	heap   []float64       // every sample, in MB
	ref    []time.Duration // CPU time of each reference computation
}

// refEvery is how often the meter runs the reference computation: about
// 2% of one CPU.
const refEvery = 250 * time.Millisecond

// pass is what a meter measured over one pass.
type pass struct {
	wall, cpu time.Duration // cpu leaves out the reference computations
	peakMB    float64       // p99 of the heap samples
	refMS     float64       // median CPU time of one reference computation
	steal     float64       // share of the machine's CPU time stolen
}

func startMeter() *meter {
	runtime.GC() // start every pass from the same settled heap
	m := &meter{t0: time.Now(), cpu0: processCPU(), steal0: stealTicks(), stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		m.heap = append(m.heap, float64(sample[0].Value.Uint64())/(1<<20))
	}
	m.wg.Add(2)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-m.stop:
				read()
				return
			case <-tick.C:
			}
		}
	}()
	go func() {
		defer m.wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		buf, keys := make([]float64, 1<<15), make(map[uint64]uint32, 1<<12)
		for {
			t0 := threadCPU()
			refWork(buf, keys)
			m.ref = append(m.ref, threadCPU()-t0)
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// end stops the sampling and returns what the pass measured. The peak heap
// is the 99th percentile of the millisecond samples, so that no single
// sample's timing against the collector decides it.
func (m *meter) end() pass {
	p := pass{wall: time.Since(m.t0), cpu: processCPU() - m.cpu0}
	close(m.stop)
	m.wg.Wait()
	s := stealTicks()
	p.steal = ratio(float64(s[0]-m.steal0[0]), float64(s[1]-m.steal0[1]))
	sort.Float64s(m.heap)
	p.peakMB = m.heap[len(m.heap)*99/100]
	refs := make([]float64, len(m.ref))
	for i, d := range m.ref {
		p.cpu -= d
		refs[i] = ms(d)
	}
	p.refMS = median(refs)
	return p
}

// refWork is the reference computation: it fills buf (32768 floats) from
// a xorshift generator, sorts it, and inserts 4096 keys into keys — a few
// milliseconds of the comparisons, branches and memory traffic most Go
// code is made of, independent of the program. Its CPU time moves only
// with the speed of the CPU it runs on.
func refWork(buf []float64, keys map[uint64]uint32) {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range buf {
		buf[i] = float64(next() >> 11)
	}
	sort.Float64s(buf)
	clear(keys)
	for i := range 1 << 12 {
		keys[next()] = uint32(i)
	}
}

// threadCPU returns the CPU time of the calling thread, or 0 where the
// clock cannot be read. (getrusage's per-thread times advance in whole
// scheduler ticks, too coarse for a few milliseconds.)
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID

// stealTicks reads the steal and total ticks of /proc/stat's cpu line.
func stealTicks() [2]uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var out [2]uint64
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		out[1] += n
		if i == 7 {
			out[0] = n
		}
	}
	return out
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
