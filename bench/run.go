package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hybridstore"
)

// sample is one request as a lane saw it. Times are nanoseconds since
// the drive's epoch, read from the monotonic clock.
type sample struct {
	start, dur int64
	op         opKind
	ok         bool // status 200 and no transport error
}

// laneSpan is what a lane records per request while tracing is on: the
// pointer-free part of a span.
type laneSpan struct {
	req        uint64
	start, end int64
	op         opKind
}

// span is one traced interval. Spans of one request share req; parent is
// the id of the span that caused this one (0: none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Req     uint64 `json:"req"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// lane is one closed-loop client: it sends its next request when the
// previous one has been answered.
type lane struct {
	id      int
	fx      *fixture
	gen     *generator
	conn    *httpConn
	body    []byte
	samples []sample
	spans   []laneSpan
	ver     *verifier
	issued  int
	// tamper, set by tests only, may corrupt a response before the
	// verifier sees it.
	tamper func(n int, resp []byte)
}

// samplesPerLaneSecond sizes the preallocated record buffers so that
// recording does not allocate inside a measured window.
const samplesPerLaneSecond = 40000

func recordCap(total time.Duration) int { return int(total.Seconds()+1) * samplesPerLaneSecond }

func newLanes(fx *fixture, seed int64, total time.Duration, ver *verifier) ([]*lane, error) {
	lanes := make([]*lane, len(fx.w.lanes))
	n := recordCap(total)
	for i := range lanes {
		c, err := dial(fx.addr())
		if err != nil {
			return nil, err
		}
		lanes[i] = &lane{
			id: i, fx: fx, conn: c, ver: ver,
			gen:     newGenerator(fx.w, i, seed),
			samples: offHeap[sample](n),
			spans:   offHeap[laneSpan](n),
		}
	}
	return lanes, nil
}

func (l *lane) run(epoch time.Time, tracing, stop *atomic.Bool) {
	for !stop.Load() {
		q := l.gen.next()
		l.body = appendBody(l.body[:0], l.fx.sid, &l.fx.stmts, q)
		t0 := time.Since(epoch)
		code, resp, err := l.conn.post("/v1/exec", l.body)
		t1 := time.Since(epoch)
		ok := err == nil && code == 200
		l.samples = append(l.samples, sample{start: int64(t0), dur: int64(t1 - t0), op: q.op, ok: ok})
		if tracing.Load() {
			l.spans = append(l.spans, laneSpan{req: uint64(l.id)<<32 | uint64(l.issued), start: int64(t0), end: int64(t1), op: q.op})
		}
		if ok {
			if l.tamper != nil {
				l.tamper(l.issued, resp)
			}
			l.ver.observe(l.id, l.issued, q, resp)
		}
		l.issued++
		if err != nil {
			// The connection is in an unknown state: start a fresh one.
			l.conn.close()
			c, err := dial(l.fx.addr())
			if err != nil {
				return
			}
			l.conn = c
		}
	}
}

// mark is everything the harness reads from outside the program at a
// phase boundary; windows are reported as the difference of two marks.
type mark struct {
	at       int64
	mem      runtime.MemStats
	obs      hybridstore.MetricsSnapshot
	res      hybridstore.ResultCacheStats
	dev      hybridstore.DeviceCacheStats
	simSecs  float64
	walBytes int64
}

func takeMark(fx *fixture, epoch time.Time) mark {
	m := mark{
		obs:      hybridstore.Metrics(),
		res:      fx.db.ResultCacheStats(),
		dev:      fx.db.DeviceCacheStats(),
		simSecs:  fx.db.SimulatedSeconds(),
		walBytes: fx.walBytes(),
	}
	runtime.ReadMemStats(&m.mem)
	m.at = int64(time.Since(epoch))
	return m
}

// upkeep is one maintenance call the harness made on the embedding
// application's behalf.
type upkeep struct {
	at              int64
	pendingVersions int64 // unmerged MVCC versions just before the merge
	mergeNs, ckptNs int64
}

type phase struct {
	dur   time.Duration
	trace bool
}

// drive runs the lanes through the phases back to back and returns the
// mark at the start of each phase plus one at the end, and the upkeep
// calls made meanwhile.
func drive(fx *fixture, lanes []*lane, phases []phase, every time.Duration) ([]mark, []upkeep, error) {
	var (
		tracing, stop atomic.Bool
		wg            sync.WaitGroup
		upkeeps       []upkeep
		upkeepErr     error
		quit          = make(chan struct{})
		upkeepDone    = make(chan struct{})
	)
	base := hybridstore.Metrics()
	epoch := time.Now()
	for _, l := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			l.run(epoch, &tracing, &stop)
		}(l)
	}
	go func() {
		defer close(upkeepDone)
		if every <= 0 {
			return
		}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			u := upkeep{at: int64(time.Since(epoch))}
			// Table.Stats is not safe beside writers; the transaction
			// counters are, and every committed update is one version
			// until a merge prunes it.
			now := hybridstore.Metrics()
			u.pendingVersions = (now.Counter("tx.commits") - base.Counter("tx.commits")) -
				(now.Counter("tx.versions_pruned") - base.Counter("tx.versions_pruned"))
			t0 := time.Now()
			err := fx.tbl.Merge()
			u.mergeNs = int64(time.Since(t0))
			if err == nil && fx.w.durable {
				t0 = time.Now()
				err = fx.db.Checkpoint()
				u.ckptNs = int64(time.Since(t0))
			}
			if err != nil {
				upkeepErr = err
				return
			}
			upkeeps = append(upkeeps, u)
		}
	}()

	marks := make([]mark, 0, len(phases)+1)
	for _, p := range phases {
		tracing.Store(p.trace)
		marks = append(marks, takeMark(fx, epoch))
		time.Sleep(p.dur)
	}
	marks = append(marks, takeMark(fx, epoch))
	stop.Store(true)
	close(quit)
	wg.Wait()
	<-upkeepDone
	for _, l := range lanes {
		l.conn.close()
	}
	return marks, upkeeps, upkeepErr
}

// interval is the stretch between two marks.
type interval struct{ m0, m1 mark }

// window is what happened inside a set of intervals of one drive.
type window struct {
	w        *workload
	ivs      []interval
	seconds  float64
	lat      [numClasses][]int64 // sorted latencies (ns) of 200-responses
	laneOK   []int               // 200-responses per lane
	ok       int
	failed   int // non-200 and transport errors
	attempts int
	writes   int // 200-responses of class write
	scans    int // 200-responses of classes sum and group
	upkeeps  []upkeep
}

func (win *window) covers(at int64) bool {
	for _, iv := range win.ivs {
		if at >= iv.m0.at && at < iv.m1.at {
			return true
		}
	}
	return false
}

// collect assembles the window made of ivs: a request belongs to the
// interval it completed in.
func collect(w *workload, lanes []*lane, upkeeps []upkeep, ivs ...interval) *window {
	win := &window{w: w, ivs: ivs, laneOK: make([]int, len(lanes))}
	for _, iv := range ivs {
		win.seconds += float64(iv.m1.at-iv.m0.at) / 1e9
	}
	for i, l := range lanes {
		for _, s := range l.samples {
			if !win.covers(s.start + s.dur) {
				continue
			}
			win.attempts++
			if !s.ok {
				win.failed++
				continue
			}
			win.ok++
			win.laneOK[i]++
			c := opClass[s.op]
			win.lat[c] = append(win.lat[c], s.dur)
		}
	}
	for c := range win.lat {
		sort.Slice(win.lat[c], func(i, j int) bool { return win.lat[c][i] < win.lat[c][j] })
	}
	win.writes = len(win.lat[classWrite])
	win.scans = len(win.lat[classSum]) + len(win.lat[classGroup])
	for _, u := range upkeeps {
		if win.covers(u.at) {
			win.upkeeps = append(win.upkeeps, u)
		}
	}
	return win
}

func (win *window) perSecond(n int) float64 { return float64(n) / win.seconds }

// delta sums, over the window's intervals, the growth of a cumulative
// reading.
func (win *window) delta(read func(*mark) float64) float64 {
	var d float64
	for i := range win.ivs {
		d += read(&win.ivs[i].m1) - read(&win.ivs[i].m0)
	}
	return d
}

func (win *window) counter(name string) float64 {
	return win.delta(func(m *mark) float64 { return float64(m.obs.Counter(name)) })
}

// last is the mark that closes the window.
func (win *window) last() *mark { return &win.ivs[len(win.ivs)-1].m1 }

// metric is one reported number.
type metric struct {
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	// N is the sample count behind a percentile or a mean, 0 for a plain
	// count or ratio.
	N int `json:"n"`
	// Note says what was reported in place of the named percentile when
	// the class was too thin for it.
	Note string `json:"note,omitempty"`
}

type metricSet struct {
	workload string
	list     []metric
}

func (ms *metricSet) add(name string, v float64, unit string, n int) {
	ms.list = append(ms.list, metric{Name: name, Workload: ms.workload, Value: v, Unit: unit, N: n})
}

// addPercentile reports the p-quantile of sorted under name, or the
// highest percentile the sample supports when it is too thin for p.
func (ms *metricSet) addPercentile(name string, sorted []int64, p float64) {
	v, used := percentileOrFallback(sorted, p)
	m := metric{Name: name, Workload: ms.workload, Value: float64(v) / 1e3, Unit: "us", N: len(sorted)}
	if used != p && len(sorted) > 0 {
		m.Note = fmt.Sprintf("p%.4g reported: fewer than %d samples beyond p%g", used*100, tailSamples, p*100)
	}
	ms.list = append(ms.list, m)
}

// tailSamples is how many samples must lie beyond a percentile for it
// to be reported.
const tailSamples = 10

// percentile is the exact nearest-rank p-quantile of a sorted sample.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// percentileOrFallback returns the p-quantile when at least tailSamples
// samples lie beyond it, otherwise the highest percentile (not below the
// median) for which that holds, and the percentile it used.
func percentileOrFallback(sorted []int64, p float64) (int64, float64) {
	n := len(sorted)
	if float64(n)*(1-p) < tailSamples {
		p = math.Max(0.5, 1-float64(tailSamples)/float64(n)) // n == 0 gives 0.5 too
	}
	return percentile(sorted, p), p
}

// endToEnd derives the gated metrics of one untraced window.
func endToEnd(win *window, ms *metricSet) {
	w := win.w
	ms.add("ops_per_s", win.perSecond(win.ok), "1/s", win.ok)
	if w.oltpRate {
		n := len(win.lat[classPoint]) + len(win.lat[classWrite])
		ms.add("oltp_ops_per_s", win.perSecond(n), "1/s", n)
	}
	if w.olapRate {
		ms.add(w.gatedName("olap_q_per_s"), win.perSecond(win.scans), "1/s", win.scans)
	}
	for c := class(0); c < numClasses; c++ {
		if w.issues(c) {
			ms.addPercentile(w.gatedName(className[c]+"_p50_us"), win.lat[c], 0.50)
		}
	}
	for _, c := range []class{classPoint, classWrite, classSum} {
		if w.issues(c) {
			ms.addPercentile(w.gatedName(className[c]+"_p95_us"), win.lat[c], 0.95)
		}
	}
	alloc := win.delta(func(m *mark) float64 { return float64(m.mem.TotalAlloc) })
	ms.add("alloc_kib_per_op", alloc/1024/float64(max(win.ok, 1)), "KiB", win.ok)
	// The universal metrics: defined on every workload, so the driver can
	// gate them everywhere (BENCHMARK.json lists exactly these).
	for i, n := range win.laneOK {
		ms.add("lane"+strconv.Itoa(i)+"_ops_per_s", win.perSecond(n), "1/s", n)
	}
	ms.addPercentile("primary_p95_us", win.lat[w.primary], 0.95)
}
