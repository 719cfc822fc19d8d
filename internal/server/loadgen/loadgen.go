// Package loadgen is the warp-style concurrent load harness for the
// serving layer: a swarm of client lanes drives the HTTP front end
// with a configurable mix of point writes, zipfian point reads,
// predicate sums and grouped aggregations, in closed-loop (next
// request after the last response) or open-loop (fixed arrival rate)
// mode, and reports wall-clock throughput plus p50/p95/p99 latency per
// operation class, with the storage passes the server's scan cohorts
// ran and the plans they carried.
//
// Analytic predicates are drawn from a small fixed set of cuts, so
// concurrent lanes issue compatible queries and the server's batching
// scheduler has real collapse opportunities — the same shape a fleet
// of dashboard clients produces. With Unique set they are instead
// practically unique ranges (UniqueCut), which the result cache rarely
// answers: nearly every analytic request reaches a scan.
//
// With AutoTerm set, the run self-terminates once throughput
// stabilizes: when the last few window QPS samples stay within a
// relative spread, more wall time cannot change the story.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridstore/internal/exec"
	"hybridstore/internal/obs"
)

// Class indexes one operation class of the mix.
type Class int

// The operation classes.
const (
	ClassWrite Class = iota // point price update
	ClassPoint              // point read (get) with zipfian row IDs
	ClassSum                // predicate sum (sum_where)
	ClassGroup              // fused grouped aggregation (group_sum_where)
	numClasses
)

var className = [numClasses]string{"write", "point", "sum", "group"}

// classCacheOp maps a class to its server-side result-cache counter
// namespace (server.cache.<op>.*); writes never consult the cache.
var classCacheOp = [numClasses]string{"", "get", "sum_where", "group_sum_where"}

// Mix is the operation mix in percent. Fields need not total exactly
// 100; draws are weighted by the given shares.
type Mix struct {
	Write, Point, Sum, Group int
}

// DefaultMix is a write-light hybrid serving mix with a zipfian
// point-read lane — the shape a dashboard fleet plus an OLTP app
// produces.
var DefaultMix = Mix{Write: 20, Point: 20, Sum: 45, Group: 15}

// ParseMix parses "write=20,point=20,sum=45,group=15" (classes may be
// omitted).
func ParseMix(s string) (Mix, error) {
	var m Mix
	if strings.TrimSpace(s) == "" {
		return DefaultMix, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return m, fmt.Errorf("loadgen: bad mix element %q", part)
		}
		var n int
		if _, err := fmt.Sscanf(kv[1], "%d", &n); err != nil || n < 0 {
			return m, fmt.Errorf("loadgen: bad mix share %q", part)
		}
		switch kv[0] {
		case "write":
			m.Write = n
		case "point":
			m.Point = n
		case "sum":
			m.Sum = n
		case "group":
			m.Group = n
		default:
			return m, fmt.Errorf("loadgen: unknown mix class %q", kv[0])
		}
	}
	if m.Write+m.Point+m.Sum+m.Group == 0 {
		return m, fmt.Errorf("loadgen: empty mix %q", s)
	}
	return m, nil
}

// Options configures a run.
type Options struct {
	// BaseURL is the serving endpoint, e.g. "http://127.0.0.1:8080". Its
	// table "item" must follow the item schema's column layout.
	BaseURL string
	// Rows is the row-id domain point writes draw from. Required for a
	// mix with writes.
	Rows uint64
	// Concurrency is the number of client lanes (default 8).
	Concurrency int
	// Duration bounds the run (default 5s).
	Duration time.Duration
	// Mix is the operation mix (zero value: DefaultMix).
	Mix Mix
	// OpenRate, when positive, switches to open-loop mode: arrival k is
	// due k/OpenRate seconds after the start, whatever the completions,
	// and its latency runs from that due time, so a request that waits
	// for a free lane pays the wait. Zero selects closed-loop mode.
	OpenRate float64
	// AutoTerm stops the run early once throughput stabilizes.
	AutoTerm bool
	// StabWindow is the QPS sampling window for AutoTerm (default
	// 500ms).
	StabWindow time.Duration
	// StabCount is how many consecutive windows must agree (default 4).
	StabCount int
	// StabSpreadPct is the allowed relative spread (max-min)/mean of
	// those windows, in percent (default 5).
	StabSpreadPct float64
	// Seed seeds the per-lane generators (default 1).
	Seed int64
	// Unique draws every analytic predicate with UniqueCut instead of
	// from PredCuts.
	Unique bool
}

// ClassStats is the per-class report.
type ClassStats struct {
	Name string
	// Ops are completed requests with 200 responses; Errors everything
	// else.
	Ops, Errors   int64
	QPS           float64
	P50, P95, P99 time.Duration
	// CacheLookups/CacheHits are the server's result-cache pre-check
	// counters for this class, diffed across the run via /metrics.
	// Zero for classes that never consult the cache (writes) or when
	// the endpoint exposes no metrics.
	CacheLookups, CacheHits int64
	CacheHitPct             float64
}

// Result is one run's report.
type Result struct {
	Wall    time.Duration
	Classes [numClasses]ClassStats
	// Stabilized is true when AutoTerm ended the run early.
	Stabilized bool
	TotalOps   int64
	TotalErrs  int64
	QPS        float64
	// Unsent counts the open loop's arrivals due before the run ended
	// that no lane sent: the load the lanes could not offer. Always 0 in
	// closed-loop mode.
	Unsent int64
	// Passes and Plans are the server's scan-cohort storage passes during
	// the run and the distinct plans they carried (server.batch.flushes
	// and .preds diffed across the run via /metrics): Plans > Passes
	// means passes were shared. Both stay 0 on an unbatched server or an
	// endpoint without metrics.
	Passes, Plans int64
}

// lane-shared run state.
type runState struct {
	opts  Options
	c     *Client
	stmts [numClasses]int

	ops  [numClasses]atomic.Int64
	errs [numClasses]atomic.Int64
	lat  [numClasses]*obs.Histogram

	// The open loop's arrivals: ticket k is due at t0 + k*interval.
	t0       time.Time
	interval time.Duration
	tickets  atomic.Int64
}

// Cut is one predicate in its wire form and as the predicate a direct
// execution takes.
type Cut struct {
	Wire string
	Pred exec.Pred
}

// PredCuts are the fixed predicate cuts analytic lanes draw from (over
// the item price domain [1, 101) plus written integer values). A small
// set on purpose: concurrent lanes repeat cuts, so shared passes
// collapse.
var PredCuts = []Cut{
	{`{"kind":"lt","hi":30}`, exec.Lt(30)},
	{`{"kind":"gt","lo":50}`, exec.Gt(50)},
	{`{"kind":"between","lo":10,"hi":60}`, exec.Between(10, 60)},
	{`{"kind":"between","lo":20,"hi":80}`, exec.Between(20, 80)},
}

// UniqueCut draws a range predicate between(lo, lo+w) over the item
// price domain, lo a whole number of cents uniform on [1, 100) and w
// 0.5, 5 or 30 (about 0.5 %, 5 % and 30 % of the [1, 101) domain, the
// widths of the benchmark's scan-unique workload): one of about 30 000
// cuts, so a cut seldom repeats and the result cache answers few
// requests.
func UniqueCut(r *rand.Rand) Cut {
	lo := 100 + r.Intn(9900)
	hi := lo + [...]int{50, 500, 3000}[r.Intn(3)]
	l, h := float64(lo)/100, float64(hi)/100
	return Cut{fmt.Sprintf(`{"kind":"between","lo":%v,"hi":%v}`, l, h), exec.Between(l, h)}
}

// Client is one session of the wire protocol over one *http.Client:
// open, prepare, exec.
type Client struct {
	hc   *http.Client
	base string
	sid  string
}

// Dial opens a session on the server at base.
func Dial(hc *http.Client, base string) (*Client, error) {
	c := &Client{hc: hc, base: base}
	body, err := c.call("/v1/session", `{}`)
	if err != nil {
		return nil, err
	}
	c.sid = strings.TrimSuffix(strings.TrimPrefix(body, `{"session_id":"`), `"}`)
	if c.sid == "" || strings.Contains(c.sid, `"`) {
		return nil, fmt.Errorf("bad session response %q", body)
	}
	return c, nil
}

// Prepare prepares one statement; spec is its JSON fields without the
// braces, e.g. `"op":"sum_where","table":"item","col":4`.
func (c *Client) Prepare(spec string) (int, error) {
	body, err := c.call("/v1/prepare", fmt.Sprintf(`{"session_id":"%s",%s}`, c.sid, spec))
	if err != nil {
		return 0, err
	}
	var id int
	if _, err := fmt.Sscanf(body, `{"stmt_id":%d}`, &id); err != nil {
		return 0, fmt.Errorf("bad prepare response %q", body)
	}
	return id, nil
}

// Exec executes a prepared statement and returns the response body;
// args are the statement's arguments as JSON fields without the braces,
// e.g. `"row":3`. Any status but 200 is an error.
func (c *Client) Exec(stmt int, args string) (string, error) {
	return c.call("/v1/exec", c.execBody(stmt, args))
}

func (c *Client) execBody(stmt int, args string) string {
	return fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,%s}`, c.sid, stmt, args)
}

// call posts body to path and returns the response body of a 200.
func (c *Client) call(path, body string) (string, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != 200 {
		return "", fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, b)
	}
	return string(b), nil
}

// Run executes one load test and reports it.
func Run(opts Options) (*Result, error) {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.Duration <= 0 {
		opts.Duration = 5 * time.Second
	}
	if opts.Mix == (Mix{}) {
		opts.Mix = DefaultMix
	}
	if opts.StabWindow <= 0 {
		opts.StabWindow = 500 * time.Millisecond
	}
	if opts.StabCount <= 0 {
		opts.StabCount = 4
	}
	if opts.StabSpreadPct <= 0 {
		opts.StabSpreadPct = 5
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if (opts.Mix.Write > 0 || opts.Mix.Point > 0) && opts.Rows == 0 {
		return nil, fmt.Errorf("loadgen: write/point mix needs Rows")
	}
	tr := &http.Transport{
		MaxIdleConns:        opts.Concurrency * 2,
		MaxIdleConnsPerHost: opts.Concurrency * 2,
	}
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	st := &runState{opts: opts}
	for c := range st.lat {
		st.lat[c] = &obs.Histogram{}
	}
	var err error
	if st.c, err = Dial(hc, opts.BaseURL); err != nil {
		return nil, fmt.Errorf("loadgen: session: %w", err)
	}
	// Item-schema column layout: price is column 4, group key column 1.
	for c, spec := range [numClasses]string{
		ClassWrite: `"op":"update","table":"item","col":4`,
		ClassPoint: `"op":"get","table":"item"`,
		ClassSum:   `"op":"sum_where","table":"item","col":4`,
		ClassGroup: `"op":"group_sum_where","table":"item","col":4,"key_col":1`,
	} {
		if st.stmts[c], err = st.c.Prepare(spec); err != nil {
			return nil, fmt.Errorf("loadgen: prepare %s: %w", className[c], err)
		}
	}

	before := st.scrapeCounters()
	st.t0 = time.Now()
	end := st.t0.Add(opts.Duration)
	ctx, cancel := context.WithDeadline(context.Background(), end)
	defer cancel()
	if opts.OpenRate > 0 {
		st.interval = time.Duration(float64(time.Second) / opts.OpenRate)
	}

	// stopped is when AutoTerm ended the run, zero if it did not; the
	// watcher has exited once watched is closed.
	var stopped time.Time
	watched := make(chan struct{})
	if opts.AutoTerm {
		go func() {
			defer close(watched)
			stopped = st.watchStability(ctx, cancel)
		}()
	} else {
		close(watched)
	}

	var wg sync.WaitGroup
	for lane := 0; lane < opts.Concurrency; lane++ {
		lane := lane
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.runLane(ctx, lane, end)
		}()
	}
	wg.Wait()
	wall := time.Since(st.t0)
	cancel()
	<-watched
	after := st.scrapeCounters()

	res := &Result{Wall: wall, Stabilized: !stopped.IsZero()}
	if res.Stabilized && stopped.Before(end) {
		end = stopped
	}
	secs := wall.Seconds()
	for c := 0; c < int(numClasses); c++ {
		cs := ClassStats{
			Name:   className[c],
			Ops:    st.ops[c].Load(),
			Errors: st.errs[c].Load(),
			P50:    time.Duration(st.lat[c].Quantile(0.50)),
			P95:    time.Duration(st.lat[c].Quantile(0.95)),
			P99:    time.Duration(st.lat[c].Quantile(0.99)),
		}
		if secs > 0 {
			cs.QPS = float64(cs.Ops) / secs
		}
		if op := classCacheOp[c]; op != "" && before != nil && after != nil {
			cs.CacheLookups = after["server.cache."+op+".lookups"] - before["server.cache."+op+".lookups"]
			cs.CacheHits = after["server.cache."+op+".hits"] - before["server.cache."+op+".hits"]
			if cs.CacheLookups > 0 {
				cs.CacheHitPct = float64(cs.CacheHits) / float64(cs.CacheLookups) * 100
			}
		}
		res.Classes[c] = cs
		res.TotalOps += cs.Ops
		res.TotalErrs += cs.Errors
	}
	if secs > 0 {
		res.QPS = float64(res.TotalOps) / secs
	}
	if st.interval > 0 {
		due := int64((end.Sub(st.t0) + st.interval - 1) / st.interval)
		res.Unsent = due - res.TotalOps - res.TotalErrs
	}
	if before != nil && after != nil {
		res.Passes = after["server.batch.flushes"] - before["server.batch.flushes"]
		res.Plans = after["server.batch.preds"] - before["server.batch.preds"]
	}
	return res, nil
}

// scrapeCounters reads the server's counter registry from /metrics.
// Per-class cache hit rates are the before/after diff of
// server.cache.<op>.{lookups,hits}, passes and plans that of
// server.batch.{flushes,preds}. A missing or malformed endpoint degrades
// to nil — those figures then report zero instead of failing the run,
// since an external -addr target need not expose metrics.
func (st *runState) scrapeCounters() map[string]int64 {
	resp, err := st.c.hc.Get(st.opts.BaseURL + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil
	}
	return snap.Counters
}

// runLane is one client lane's request loop. In the open loop it takes
// the next arrival ticket, sends nothing for a ticket due at or after
// end, waits until the ticket is due and times the request from then.
func (st *runState) runLane(ctx context.Context, lane int, end time.Time) {
	r := rand.New(rand.NewSource(st.opts.Seed + int64(lane)*7919))
	total := st.opts.Mix.Write + st.opts.Mix.Point + st.opts.Mix.Sum + st.opts.Mix.Group
	// Point reads are zipfian over the row domain: a hot head repeats
	// across lanes, so the result cache sees real re-reference.
	var zipf *rand.Zipf
	if st.opts.Mix.Point > 0 {
		zipf = rand.NewZipf(r, 1.2, 8, st.opts.Rows-1)
	}
	for {
		var due time.Time
		if st.interval > 0 {
			due = st.t0.Add(time.Duration(st.tickets.Add(1)-1) * st.interval)
			if !due.Before(end) {
				return
			}
			if wait := time.Until(due); wait > 0 {
				timer := time.NewTimer(wait)
				select {
				case <-ctx.Done():
					timer.Stop()
					return
				case <-timer.C:
				}
			}
		}
		if ctx.Err() != nil {
			return
		}
		var class Class
		switch d := r.Intn(total); {
		case d < st.opts.Mix.Write:
			class = ClassWrite
		case d < st.opts.Mix.Write+st.opts.Mix.Point:
			class = ClassPoint
		case d < st.opts.Mix.Write+st.opts.Mix.Point+st.opts.Mix.Sum:
			class = ClassSum
		default:
			class = ClassGroup
		}
		var args string
		switch class {
		case ClassWrite:
			args = fmt.Sprintf(`"row":%d,"value":%d`, r.Int63n(int64(st.opts.Rows)), r.Intn(100))
		case ClassPoint:
			args = fmt.Sprintf(`"row":%d`, zipf.Uint64())
		case ClassSum, ClassGroup:
			if st.opts.Unique {
				args = `"pred":` + UniqueCut(r).Wire
			} else {
				args = `"pred":` + PredCuts[r.Intn(len(PredCuts))].Wire
			}
		}
		body := st.c.execBody(st.stmts[class], args)

		// The lanes do not go through Client.Exec: they discard bodies.
		start := time.Now()
		if !due.IsZero() {
			start = due
		}
		resp, err := st.c.hc.Post(st.c.base+"/v1/exec", "application/json", strings.NewReader(body))
		if err != nil {
			if ctx.Err() != nil {
				return // shutdown race, not a server error
			}
			st.errs[class].Add(1)
			continue
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		st.lat[class].ObserveSince(start)
		if resp.StatusCode == 200 && cerr == nil {
			st.ops[class].Add(1)
		} else {
			st.errs[class].Add(1)
		}
	}
}

// watchStability samples aggregate throughput per window and cancels
// the run once StabCount consecutive windows agree within
// StabSpreadPct. It returns when it cancelled, or the zero time when the
// run ended first.
func (st *runState) watchStability(ctx context.Context, cancel context.CancelFunc) time.Time {
	tick := time.NewTicker(st.opts.StabWindow)
	defer tick.Stop()
	var last int64
	var windows []float64
	for {
		select {
		case <-ctx.Done():
			return time.Time{}
		case <-tick.C:
		}
		var cur int64
		for c := range st.ops {
			cur += st.ops[c].Load()
		}
		windows = append(windows, float64(cur-last))
		last = cur
		if len(windows) < st.opts.StabCount {
			continue
		}
		recent := windows[len(windows)-st.opts.StabCount:]
		lo, hi, sum := recent[0], recent[0], 0.0
		for _, w := range recent {
			if w < lo {
				lo = w
			}
			if w > hi {
				hi = w
			}
			sum += w
		}
		mean := sum / float64(len(recent))
		if mean > 0 && (hi-lo)/mean*100 <= st.opts.StabSpreadPct {
			// Cancel first: a lane that found the context live before
			// this stamp took a ticket due before it.
			cancel()
			return time.Now()
		}
	}
}

// String renders the classic harness report table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall %.2fs  qps %.0f  ops %d  errors %d  unsent %d  passes %d  plans %d",
		r.Wall.Seconds(), r.QPS, r.TotalOps, r.TotalErrs, r.Unsent, r.Passes, r.Plans)
	if r.Stabilized {
		b.WriteString("  (stabilized)")
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-8s %10s %10s %8s %10s %10s %10s %7s\n", "class", "ops", "qps", "errors", "p50", "p95", "p99", "cache%")
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "%-8s %10d %10.0f %8d %10s %10s %10s %7.1f\n",
			c.Name, c.Ops, c.QPS, c.Errors, c.P50, c.P95, c.P99, c.CacheHitPct)
	}
	return b.String()
}

// CSV renders the per-class panel (microsecond latencies), one header
// plus one row per class and a total row — the serving_panel.csv
// artifact CI uploads.
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString("class,ops,qps,errors,p50_us,p95_us,p99_us,cache_hit_pct\n")
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "%s,%d,%.1f,%d,%.1f,%.1f,%.1f,%.1f\n",
			c.Name, c.Ops, c.QPS, c.Errors,
			float64(c.P50.Nanoseconds())/1e3, float64(c.P95.Nanoseconds())/1e3, float64(c.P99.Nanoseconds())/1e3,
			c.CacheHitPct)
	}
	fmt.Fprintf(&b, "total,%d,%.1f,%d,,,,\n", r.TotalOps, r.QPS, r.TotalErrs)
	return b.String()
}
