// Package loadgen is the warp-style concurrent load harness for the
// serving layer: a swarm of client lanes drives the HTTP front end
// with a configurable mix of point writes, zipfian point reads,
// predicate sums and grouped aggregations, in closed-loop (next
// request after the last response)
// or open-loop (fixed arrival rate) mode, and reports wall-clock
// throughput plus p50/p95/p99 latency per operation class.
//
// Analytic predicates are drawn from a small fixed set of cuts, so
// concurrent lanes issue compatible queries and the server's batching
// scheduler has real collapse opportunities — the same shape a fleet
// of dashboard clients produces.
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
	// BaseURL is the serving endpoint, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Table is the target table (default "item"; must follow the item
	// schema's column layout).
	Table string
	// Rows is the row-id domain point writes draw from. Required for a
	// mix with writes.
	Rows uint64
	// Concurrency is the number of client lanes (default 8).
	Concurrency int
	// Duration bounds the run (default 5s).
	Duration time.Duration
	// Mix is the operation mix (zero value: DefaultMix).
	Mix Mix
	// OpenRate, when positive, switches to open-loop mode: arrivals
	// fire at this aggregate rate per second regardless of completions,
	// queueing when all lanes are busy. Zero selects closed-loop mode.
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
	// Client overrides the HTTP client (default: keep-alive transport
	// sized to Concurrency).
	Client *http.Client
	// Seed seeds the per-lane generators (default 1).
	Seed int64
}

// ClassStats is the per-class report.
type ClassStats struct {
	Name string
	// Ops are completed requests with 200 responses; Shed counts
	// admission rejections (429/503); Errors everything else.
	Ops, Shed, Errors int64
	QPS               float64
	P50, P95, P99     time.Duration
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
	TotalShed  int64
	TotalErrs  int64
	QPS        float64
}

// lane-shared run state.
type runState struct {
	opts  Options
	c     *Client
	stmts [numClasses]int

	ops  [numClasses]atomic.Int64
	shed [numClasses]atomic.Int64
	errs [numClasses]atomic.Int64
	lat  [numClasses]*obs.Histogram
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

// Client is one session of the wire protocol over one *http.Client:
// open, prepare, exec.
type Client struct {
	hc   *http.Client
	base string
	sid  string
}

// Dial opens a session for tenant on the server at base.
func Dial(hc *http.Client, base, tenant string) (*Client, error) {
	c := &Client{hc: hc, base: base}
	body, err := c.call("/v1/session", fmt.Sprintf(`{"tenant":%q}`, tenant))
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
	if opts.Table == "" {
		opts.Table = "item"
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
	hc := opts.Client
	if hc == nil {
		tr := &http.Transport{
			MaxIdleConns:        opts.Concurrency * 2,
			MaxIdleConnsPerHost: opts.Concurrency * 2,
		}
		hc = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	st := &runState{opts: opts}
	for c := range st.lat {
		st.lat[c] = &obs.Histogram{}
	}
	var err error
	if st.c, err = Dial(hc, opts.BaseURL, "loadgen"); err != nil {
		return nil, fmt.Errorf("loadgen: session: %w", err)
	}
	// Item-schema column layout: price is column 4, group key column 1.
	for c, spec := range [numClasses]string{
		ClassWrite: `"op":"update","table":"%s","col":4`,
		ClassPoint: `"op":"get","table":"%s"`,
		ClassSum:   `"op":"sum_where","table":"%s","col":4`,
		ClassGroup: `"op":"group_sum_where","table":"%s","col":4,"key_col":1`,
	} {
		if st.stmts[c], err = st.c.Prepare(fmt.Sprintf(spec, opts.Table)); err != nil {
			return nil, fmt.Errorf("loadgen: prepare %s: %w", className[c], err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), opts.Duration)
	defer cancel()

	// Open-loop arrivals: a pacer goroutine deposits fire tokens at the
	// target rate; lanes block on the queue. Closed loop: lanes fire
	// back to back.
	var arrivals chan struct{}
	if opts.OpenRate > 0 {
		arrivals = make(chan struct{}, 4*opts.Concurrency)
		go func() {
			interval := time.Duration(float64(time.Second) / opts.OpenRate)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					select {
					case arrivals <- struct{}{}:
					default: // queue full: the lanes are saturated
					}
				}
			}
		}()
	}

	stabilized := make(chan struct{})
	if opts.AutoTerm {
		go st.watchStability(ctx, cancel, stabilized)
	}

	cacheBefore := st.scrapeCacheCounters()
	t0 := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < opts.Concurrency; lane++ {
		lane := lane
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.runLane(ctx, lane, arrivals)
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	cacheAfter := st.scrapeCacheCounters()

	res := &Result{Wall: wall}
	select {
	case <-stabilized:
		res.Stabilized = true
	default:
	}
	secs := wall.Seconds()
	for c := 0; c < int(numClasses); c++ {
		cs := ClassStats{
			Name:   className[c],
			Ops:    st.ops[c].Load(),
			Shed:   st.shed[c].Load(),
			Errors: st.errs[c].Load(),
			P50:    time.Duration(st.lat[c].Quantile(0.50)),
			P95:    time.Duration(st.lat[c].Quantile(0.95)),
			P99:    time.Duration(st.lat[c].Quantile(0.99)),
		}
		if secs > 0 {
			cs.QPS = float64(cs.Ops) / secs
		}
		if op := classCacheOp[c]; op != "" && cacheBefore != nil && cacheAfter != nil {
			cs.CacheLookups = cacheAfter["server.cache."+op+".lookups"] - cacheBefore["server.cache."+op+".lookups"]
			cs.CacheHits = cacheAfter["server.cache."+op+".hits"] - cacheBefore["server.cache."+op+".hits"]
			if cs.CacheLookups > 0 {
				cs.CacheHitPct = float64(cs.CacheHits) / float64(cs.CacheLookups) * 100
			}
		}
		res.Classes[c] = cs
		res.TotalOps += cs.Ops
		res.TotalShed += cs.Shed
		res.TotalErrs += cs.Errors
	}
	if secs > 0 {
		res.QPS = float64(res.TotalOps) / secs
	}
	return res, nil
}

// scrapeCacheCounters reads the server's counter registry from
// /metrics. Per-class cache hit rates are the before/after diff of
// server.cache.<op>.{lookups,hits}. A missing or malformed endpoint
// degrades to nil — hit rates then report zero instead of failing the
// run, since an external -addr target need not expose metrics.
func (st *runState) scrapeCacheCounters() map[string]int64 {
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

// runLane is one client lane's request loop.
func (st *runState) runLane(ctx context.Context, lane int, arrivals <-chan struct{}) {
	r := rand.New(rand.NewSource(st.opts.Seed + int64(lane)*7919))
	total := st.opts.Mix.Write + st.opts.Mix.Point + st.opts.Mix.Sum + st.opts.Mix.Group
	// Point reads are zipfian over the row domain: a hot head repeats
	// across lanes, so gather cohorts collapse duplicates and the result
	// cache sees real re-reference.
	var zipf *rand.Zipf
	if st.opts.Mix.Point > 0 {
		zipf = rand.NewZipf(r, 1.2, 8, st.opts.Rows-1)
	}
	for {
		if arrivals != nil {
			select {
			case <-ctx.Done():
				return
			case <-arrivals:
			}
		} else if ctx.Err() != nil {
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
		default:
			args = `"pred":` + PredCuts[r.Intn(len(PredCuts))].Wire
		}
		body := st.c.execBody(st.stmts[class], args)

		// The lanes do not go through Client.Exec: they discard bodies
		// and tell sheds (429/503) from errors.
		t0 := time.Now()
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
		st.lat[class].ObserveSince(t0)
		switch {
		case resp.StatusCode == 200 && cerr == nil:
			st.ops[class].Add(1)
		case resp.StatusCode == 429 || resp.StatusCode == 503:
			st.shed[class].Add(1)
		default:
			st.errs[class].Add(1)
		}
	}
}

// watchStability samples aggregate throughput per window and cancels
// the run once StabCount consecutive windows agree within
// StabSpreadPct.
func (st *runState) watchStability(ctx context.Context, cancel context.CancelFunc, stabilized chan<- struct{}) {
	tick := time.NewTicker(st.opts.StabWindow)
	defer tick.Stop()
	var last int64
	var windows []float64
	for {
		select {
		case <-ctx.Done():
			return
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
			close(stabilized)
			cancel()
			return
		}
	}
}

// String renders the classic harness report table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall %.2fs  qps %.0f  ops %d  shed %d  errors %d", r.Wall.Seconds(), r.QPS, r.TotalOps, r.TotalShed, r.TotalErrs)
	if r.Stabilized {
		b.WriteString("  (stabilized)")
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-8s %10s %10s %8s %8s %10s %10s %10s %7s\n", "class", "ops", "qps", "shed", "errors", "p50", "p95", "p99", "cache%")
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "%-8s %10d %10.0f %8d %8d %10s %10s %10s %7.1f\n",
			c.Name, c.Ops, c.QPS, c.Shed, c.Errors, c.P50, c.P95, c.P99, c.CacheHitPct)
	}
	return b.String()
}

// CSV renders the per-class panel (microsecond latencies), one header
// plus one row per class and a total row — the serving_panel.csv
// artifact CI uploads.
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString("class,ops,qps,shed,errors,p50_us,p95_us,p99_us,cache_hit_pct\n")
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "%s,%d,%.1f,%d,%d,%.1f,%.1f,%.1f,%.1f\n",
			c.Name, c.Ops, c.QPS, c.Shed, c.Errors,
			float64(c.P50.Nanoseconds())/1e3, float64(c.P95.Nanoseconds())/1e3, float64(c.P99.Nanoseconds())/1e3,
			c.CacheHitPct)
	}
	fmt.Fprintf(&b, "total,%d,%.1f,%d,%d,,,,\n", r.TotalOps, r.QPS, r.TotalShed, r.TotalErrs)
	return b.String()
}
