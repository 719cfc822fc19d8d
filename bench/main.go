// Command bench is the repository's HTAP serving benchmark: it builds the
// store in-process, serves it with internal/server on a loopback port,
// drives it over HTTP from closed-loop lanes, verifies the answers and
// prints every metric by name with its unit. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options are the settings of one run of one workload.
type options struct {
	seed           int64
	window, warmup time.Duration
	outDir, walDir string
	// tamper is handed to the lanes; tests use it to corrupt a response.
	tamper func(n int, resp []byte)
}

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	traced    bool
	metrics   []metric
	attempted int
	failed    int // non-200, transport errors and verifier mismatches
	checked   int // comparisons the verifier made
}

// setupRuns is how often a timed run sets the fixture up; setup_s is the
// median.
const setupRuns = 3

func (o *options) lanes(fx *fixture, total time.Duration) ([]*lane, *verifier, error) {
	ver := newVerifier(fx.w, total)
	lanes, err := newLanes(fx, o.seed, total, ver)
	for _, l := range lanes {
		if l != nil {
			l.tamper = o.tamper
		}
	}
	return lanes, ver, err
}

// verify runs every check that applies to the workload on the quiesced
// fixture and returns the recovery time of a durable one.
func verify(fx *fixture, ver *verifier) (time.Duration, error) {
	if fx.w.readOnly() {
		ver.checkSampled(fx.tbl)
	}
	ver.checkTable(fx.tbl)
	if err := ver.checkServed(fx); err != nil {
		return 0, err
	}
	if fx.w.durable {
		return ver.checkReopened(fx)
	}
	return 0, nil
}

// runTimed measures the end-to-end metrics: fresh fixture, warm-up, one
// untraced window, verification.
func runTimed(w *workload, o *options) (*report, error) {
	var fx *fixture
	setups := make([]float64, setupRuns)
	for i := range setups {
		if fx != nil {
			if err := fx.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if fx, err = setup(w, o.walDir); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	defer func() { fx.close() }()
	sort.Float64s(setups)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	total := o.warmup + o.window
	lanes, ver, err := o.lanes(fx, total)
	if err != nil {
		return nil, err
	}
	marks, upkeeps, err := drive(fx, lanes, []phase{{dur: o.warmup}, {dur: o.window}}, w.maintenanceEvery(o.window))
	if err != nil {
		return nil, err
	}
	win := collect(w, lanes, upkeeps, interval{marks[1], marks[2]})
	if _, err := verify(fx, ver); err != nil {
		return nil, err
	}
	ms := &metricSet{workload: w.name}
	ms.add("setup_s", setups[setupRuns/2], "s", setupRuns)
	endToEnd(win, ms)
	failed := win.failed + ver.mismatchCount()
	ms.add("fail_share", float64(failed)/float64(max(win.attempts, 1)), "ratio", win.attempts)
	ms.add("heap_after_setup_mib", float64(mem.HeapAlloc)/(1<<20), "MiB", 0)
	return &report{workload: w.name, metrics: ms.list, attempted: win.attempts, failed: failed, checked: ver.checked}, nil
}

// runTraced measures the per-layer metrics: one fixture driven through
// a window that is half untraced and half traced (their difference is
// the tracing overhead), the counter differences over the traced half,
// the depth replay, and the scratch timings.
func runTraced(w *workload, o *options) (*report, error) {
	fx, err := setup(w, o.walDir)
	if err != nil {
		return nil, err
	}
	defer func() { fx.close() }()
	lanes, ver, err := o.lanes(fx, o.warmup+o.window)
	if err != nil {
		return nil, err
	}
	// Plain and traced stretches alternate P T P T P T P (1:2:2:2:2:2:1),
	// so that both halves of the window sit at the same mean time and a
	// drift, such as a cache still filling, cancels out of their
	// difference; with twelve units the six checkpoints of a durable
	// window fall three and three.
	unit := o.window / 12
	phases := []phase{{dur: o.warmup}, {dur: unit}}
	for i := 0; i < 3; i++ {
		phases = append(phases, phase{dur: 2 * unit, trace: true}, phase{dur: 2 * unit})
	}
	phases[len(phases)-1].dur = unit
	marks, upkeeps, err := drive(fx, lanes, phases, w.maintenanceEvery(o.window))
	if err != nil {
		return nil, err
	}
	var plainIvs, tracedIvs []interval
	for i, p := range phases[1:] {
		iv := interval{marks[i+1], marks[i+2]}
		if p.trace {
			tracedIvs = append(tracedIvs, iv)
		} else {
			plainIvs = append(plainIvs, iv)
		}
	}
	plain := collect(w, lanes, upkeeps, plainIvs...)
	win := collect(w, lanes, upkeeps, tracedIvs...)
	recovery, err := verify(fx, ver)
	if err != nil {
		return nil, err
	}

	ms := &metricSet{workload: w.name}
	clientMetrics(win, ms)
	ms.add("client.trace_overhead_pct", 100*ratio(plain.perSecond(plain.ok)-win.perSecond(win.ok), plain.perSecond(plain.ok)), "%", win.ok)
	windowLayerMetrics(win, ms)
	ms.add("wal.recover_ms", float64(recovery)/1e6, "ms", 0)
	contention, n, err := scanContention(fx.tbl)
	if err != nil {
		return nil, err
	}
	ms.add("core.scan_contention_ratio", contention, "ratio", n)
	var spans []span
	for _, l := range lanes {
		for _, ls := range l.spans {
			spans = append(spans, span{ID: len(spans) + 1, Name: "http." + opName[ls.op], Req: ls.req, StartNs: ls.start, EndNs: ls.end})
		}
	}
	if err := fx.close(); err != nil {
		return nil, err
	}

	rp, err := depthReplay(w, o.seed, min(2000, int(float64(w.replayPerSecond)*o.window.Seconds())), o.walDir, time.Now())
	if err != nil {
		return nil, err
	}
	rp.spanMetrics(ms)
	replayLayerMetrics(rp, ms)
	fmt.Printf("depth replay of %d requests, %s:\n%s", rp.n, w.name, rp.closure())
	if err := scratchMetrics(w, o.walDir, ms); err != nil {
		return nil, err
	}
	if err := writeTrace(filepath.Join(o.outDir, "trace-"+w.name+".jsonl"), spans, rp.spans); err != nil {
		return nil, err
	}
	failed := plain.failed + win.failed + ver.mismatchCount() + rp.mismatch
	return &report{workload: w.name, traced: true, metrics: ms.list,
		attempted: plain.attempts + win.attempts + rp.n, failed: failed, checked: ver.checked}, nil
}

// writeTrace writes the window's spans and then the replay's, one JSON
// object per line. The two groups have their own clocks and id spaces.
func writeTrace(path string, groups ...[]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, g := range groups {
		for i := range g {
			if err := enc.Encode(&g[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printReport(r *report) {
	kind := "end-to-end (untraced)"
	if r.traced {
		kind = "per-layer (traced)"
	}
	fmt.Printf("== %s: %s; attempted %d, failed %d, verifier comparisons %d\n", r.workload, kind, r.attempted, r.failed, r.checked)
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-14s %-38s %14.4f %-6s", m.Workload, m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if d := gatedByName[m.Name]; d != nil {
			line += fmt.Sprintf("  [gated: %s is better, bound %g%%]", d.Better, d.Bound*100)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Println(line)
	}
}

// driverLine is the one-line result the benchmark contract asks for.
func driverLine(r *report) string {
	names := driverEndToEnd
	if r.traced {
		names = nil
		for _, l := range perLayerMetrics {
			names = append(names, l.Name)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	byName := map[string]metric{}
	for _, m := range r.metrics {
		byName[m.Name] = m
	}
	for _, name := range names {
		m, ok := byName[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.Correct = false
		}
		out.Metrics[name] = value{m.Value, unitOf(name)}
	}
	b, _ := json.Marshal(out) // only numbers and strings: cannot fail
	return string(b)
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with the driver's one-line JSON result (default: all four)")
		seed    = flag.Int64("seed", 1, "seeds the per-lane request generators")
		seconds = flag.Int("seconds", 30, "measured window in seconds; the warm-up is a tenth of it")
		window  = flag.Duration("window", 0, "measured window, overriding -seconds")
		warmup  = flag.Duration("warmup", 0, "warm-up, overriding the tenth of the window")
		trace   = flag.Int("trace", 1, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run (without -workload: both)")
		repeat  = flag.Int("repeat", 1, "A/A mode: run the whole set this many times and report each metric's spread against its bound")
		outDir  = flag.String("out", "out", "directory for result.json and the trace files")
		walDir  = flag.String("waldir", "", "directory for oltp-durable's store (default <out>/wal)")
	)
	flag.Parse()
	o := &options{seed: *seed, window: *window, warmup: *warmup, outDir: *outDir, walDir: *walDir}
	if o.window <= 0 {
		o.window = time.Duration(*seconds) * time.Second
	}
	if o.warmup <= 0 {
		o.warmup = o.window / 10
	}
	if o.walDir == "" {
		o.walDir = filepath.Join(o.outDir, "wal")
	}
	if *trace != 0 && *trace != 1 || o.window <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1, -seconds and -repeat are positive")
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *name)
			os.Exit(2)
		}
		selected = []*workload{w}
	}
	fmt.Printf("bench: seed %d, warm-up %v, window %v, GOMAXPROCS %d, store on %s\n",
		o.seed, o.warmup, o.window, runtime.GOMAXPROCS(0), o.walDir)

	// -workload makes this the driver's run: untraced or traced, as -trace
	// says. Without it both run, unless -trace 0 leaves the traced one out.
	runs := []bool{false, true}
	if *name != "" {
		runs = []bool{*trace == 1}
	} else if *trace == 0 {
		runs = []bool{false}
	}
	var all [][]*report // per repetition
	failed := false
	for rep := 0; rep < *repeat; rep++ {
		var reports []*report
		for _, w := range selected {
			for _, traced := range runs {
				run := runTimed
				if traced {
					run = runTraced
				}
				r, err := run(w, o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					os.Exit(1)
				}
				printReport(r)
				failed = failed || r.failed > 0
				reports = append(reports, r)
			}
		}
		all = append(all, reports)
	}
	if err := writeResult(filepath.Join(o.outDir, "result.json"), all[len(all)-1]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *repeat > 1 && !printSpreads(all) {
		failed = true
	}
	if *name != "" {
		fmt.Println(driverLine(all[0][0]))
	}
	if failed {
		os.Exit(1)
	}
}

// writeResult writes every metric of the last repetition: name,
// workload, value, unit, sample count.
func writeResult(path string, reports []*report) error {
	var ms []metric
	for _, r := range reports {
		ms = append(ms, r.metrics...)
	}
	b, err := json.MarshalIndent(ms, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
