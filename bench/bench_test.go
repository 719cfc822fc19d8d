package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the program's workload and metric tables")

// runSeconds is BENCHMARK.json's run_seconds: the issue's 30 s window
// scaled down, for all four workloads alike, to fit the driver's budget.
const runSeconds = 15

func testOptions(t *testing.T, window time.Duration) *options {
	dir := t.TempDir()
	return &options{seed: 1, window: window, warmup: window / 10, outDir: dir, walDir: dir}
}

// streamHash hashes the first n request bodies of every lane of w.
func streamHash(w *workload, seed int64, n int) uint64 {
	var all []byte
	stmts := [numOps]int{0, 1, 2, 3, 4, 5}
	for lane := range w.lanes {
		g := newGenerator(w, lane, seed)
		for i := 0; i < n; i++ {
			all = appendBody(all, "s1", &stmts, g.next())
		}
	}
	return hashBytes(all)
}

func TestRequestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamHash(w, 1, 5000), streamHash(w, 1, 5000), streamHash(w, 2, 5000)
		if a != b {
			t.Errorf("%s: same seed, different request bytes", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 give the same request bytes", w.name)
		}
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	for _, w := range workloads {
		o := testOptions(t, time.Second)
		timed, err := runTimed(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := runTraced(w, o)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, r := range []*report{timed, traced} {
			if r.failed != 0 || r.attempted == 0 || r.checked == 0 {
				t.Errorf("%s: attempted %d, failed %d, verifier comparisons %d", w.name, r.attempted, r.failed, r.checked)
			}
			for _, m := range r.metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, m.Name, m.Value)
				}
				if unitOf(m.Name) != m.Unit {
					t.Errorf("%s: %s reported in %q, declared in %q", w.name, m.Name, m.Unit, unitOf(m.Name))
				}
			}
		}
		have := map[string]float64{}
		for _, m := range append(timed.metrics, traced.metrics...) {
			have[m.Name] = m.Value
		}
		for _, g := range endToEndMetrics {
			c, isClass := classOfMetric(g.Name)
			rate := g.Name == "oltp_ops_per_s" && !w.oltpRate || g.Name == "olap_q_per_s" && !w.olapRate
			if _, ok := have[w.gatedName(g.Name)]; ok == (isClass && !w.issues(c) || rate) {
				t.Errorf("%s: %s reported: %v", w.name, g.Name, ok)
			}
		}
		for _, name := range driverEndToEnd {
			if have[name] <= 0 {
				t.Errorf("%s: %s = %v, the driver needs it positive on every workload", w.name, name, have[name])
			}
		}
		for _, l := range perLayerMetrics {
			if _, ok := have[l.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, l.Name)
			}
		}
		if have["fail_share"] != 0 {
			t.Errorf("%s: fail_share %v", w.name, have["fail_share"])
		}
		if (have["wal.appends_per_write"] > 0) != w.durable {
			t.Errorf("%s: wal.appends_per_write %v", w.name, have["wal.appends_per_write"])
		}
	}
}

// classOfMetric maps a class latency metric (point_p50_us, ...) to its
// class.
func classOfMetric(name string) (class, bool) {
	for c, n := range className {
		if strings.HasPrefix(name, n+"_") {
			return class(c), true
		}
	}
	return 0, false
}

func TestVerifierFailsTheRunOnAFlippedByte(t *testing.T) {
	for _, name := range []string{"dash-repeat", "oltp-durable"} {
		o := testOptions(t, 300*time.Millisecond)
		// Every 16th response of each lane loses a bit: on a read-only
		// workload exactly the sampled ones, otherwise enough to hit writes.
		o.tamper = func(n int, resp []byte) {
			if n%sampleEvery == 0 {
				resp[len(resp)/2] ^= 1
			}
		}
		r, err := runTimed(workloadByName(name), o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.failed == 0 {
			t.Errorf("%s: corrupted responses went unnoticed", name)
		}
	}
}

func TestPercentileFallback(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if v, p := percentileOrFallback(sorted, 0.50); v != 50 || p != 0.50 {
		t.Errorf("p50 of 1..100 = %d at p%g", v, p*100)
	}
	// 100 samples leave 5 beyond p95: the highest percentile with 10
	// beyond it is p90.
	if v, p := percentileOrFallback(sorted, 0.95); v != 90 || p != 0.90 {
		t.Errorf("p95 of 1..100 fell back to %d at p%g, want 90 at p90", v, p*100)
	}
	if v, p := percentileOrFallback(sorted[:12], 0.95); v != 6 || p != 0.5 {
		t.Errorf("p95 of 12 samples fell back to %d at p%g, want the median", v, p*100)
	}
	if v, _ := percentileOrFallback(nil, 0.95); v != 0 {
		t.Errorf("empty sample gave %d", v)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v", q1, q2, q3)
	}
}

// TestManifest keeps BENCHMARK.json and the program's tables the same
// list: go test -run TestManifest -update rewrites the file.
func TestManifest(t *testing.T) {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []named       `json:"workloads"`
		EndToEnd   []gated       `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds, PerLayer: perLayerMetrics}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
		m.Workloads = append(m.Workloads, named{w.name, w.why})
	}
	for _, name := range driverEndToEnd {
		m.EndToEnd = append(m.EndToEnd, *gatedByName[name])
	}
	want, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; run go test -run TestManifest -update")
	}
}
