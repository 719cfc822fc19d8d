package loadgen

import (
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hybridstore"
	"hybridstore/internal/server"
)

func testServer(t *testing.T, window time.Duration) *httptest.Server {
	t.Helper()
	db := hybridstore.Open(hybridstore.Options{ChunkRows: 128, DeviceCache: true})
	tbl, err := db.CreateTable("item", hybridstore.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Free)
	for i := uint64(0); i < 512; i++ {
		if _, err := tbl.Insert(hybridstore.Item(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := server.New(server.Config{DB: db, BatchWindow: window})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("write=10,point=15,sum=55,group=20")
	if err != nil || m != (Mix{Write: 10, Point: 15, Sum: 55, Group: 20}) {
		t.Fatalf("got %+v, %v", m, err)
	}
	if m, err = ParseMix(""); err != nil || m != DefaultMix {
		t.Fatalf("empty mix: %+v, %v", m, err)
	}
	if m, err = ParseMix("sum=100"); err != nil || m != (Mix{Sum: 100}) {
		t.Fatalf("single class: %+v, %v", m, err)
	}
	if m, err = ParseMix("point=100"); err != nil || m != (Mix{Point: 100}) {
		t.Fatalf("point class: %+v, %v", m, err)
	}
	for _, bad := range []string{"write=0,point=0,sum=0,group=0", "read=5", "sum=x", "sum"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

// TestRunClosedLoop drives a real loopback server with the full mix and
// checks the report is coherent: every class served traffic, no errors,
// latencies ordered, QPS consistent with the op counts.
func TestRunClosedLoop(t *testing.T) {
	ts := testServer(t, server.DefaultBatchWindow)
	res, err := Run(Options{
		BaseURL:     ts.URL,
		Rows:        512,
		Concurrency: 8,
		Duration:    400 * time.Millisecond,
		Mix:         Mix{Write: 25, Point: 25, Sum: 35, Group: 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalErrs != 0 {
		t.Fatalf("errors %d:\n%s", res.TotalErrs, res)
	}
	if res.TotalOps == 0 || res.QPS <= 0 {
		t.Fatalf("no throughput:\n%s", res)
	}
	var sumOps int64
	for _, c := range res.Classes {
		if c.Ops == 0 {
			t.Errorf("class %s served nothing:\n%s", c.Name, res)
		}
		if c.P50 > c.P95 || c.P95 > c.P99 {
			t.Errorf("class %s latencies out of order: %v %v %v", c.Name, c.P50, c.P95, c.P99)
		}
		sumOps += c.Ops
	}
	if sumOps != res.TotalOps {
		t.Fatalf("class ops %d != total %d", sumOps, res.TotalOps)
	}
	out := res.String()
	csv := res.CSV()
	for _, want := range []string{"write", "point", "sum", "group", "p99", "cache%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if !strings.HasPrefix(csv, "class,ops,qps,errors,p50_us,p95_us,p99_us,cache_hit_pct\n") || !strings.Contains(csv, "\ntotal,") {
		t.Errorf("bad csv:\n%s", csv)
	}
}

// TestPointClassCacheHitRate drives a point-heavy zipfian mix against a
// result-cached server: the hot head repeats, so the per-class cache
// hit rate scraped from /metrics must be positive for the point class
// and every lookup must be accounted.
func TestPointClassCacheHitRate(t *testing.T) {
	db := hybridstore.Open(hybridstore.Options{ChunkRows: 128,
		ResultCache: hybridstore.ResultCacheOptions{Cap: 1 << 20}})
	tbl, err := db.CreateTable("item", hybridstore.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Free)
	for i := uint64(0); i < 512; i++ {
		if _, err := tbl.Insert(hybridstore.Item(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := server.New(server.Config{DB: db, BatchWindow: server.DefaultBatchWindow})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	res, err := Run(Options{
		BaseURL:     ts.URL,
		Rows:        512,
		Concurrency: 8,
		Duration:    400 * time.Millisecond,
		Mix:         Mix{Point: 80, Sum: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalErrs != 0 {
		t.Fatalf("errors:\n%s", res)
	}
	pt := res.Classes[ClassPoint]
	if pt.Ops == 0 {
		t.Fatalf("point class served nothing:\n%s", res)
	}
	if pt.CacheLookups < pt.Ops {
		t.Fatalf("point lookups %d < ops %d: pre-check not consulted per request", pt.CacheLookups, pt.Ops)
	}
	if pt.CacheHits == 0 || pt.CacheHitPct <= 0 {
		t.Fatalf("zipfian point reads never hit the result cache:\n%s", res)
	}
	if pt.CacheHits > pt.CacheLookups {
		t.Fatalf("hits %d > lookups %d", pt.CacheHits, pt.CacheLookups)
	}
	// The write class never consults the cache.
	if w := res.Classes[ClassWrite]; w.CacheLookups != 0 || w.CacheHits != 0 {
		t.Fatalf("write class reported cache traffic: %+v", w)
	}
}

// TestRunOpenLoop paces arrivals at a modest fixed rate; completed ops
// must track the offered load, not the service capacity.
func TestRunOpenLoop(t *testing.T) {
	ts := testServer(t, 0)
	res, err := Run(Options{
		BaseURL:     ts.URL,
		Rows:        512,
		Concurrency: 4,
		Duration:    500 * time.Millisecond,
		Mix:         Mix{Sum: 100},
		OpenRate:    200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalErrs != 0 {
		t.Fatalf("errors:\n%s", res)
	}
	// ~100 arrivals offered; the server clears them easily, so ops
	// should sit near the offered count, far below closed-loop rates.
	if res.TotalOps == 0 {
		t.Fatalf("no throughput:\n%s", res)
	}
	if res.QPS > 400 {
		t.Fatalf("open loop at 200 req/s measured %.0f qps — pacing is not limiting", res.QPS)
	}
}

// TestOpenLoopCountsUnsent offers one lane far more arrivals than it
// can send: every arrival due before the deadline is either answered,
// errored or counted unsent, none is lost, and because each request is
// timed from when it was due, the backlog shows in the latency instead
// of vanishing from it.
func TestOpenLoopCountsUnsent(t *testing.T) {
	ts := testServer(t, 0)
	opts := Options{BaseURL: ts.URL, Rows: 512, Concurrency: 1, Duration: 400 * time.Millisecond, Mix: Mix{Sum: 100}}
	closed, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.OpenRate = 1e6
	open, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	interval := time.Duration(float64(time.Second) / opts.OpenRate)
	due := int64((opts.Duration + interval - 1) / interval)
	if got := open.TotalOps + open.TotalErrs + open.Unsent; got != due {
		t.Errorf("ops %d + errors %d + unsent %d = %d, want the %d arrivals due", open.TotalOps, open.TotalErrs, open.Unsent, got, due)
	}
	if open.Unsent <= 0 {
		t.Errorf("one lane kept up with %.0f req/s:\n%s", opts.OpenRate, open)
	}
	if o, c := open.Classes[ClassSum].P50, closed.Classes[ClassSum].P50; o < c {
		t.Errorf("open-loop p50 %v below closed-loop p50 %v: latency is not timed from the due time", o, c)
	}
	if closed.Unsent != 0 {
		t.Errorf("closed loop reported %d unsent", closed.Unsent)
	}
}

// TestServingSweep is the serving-layer acceptance gate: at a 32-client
// burst over warm device-cached data the batching server must share
// storage passes — its scan cohorts carried more plans than they ran
// passes, a count, where a wall-clock ratio is noise on shared hardware
// — and every leg must be error-free and report a p99 for each class it
// served. Two servers front the one store, one batching and one
// executing every request solo, over {1, 32} clients; every leg starts
// from a merged table.
func TestServingSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("serving sweep measures wall-clock legs; skipped in -short")
	}
	const rows = 4096
	db := hybridstore.Open(hybridstore.Options{ChunkRows: 256, DeviceCache: true})
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("item", hybridstore.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Free)
	for i := uint64(0); i < rows; i++ {
		if _, err := tbl.Insert(hybridstore.Item(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Re-key i_im_id to a dashboard-cardinality group domain, fold the
	// rewrites and warm the device cache: the legs compare serving paths,
	// not cold-start transfers.
	for i := uint64(0); i < rows; i++ {
		if err := tbl.Update(i, 1, hybridstore.Int32Value(int32(i%64))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.SumFloat64Where(hybridstore.ItemPriceColumn, hybridstore.GtFloat(0)); err != nil {
		t.Fatal(err)
	}
	urls := map[bool]string{}
	for _, batched := range []bool{false, true} {
		cfg := server.Config{DB: db}
		if batched {
			cfg.BatchWindow = server.DefaultBatchWindow
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go server.New(cfg).Serve(l)
		urls[batched] = "http://" + l.Addr().String()
	}
	mix, err := ParseMix("write=20,sum=60,group=20")
	if err != nil {
		t.Fatal(err)
	}
	// With 20 % writes over these few rows a leg would otherwise inherit
	// its predecessor's deltas.
	drive := func(batched bool, conc int, dur time.Duration) *Result {
		t.Helper()
		if err := tbl.Merge(); err != nil {
			t.Fatal(err)
		}
		res, err := Run(Options{BaseURL: urls[batched], Rows: rows, Concurrency: conc, Duration: dur, Mix: mix})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// A short discarded leg per server: connection setup and pool
	// priming happen off the clock.
	for _, batched := range []bool{false, true} {
		drive(batched, 4, 150*time.Millisecond)
	}
	for _, conc := range []int{1, 32} {
		for _, batched := range []bool{false, true} {
			res := drive(batched, conc, 800*time.Millisecond)
			if conc == 32 && batched && res.Plans <= res.Passes {
				t.Errorf("32 batched clients shared no pass: %d plans in %d passes\n%s", res.Plans, res.Passes, res)
			}
			if res.TotalErrs != 0 {
				t.Errorf("leg c=%d batched=%v had %d errors\n%s", conc, batched, res.TotalErrs, res)
			}
			for _, c := range res.Classes {
				if served := c.Ops > 0 || c.Errors > 0; served != (c.Name != "point") {
					t.Fatalf("leg c=%d batched=%v: class %s served %v, want write, sum and group only\n%s",
						conc, batched, c.Name, served, res)
				}
				if c.Ops > 0 && c.P99 <= 0 {
					t.Errorf("leg c=%d batched=%v class %s: %d ops but p99 %v", conc, batched, c.Name, c.Ops, c.P99)
				}
			}
		}
	}
}

// TestAutoTerm ends a steady closed-loop run well before the duration
// ceiling.
func TestAutoTerm(t *testing.T) {
	ts := testServer(t, server.DefaultBatchWindow)
	res, err := Run(Options{
		BaseURL:       ts.URL,
		Rows:          512,
		Concurrency:   4,
		Duration:      30 * time.Second,
		Mix:           Mix{Sum: 100},
		AutoTerm:      true,
		StabWindow:    100 * time.Millisecond,
		StabCount:     3,
		StabSpreadPct: 80, // generous: CI machines are noisy
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilized {
		t.Fatalf("did not stabilize:\n%s", res)
	}
	if res.Wall > 10*time.Second {
		t.Fatalf("autoterm took %v", res.Wall)
	}
}

func TestRunRejectsWriteMixWithoutRows(t *testing.T) {
	if _, err := Run(Options{BaseURL: "http://127.0.0.1:1", Mix: Mix{Write: 1}}); err == nil {
		t.Fatal("accepted write mix without Rows")
	}
}
