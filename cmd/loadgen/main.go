// Command loadgen is the warp-style concurrent load driver for the
// serving layer: it points a swarm of client lanes at a running server
// (or spins up its own with -selfserve) and reports wall-clock QPS and
// p50/p95/p99 latency per operation class — point writes, zipfian
// point reads, predicate sums and fused group-bys, mixed by -mix. The
// per-class result-cache hit rate is scraped from /metrics and lands
// in the report and the -csv panel.
//
// Closed loop by default (each lane fires its next request when the
// last answers); -rate N switches to open-loop arrivals at N requests
// per second, each timed from when it was due, and the report counts
// the arrivals no lane got to send as unsent. With -autoterm the run
// ends as soon as throughput stabilizes instead of burning the full
// -duration. The report also carries the storage passes the server's
// scan cohorts ran and the plans they carried: more plans than passes
// means batching shared them.
//
// -unique makes every analytic predicate a practically unique range
// (loadgen.UniqueCut, the widths of the benchmark's scan-unique
// workload), so few sums or group-bys are result-cache hits and the run
// measures the scan itself.
//
// The exit status is the CI contract: 0 when every request succeeded, 1
// when any request errored. With -selfserve the run additionally
// verifies, after the lanes quiesce, that served bytes are bit-identical
// to direct facade execution — point reads and predicate sums, the
// fixed cuts and under -unique a seeded sample of unique ranges, are
// replayed over HTTP and compared byte for byte; any divergence (a stale
// cache entry, a broken shared pass) exits 1.
//
// -cpuprofile, -memprofile and -mutexprofile write runtime/pprof
// profiles of this process: CPU from the first request to the end of
// verification, the heap profile once verification has passed — its
// alloc_space view counts every allocation since start, the fixture load
// included — and, beside it, the mutex profile: every contended lock
// release from the first request to the end of verification, timed by
// how long its waiters waited. With
// -selfserve the server is in the process, so these are the served
// path's profiles; perf/profile.sh turns them into committed text.
// A -selfserve mix that writes leaves the delta backlog to the engine,
// which settles its own tail once the live versions reach its budget;
// under -wal the store is checkpointed once a second, so the log stays
// the length the benchmark's durable workload keeps.
//
// Usage:
//
//	loadgen -selfserve [-rows N] [-unbatched]
//	        [-result-cache BYTES] [-concurrency N] [-duration D]
//	        [-mix write=20,point=20,sum=45,group=15]
//	        [-rate N] [-autoterm] [-unique] [-csv serving_panel.csv]
//	        [-cpuprofile FILE] [-memprofile FILE] [-mutexprofile FILE]
//	loadgen -addr http://host:port ...
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"hybridstore"
	"hybridstore/internal/server"
	"hybridstore/internal/server/loadgen"
)

func main() {
	addr := flag.String("addr", "", "serving endpoint, e.g. http://127.0.0.1:8080 (omit with -selfserve)")
	selfserve := flag.Bool("selfserve", false, "spin up an in-process server on a loopback port and drive that")
	rows := flag.Uint64("rows", 4096, "item rows to load (-selfserve) and the point-write row domain")
	unbatched := flag.Bool("unbatched", false, "disable shared-scan batching in the -selfserve server")
	resCache := flag.Int64("result-cache", 4<<20, "result cache capacity in bytes for -selfserve (0 disables)")
	concurrency := flag.Int("concurrency", 16, "client lanes")
	duration := flag.Duration("duration", 5*time.Second, "run length (upper bound with -autoterm)")
	mixFlag := flag.String("mix", "write=20,point=20,sum=45,group=15", "operation mix in percent")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
	autoterm := flag.Bool("autoterm", false, "stop early once throughput stabilizes")
	csvPath := flag.String("csv", "", "also write the per-class panel to this CSV file")
	seed := flag.Int64("seed", 1, "workload seed")
	unique := flag.Bool("unique", false, "draw every analytic predicate as a practically unique range, so the result cache answers few")
	walDir := flag.String("wal", "", "durability directory for -selfserve: the item table write-ahead-logs every acknowledged write and recovers on restart")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run and its verification to this file")
	memProfile := flag.String("memprofile", "", "write the heap (allocation) profile to this file after the run and its verification")
	mutexProfile := flag.String("mutexprofile", "", "write the mutex contention profile of the run and its verification to this file")
	flag.Parse()

	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	base := *addr
	var localTbl *hybridstore.Table
	var checkpoint func() error // -wal: cut once a second
	if *selfserve {
		if base != "" {
			fmt.Fprintln(os.Stderr, "loadgen: -addr and -selfserve are mutually exclusive")
			os.Exit(2)
		}
		stop, url, tbl, db, err := serveLocal(*rows, *unbatched, *resCache, *walDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: selfserve:", err)
			os.Exit(1)
		}
		defer stop()
		base, localTbl = url, tbl
		if *walDir != "" {
			checkpoint = db.Checkpoint
		}
		fmt.Printf("selfserve: %d item rows on %s (batching %v, result cache %d B)\n",
			*rows, url, !*unbatched, *resCache)
	}
	if base == "" {
		fmt.Fprintln(os.Stderr, "loadgen: need -addr or -selfserve")
		os.Exit(2)
	}

	if *cpuProfile != "" {
		profileTo(*cpuProfile, pprof.StartCPUProfile)
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	stopCheckpoints := func() {}
	if checkpoint != nil && mix.Write > 0 {
		stopCheckpoints = everySecond(checkpoint)
	}
	res, err := loadgen.Run(loadgen.Options{
		BaseURL:     base,
		Rows:        *rows,
		Concurrency: *concurrency,
		Duration:    *duration,
		Mix:         mix,
		OpenRate:    *rate,
		AutoTerm:    *autoterm,
		Seed:        *seed,
		Unique:      *unique,
	})
	stopCheckpoints()
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	fmt.Print(res.String())
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(res.CSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: csv:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if res.TotalErrs > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d request(s) errored\n", res.TotalErrs)
		os.Exit(1)
	}
	if localTbl != nil {
		n, err := verifyBits(base, localTbl, *unique, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: bit-match verification FAILED:", err)
			os.Exit(1)
		}
		fmt.Printf("bit-match verification: %d served responses identical to direct execution\n", n)
	}
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		runtime.GC() // the profile holds what the last completed GC saw
		profileTo(*memProfile, pprof.WriteHeapProfile)
	}
	if *mutexProfile != "" {
		profileTo(*mutexProfile, func(w io.Writer) error { return pprof.Lookup("mutex").WriteTo(w, 0) })
	}
}

// everySecond calls checkpoint once a second until the returned stop is
// called; stop returns once no checkpoint runs. A failed checkpoint ends
// the run.
func everySecond(checkpoint func() error) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	tick := time.NewTicker(time.Second)
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				tick.Stop()
				return
			case <-tick.C:
				if err := checkpoint(); err != nil {
					fmt.Fprintln(os.Stderr, "loadgen: checkpoint:", err)
					os.Exit(1)
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// profileTo creates path and hands it to write (a runtime/pprof writer);
// a failure ends the run. The file closes with the process.
func profileTo(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: profile:", err)
		os.Exit(1)
	}
}

// verifyBits replays point reads and predicate sums over HTTP against
// the quiesced table and compares each response byte for byte with the
// facade's direct answer rendered the way the server renders it
// (shortest-exact float formatting). With unique the sums also cover 16
// unique ranges drawn from seed. A single divergent byte — a stale
// cache entry surviving invalidation, a shared pass answering the wrong
// predicate — fails the run.
func verifyBits(base string, tbl *hybridstore.Table, unique bool, seed int64) (int, error) {
	c, err := loadgen.Dial(&http.Client{Timeout: 10 * time.Second}, base)
	if err != nil {
		return 0, err
	}
	get, err := c.Prepare(`"op":"get","table":"item"`)
	if err != nil {
		return 0, err
	}
	sum, err := c.Prepare(`"op":"sum_where","table":"item","col":4`)
	if err != nil {
		return 0, err
	}

	checked := 0
	// Point reads: the zipfian hot head (re-read twice so the second
	// pass crosses the result cache) plus a stride across the table.
	rows := tbl.Rows()
	var sample []uint64
	for r := uint64(0); r < 8 && r < rows; r++ {
		sample = append(sample, r, r)
	}
	for r := uint64(0); r < rows; r += rows/16 + 1 {
		sample = append(sample, r)
	}
	for _, row := range sample {
		rec, err := tbl.Get(row)
		if err != nil {
			return checked, err
		}
		want := string(server.AppendRecord(nil, rec))
		got, err := c.Exec(get, fmt.Sprintf(`"row":%d`, row))
		if err != nil {
			return checked, err
		}
		if got != want {
			return checked, fmt.Errorf("get(%d):\n served %s\n direct %s", row, got, want)
		}
		checked++
	}
	// Predicate sums: the fixed cuts, and the unique sample, twice each.
	cuts, r := slices.Clone(loadgen.PredCuts), rand.New(rand.NewSource(seed))
	for i := 0; unique && i < 16; i++ {
		cuts = append(cuts, loadgen.UniqueCut(r))
	}
	for pass := 0; pass < 2; pass++ {
		for _, cut := range cuts {
			res, err := tbl.Execute([]hybridstore.Plan{{Op: "sum_where", Col: hybridstore.ItemPriceColumn, Pred: cut.Pred}})
			if err != nil {
				return checked, err
			}
			want := fmt.Sprintf(`{"sum":%s,"count":%d}`, strconv.FormatFloat(res[0].Sum, 'g', -1, 64), res[0].Count)
			got, err := c.Exec(sum, `"pred":`+cut.Wire)
			if err != nil {
				return checked, err
			}
			if got != want {
				return checked, fmt.Errorf("sum_where %s:\n served %s\n direct %s", cut.Wire, got, want)
			}
			checked++
		}
	}
	return checked, nil
}

// serveLocal builds the warm item fixture and serves it on a loopback
// port. The store has the benchmark's shape (bench/fixture.go's
// storeOptions): compressed cold chunks, the device cache, default chunk
// size and, at the flag's default, a 4 MiB result cache — so a profile
// of this process sees the re-seal and the compressed kernels the
// benchmark runs. With a non-empty walDir the item table is opened
// durably: a previous process's rows are recovered instead of reloaded,
// the device cache is re-primed from the checkpoint's manifest, and
// every write acknowledged over HTTP survives a kill.
func serveLocal(rows uint64, unbatched bool, resCache int64, walDir string) (stop func(), url string, vtbl *hybridstore.Table, db *hybridstore.DB, err error) {
	opts := hybridstore.Options{DeviceCache: true, Compress: true,
		ResultCache: hybridstore.ResultCacheOptions{Cap: resCache}}
	if walDir != "" {
		if db, err = hybridstore.OpenDir(walDir, opts); err != nil {
			return nil, "", nil, nil, err
		}
	} else {
		db = hybridstore.Open(opts)
	}
	fail := func(tbl *hybridstore.Table, err error) (func(), string, *hybridstore.Table, *hybridstore.DB, error) {
		if tbl != nil {
			tbl.Free()
		}
		db.Close()
		return nil, "", nil, nil, err
	}
	tbl := db.Table("item")
	if tbl == nil { // fresh store (always, without -wal): load the fixture
		if tbl, err = db.CreateTable("item", hybridstore.ItemSchema()); err != nil {
			return fail(nil, err)
		}
		for i := uint64(0); i < rows; i++ {
			if _, err := tbl.Insert(hybridstore.Item(i)); err != nil {
				return fail(tbl, err)
			}
		}
		// Re-key i_im_id to a dashboard-cardinality group domain and fold
		// the rewrites: the raw generator gives near-unique ids, which makes
		// every group-by answer as wide as the table.
		for i := uint64(0); i < rows; i++ {
			if err := tbl.Update(i, 1, hybridstore.Int32Value(int32(i%64))); err != nil {
				return fail(tbl, err)
			}
		}
	} else {
		fmt.Printf("selfserve: recovered %d item rows from %s\n", tbl.Rows(), walDir)
	}
	if err := tbl.Merge(); err != nil {
		return fail(tbl, err)
	}
	// Warm pass: populate the device cache before lanes arrive, so the
	// measured run starts from the steady state.
	if _, err := tbl.Execute([]hybridstore.Plan{{Op: "sum_where", Col: hybridstore.ItemPriceColumn, Pred: hybridstore.GtFloat(0)}}); err != nil {
		return fail(tbl, err)
	}
	if walDir != "" {
		// Cut a checkpoint of the warm fixture, so the next recovery
		// restores sealed fragments instead of replaying the bulk load and
		// re-primes the device cache from the manifest of what is resident.
		if err := db.Checkpoint(); err != nil {
			return fail(tbl, err)
		}
	}
	cfg := server.Config{DB: db}
	if !unbatched {
		cfg.BatchWindow = server.DefaultBatchWindow
	}
	s := server.New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(tbl, err)
	}
	go s.Serve(l)
	return func() { l.Close(); db.Close(); tbl.Free() }, "http://" + l.Addr().String(), tbl, db, nil
}
