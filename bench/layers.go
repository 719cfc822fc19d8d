package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"hybridstore"
	"hybridstore/internal/compress"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/rescache"
	"hybridstore/internal/wal"
)

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median leaves d in its order.
func median(d []int64) int64 {
	s := append([]int64(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, 0.5)
}

// clientMetrics are the latencies of the traced window as the lanes saw
// them: ungated, because a tail needs more samples than a run has.
func clientMetrics(win *window, ms *metricSet) {
	for c := class(0); c < numClasses; c++ {
		ms.addPercentile("client."+className[c]+"_p50_us", win.lat[c], 0.50)
		ms.addPercentile("client."+className[c]+"_p99_us", win.lat[c], 0.99)
	}
	ms.addPercentile("client.group_p95_us", win.lat[classGroup], 0.95)
	ms.add("client.gc_pause_ms_total", win.delta(func(m *mark) float64 { return float64(m.mem.PauseTotalNs) })/1e6, "ms",
		int(win.delta(func(m *mark) float64 { return float64(m.mem.NumGC) })))
}

// windowLayerMetrics are the counter differences over the traced window
// whose values depend on the lanes running side by side.
func windowLayerMetrics(win *window, ms *metricSet) {
	hist := func(name string) (count, sum float64) {
		return win.delta(func(m *mark) float64 { return float64(m.obs.Histograms[name].Count) }),
			win.delta(func(m *mark) float64 { return float64(m.obs.Histograms[name].SumNs) })
	}

	// server
	classOps := [numClasses][]string{
		classPoint: {"get", "get_pk"}, classSum: {"sum_where"}, classGroup: {"group_sum_where"},
	}
	for _, c := range []class{classPoint, classSum, classGroup} {
		var hits, lookups float64
		for _, op := range classOps[c] {
			hits += win.counter("server.cache." + op + ".hits")
			lookups += win.counter("server.cache." + op + ".lookups")
		}
		ms.add("server.cache_hit_share."+className[c], ratio(hits, lookups), "ratio", int(lookups))
	}
	flushes := win.counter("server.batch.flushes")
	ms.add("server.batch.flushes", flushes, "count", 0)
	ms.add("server.batch.preds_per_flush", ratio(win.counter("server.batch.preds"), flushes), "count", int(flushes))
	gathers := win.counter("server.gather.flushes")
	ms.add("server.gather.rows_per_flush", ratio(win.counter("server.gather.rows"), gathers), "count", int(gathers))
	var busyNs, errs float64
	for _, op := range opName {
		_, ns := hist("server.exec." + op + ".ns")
		busyNs += ns
		errs += win.counter("server.exec." + op + ".errors")
	}
	ms.add("server.exec_busy_share", busyNs/1e9/(float64(len(win.w.lanes))*win.seconds), "ratio", 0)
	ms.add("server.exec.errors", errs, "count", 0)
	ms.add("server.admission.shed", win.counter("server.admission.throttled")+win.counter("server.admission.overload"), "count", 0)

	// rescache
	lookups := win.delta(func(m *mark) float64 { return float64(m.res.Lookups) })
	ms.add("rescache.hit_share", ratio(win.delta(func(m *mark) float64 { return float64(m.res.Hits) }), lookups), "ratio", int(lookups))
	ms.add("rescache.stale_share", ratio(win.delta(func(m *mark) float64 { return float64(m.res.Stale) }), lookups), "ratio", int(lookups))
	ms.add("rescache.evictions", win.delta(func(m *mark) float64 { return float64(m.res.Evictions) }), "count", 0)
	ms.add("rescache.bytes", float64(win.last().res.Bytes), "B", 0)

	// core, tx: the merges are the harness's own calls
	var mergeNs, ckptNs, pendingMax int64
	ckpts := 0
	for _, u := range win.upkeeps {
		mergeNs += u.mergeNs
		pendingMax = max(pendingMax, u.pendingVersions)
		if u.ckptNs > 0 {
			ckptNs += u.ckptNs
			ckpts++
		}
	}
	ms.add("core.merge_ms_mean", ratio(float64(mergeNs)/1e6, float64(len(win.upkeeps))), "ms", len(win.upkeeps))
	ms.add("core.merge_runs", float64(len(win.upkeeps)), "count", 0)
	ms.add("core.pending_versions_max", float64(pendingMax), "count", 0)
	for _, name := range []string{"core.freezes", "tx.commits", "tx.conflicts", "tx.versions_pruned",
		"exec.sharedscan.saved_passes", "exec.groupby.fused.fallbacks", "pool.jobs_submitted", "layout.seals"} {
		ms.add(name, win.counter(name), "count", 0)
	}

	// device
	acquires := win.delta(func(m *mark) float64 { return float64(m.dev.Hits + m.dev.Misses) })
	ms.add("device.cache.hit_share", ratio(win.delta(func(m *mark) float64 { return float64(m.dev.Hits) }), acquires), "ratio", int(acquires))
	ms.add("device.cache.resident_bytes", float64(win.last().dev.ResidentBytes), "B", 0)

	// wal
	writes := float64(win.writes)
	ms.add("wal.fsyncs_per_write", ratio(win.counter("wal.fsyncs"), writes), "count", win.writes)
	ms.add("wal.flushes_per_write", ratio(win.counter("wal.flushes"), writes), "count", win.writes)
	groups, grouped := hist("wal.group_size")
	ms.add("wal.group_size_mean", ratio(grouped, groups), "count", int(groups))
	ms.add("wal.checkpoint_ms_mean", ratio(float64(ckptNs)/1e6, float64(ckpts)), "ms", ckpts)
	ms.add("wal.log_bytes_end", float64(win.last().walBytes), "B", 0)
}

// replayLayerMetrics are the counter differences over the single-lane
// HTTP pass of the depth replay. With one client and no timers these
// counts repeat exactly for a given seed.
func replayLayerMetrics(rp *replay, ms *metricSet) {
	counter := func(name string) float64 { return float64(rp.m1.obs.Counter(name) - rp.m0.obs.Counter(name)) }
	scans, writes := float64(rp.scans), float64(rp.writes)
	var kernelCalls float64
	for name := range rp.m1.obs.Counters {
		if strings.HasPrefix(name, "exec.") && strings.HasSuffix(name, ".ops") {
			kernelCalls += counter(name)
		}
	}
	ms.add("exec.kernel_calls_per_scan", ratio(kernelCalls, scans), "count", rp.scans)
	pruned, scanned := counter("exec.zonemap.pruned"), counter("exec.zonemap.scanned")
	ms.add("exec.zonemap.pruned_share", ratio(pruned, pruned+scanned), "ratio", int(pruned+scanned))
	ms.add("exec.zonemap.pruned_bytes_per_scan", ratio(counter("exec.zonemap.pruned_bytes_total"), scans), "B", rp.scans)
	ms.add("device.kernels_per_scan", ratio(counter("device.kernels"), scans), "count", rp.scans)
	ms.add("device.h2d_bytes_per_scan", ratio(counter("device.h2d_bytes"), scans), "B", rp.scans)
	ms.add("device.d2h_bytes_per_scan", ratio(counter("device.d2h_bytes"), scans), "B", rp.scans)
	ms.add("perfmodel.sim_ms_per_scan", ratio((rp.m1.simSecs-rp.m0.simSecs)*1e3, scans), "ms", rp.scans)
	ms.add("wal.appends_per_write", ratio(counter("wal.appends"), writes), "count", rp.writes)
	ms.add("wal.bytes_per_write", ratio(counter("wal.bytes"), writes), "B", rp.writes)
}

// Entry depths of the depth replay, outermost first.
const (
	depthHTTP = iota
	depthExec
	depthFacade
	depthKernel
	numDepths
)

var depthName = [numDepths]string{"http", "exec", "facade", "kernel"}

// replay is the result of replaying one request stream at each entry
// depth, single-lane.
type replay struct {
	n        int                        // requests replayed per depth
	dur      [numDepths][numOps][]int64 // ns, in request order
	compress []int64                    // compressed-domain kernel, sum requests only
	ratio    float64                    // compress.Ratio of the price column
	m0, m1   mark                       // around the HTTP pass
	scans    int
	writes   int
	spans    []span
	mismatch int
}

// depthReplay replays the first n requests of w's seeded stream (lanes
// interleaved) once per entry depth: over HTTP, into Server.Exec, into
// the facade method, and into the bare kernel. Each of the three store
// depths gets a fresh fixture, so all see the same table and the same
// cache history and their per-class medians can be subtracted: a layer's
// self time is its depth's median minus the next depth's. Before the
// replay each fixture executes the workload's replayWarm following
// requests through the facade, unmeasured, to fill its caches.
func depthReplay(w *workload, seed int64, n int, walRoot string, epoch time.Time) (*replay, error) {
	rp := &replay{n: n}
	gens := make([]*generator, len(w.lanes))
	for i := range gens {
		gens[i] = newGenerator(w, i, seed)
	}
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = gens[i%len(gens)].next()
		switch opClass[reqs[i].op] {
		case classWrite:
			rp.writes++
		case classSum, classGroup:
			rp.scans++
		}
	}
	warm := make([]request, w.replayWarm)
	for i := range warm {
		warm[i] = gens[i%len(gens)].next()
	}
	parent := make([]int, n) // span id one depth up, per request
	record := func(depth, i int, name string, t0, t1 time.Duration) {
		id := len(rp.spans) + 1
		rp.spans = append(rp.spans, span{ID: id, Parent: parent[i], Name: "replay." + name, Req: uint64(i), StartNs: int64(t0), EndNs: int64(t1)})
		if depth < depthKernel {
			parent[i] = id
		}
	}
	answers := make([]uint64, n) // hash of the HTTP depth's response
	var body, out []byte
	for depth := depthHTTP; depth <= depthFacade; depth++ {
		fx, err := setup(w, walRoot)
		if err != nil {
			return nil, err
		}
		for _, q := range warm {
			if _, err := callFacade(fx.tbl, q); err != nil {
				fx.close()
				return nil, err
			}
		}
		var c *httpConn
		if depth == depthHTTP {
			if c, err = dial(fx.addr()); err != nil {
				fx.close()
				return nil, err
			}
			rp.m0 = takeMark(fx, epoch)
		}
		for i, q := range reqs {
			code := 200
			var t0, t1 time.Duration
			switch depth {
			case depthHTTP:
				body = appendBody(body[:0], fx.sid, &fx.stmts, q)
				t0 = time.Since(epoch)
				code, out, err = c.post("/v1/exec", body)
				t1 = time.Since(epoch)
			case depthExec:
				body = appendBody(body[:0], fx.sid, &fx.stmts, q)
				t0 = time.Since(epoch)
				out, code = fx.srv.Exec(body, out[:0])
				t1 = time.Since(epoch)
			case depthFacade:
				var a answer
				t0 = time.Since(epoch)
				a, err = callFacade(fx.tbl, q)
				t1 = time.Since(epoch)
				out = appendAnswer(out[:0], q.op, a)
			}
			rp.dur[depth][q.op] = append(rp.dur[depth][q.op], int64(t1-t0))
			record(depth, i, depthName[depth]+"."+opName[q.op], t0, t1)
			// Every depth must give the same bytes for the same request.
			if h := hashBytes(out); err != nil || code != 200 {
				rp.mismatch++
				err = nil
			} else if depth == depthHTTP {
				answers[i] = h
			} else if h != answers[i] {
				rp.mismatch++
			}
		}
		if depth == depthHTTP {
			rp.m1 = takeMark(fx, epoch)
			c.close()
		}
		if err := fx.close(); err != nil {
			return nil, err
		}
	}

	// Kernel depth: the scan kernels on dense synthetic columns of the
	// fixture's size and contents, with no zone maps and no store.
	price := make([]byte, w.rows*8)
	keys := make([]byte, w.rows*4)
	for i := uint64(0); i < w.rows; i++ {
		rec := itemRecord(i)
		binary.LittleEndian.PutUint64(price[i*8:], math.Float64bits(rec[priceCol].F))
		binary.LittleEndian.PutUint32(keys[i*4:], uint32(rec[groupCol].I))
	}
	rows := layout.RowRange{Begin: 0, End: w.rows}
	pricePieces := []exec.Piece{{Rows: rows, Vec: layout.ColVector{Data: price, Stride: 8, Size: 8, Len: int(w.rows)}}}
	keyPieces := []exec.Piece{{Rows: rows, Vec: layout.ColVector{Data: keys, Stride: 4, Size: 4, Len: int(w.rows)}}}
	col, err := compress.Compress(price, int(w.rows), 8)
	if err != nil {
		return nil, err
	}
	rp.ratio = col.Ratio()
	for i, q := range reqs {
		switch q.op {
		case opSumWhere:
			t0 := time.Since(epoch)
			_, _, err = exec.SumFloat64Where(exec.Single(), pricePieces, q.pred)
			t1 := time.Since(epoch)
			rp.dur[depthKernel][q.op] = append(rp.dur[depthKernel][q.op], int64(t1-t0))
			record(depthKernel, i, "kernel.exec.sum_where", t0, t1)
			if err == nil {
				t0 = time.Since(epoch)
				_, _, err = col.SumFloat64Where(compress.Pred[float64]{Op: compress.Op(q.pred.Op), Lo: q.pred.Lo, Hi: q.pred.Hi})
				t1 = time.Since(epoch)
				rp.compress = append(rp.compress, int64(t1-t0))
				record(depthKernel, i, "kernel.compress.sum_where", t0, t1)
			}
		case opGroupSumWhere:
			t0 := time.Since(epoch)
			_, err = exec.GroupSumFloat64Where(exec.Single(), keyPieces, pricePieces, q.pred)
			t1 := time.Since(epoch)
			rp.dur[depthKernel][q.op] = append(rp.dur[depthKernel][q.op], int64(t1-t0))
			record(depthKernel, i, "kernel.exec.group_sum_where", t0, t1)
		}
		if err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// classMedian is the median over every op of class c at one depth.
func (rp *replay) classMedian(depth int, c class) (int64, int) {
	var all []int64
	for op := opKind(0); op < numOps; op++ {
		if opClass[op] == c {
			all = append(all, rp.dur[depth][op]...)
		}
	}
	return median(all), len(all)
}

// spanMetrics derives each layer's self time from the replay.
func (rp *replay) spanMetrics(ms *metricSet) {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for c := class(0); c < numClasses; c++ {
		h, n := rp.classMedian(depthHTTP, c)
		e, _ := rp.classMedian(depthExec, c)
		f, _ := rp.classMedian(depthFacade, c)
		ms.add("server.http_self_p50_us."+className[c], us(h-e), "us", n)
		ms.add("server.exec_self_p50_us."+className[c], us(e-f), "us", n)
	}
	for op := opKind(0); op < numOps; op++ {
		d := rp.dur[depthFacade][op]
		ms.add("core."+opName[op]+"_p50_us", us(median(d)), "us", len(d))
	}
	ms.add("exec.sum_where_p50_us", us(median(rp.dur[depthKernel][opSumWhere])), "us", len(rp.dur[depthKernel][opSumWhere]))
	ms.add("exec.group_sum_where_p50_us", us(median(rp.dur[depthKernel][opGroupSumWhere])), "us", len(rp.dur[depthKernel][opGroupSumWhere]))
	ms.add("compress.sum_where_p50_us", us(median(rp.compress)), "us", len(rp.compress))
	ms.add("compress.ratio", rp.ratio, "ratio", 0)
}

// closure reports, per class the workload issues, how closely the
// replay's layers add up to its HTTP median: http_self + exec_self + the
// ops' facade medians weighted by their share of the class.
func (rp *replay) closure() string {
	var b strings.Builder
	for c := class(0); c < numClasses; c++ {
		h, n := rp.classMedian(depthHTTP, c)
		if n == 0 {
			continue
		}
		e, _ := rp.classMedian(depthExec, c)
		f, _ := rp.classMedian(depthFacade, c)
		var core float64
		for op := opKind(0); op < numOps; op++ {
			if d := rp.dur[depthFacade][op]; opClass[op] == c && len(d) > 0 {
				core += float64(median(d)) * float64(len(d)) / float64(n)
			}
		}
		sum := float64(h-e) + float64(e-f) + core
		fmt.Fprintf(&b, "  %-5s http p50 %9.1f us = http_self %8.1f + exec_self %8.1f + core %8.1f (sum/http %.3f, n=%d)\n",
			className[c], float64(h)/1e3, float64(h-e)/1e3, float64(e-f)/1e3, core/1e3, sum/float64(h), n)
	}
	return b.String()
}

// scratchMetrics time single layers on scratch instances, apart from any
// counted window because the instances feed the same global counters.
func scratchMetrics(w *workload, walRoot string, ms *metricSet) error {
	const n = 2000
	// rescache: put and hit on a cache shaped like the fixture's (one
	// stamp entry per chunk), over few enough keys that none is evicted.
	const keys = 256
	stamp := rescache.Stamp{Rows: w.rows, Frags: make([]rescache.FragVer, w.rows/1024)}
	for i := range stamp.Frags {
		stamp.Frags[i] = rescache.FragVer{ID: uint64(i + 1), Ver: 1}
	}
	cache := rescache.New(storeOptions.ResultCache.Cap, 0)
	key := func(i int) rescache.Key {
		// Bounds with busy low mantissa bits: the cache shards on the low
		// bits of its hash, and round numbers would all share one shard.
		lo := 1.01 + float64(i%keys)*0.37
		return rescache.Key{Table: "item", Op: rescache.OpSumWhere, Col: priceCol, HasPred: true,
			Pred: exec.Between(lo, lo+0.5)}
	}
	puts, hits := make([]int64, keys), make([]int64, n)
	for i := range puts {
		t0 := time.Now()
		cache.Put(key(i), stamp, rescache.Value{Sum: float64(i), Count: int64(i)})
		puts[i] = int64(time.Since(t0))
	}
	for i := range hits {
		t0 := time.Now()
		_, ok := cache.Lookup(key(i), stamp)
		hits[i] = int64(time.Since(t0))
		if !ok {
			return fmt.Errorf("scratch rescache lost entry %d", i%keys)
		}
	}
	ms.add("rescache.put_p50_ns", float64(median(puts)), "ns", keys)
	ms.add("rescache.lookup_hit_p50_ns", float64(median(hits)), "ns", n)

	// wal: append + sync of an update-sized commit record, without and
	// with the device flush. The flushing figure is this sandbox's disk.
	if err := os.MkdirAll(walRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(walRoot, "scratch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, leg := range []struct {
		name string
		sync wal.SyncPolicy
		n    int
	}{
		{"wal.append_nosync_p50_us", wal.SyncNone, n},
		{"wal.append_sync_disk_p50_us", wal.SyncAlways, n / 10},
	} {
		l, _, err := wal.Open(filepath.Join(dir, leg.name), wal.Options{Sync: leg.sync})
		if err != nil {
			return err
		}
		d := make([]int64, leg.n)
		for i := range d {
			rec := &wal.Record{Kind: wal.KindCommit, Table: "item", TS: uint64(i + 1),
				Ops: []wal.Op{{Row: uint64(i), Rec: itemRecord(uint64(i))}}}
			t0 := time.Now()
			lsn, err := l.Append(rec)
			if err == nil {
				err = l.Sync(lsn)
			}
			d[i] = int64(time.Since(t0))
			if err != nil {
				l.Close()
				return err
			}
		}
		if err := l.Close(); err != nil {
			return err
		}
		ms.add(leg.name, float64(median(d))/1e3, "us", leg.n)
	}
	return nil
}

// scanContention is the median sum_where latency of two goroutines
// scanning at once over that of one alone, on tbl, with predicates that
// never repeat (so the result cache cannot answer).
func scanContention(tbl *hybridstore.Table) (float64, int, error) {
	const n = 100
	scan := func(g int) ([]int64, error) {
		d := make([]int64, n)
		for i := range d {
			lo := 1 + float64(g*n+i)*0.037
			t0 := time.Now()
			_, _, err := tbl.SumFloat64Where(priceCol, hybridstore.BetweenFloat(lo, lo+5))
			d[i] = int64(time.Since(t0))
			if err != nil {
				return nil, err
			}
		}
		return d, nil
	}
	alone, err := scan(0)
	if err != nil {
		return 0, 0, err
	}
	var (
		wg   sync.WaitGroup
		both [2][]int64
		errs [2]error
	)
	for g := range both {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			both[g], errs[g] = scan(g + 1)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	return ratio(float64(median(append(both[0], both[1]...))), float64(median(alone))), n, nil
}
