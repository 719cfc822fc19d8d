package server

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"hybridstore"
	"hybridstore/internal/exec/pool"
)

// benchServer builds the warm serving fixture: device-cached item
// table, batching disabled so the benchmark measures the pure
// per-request path.
func benchServer(tb testing.TB) (*Server, string) {
	db := hybridstore.Open(hybridstore.Options{ChunkRows: 256, DeviceCache: true})
	tbl, err := db.CreateTable("item", hybridstore.ItemSchema())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(tbl.Free)
	for i := uint64(0); i < 2048; i++ {
		if _, err := tbl.Insert(hybridstore.Item(i)); err != nil {
			tb.Fatal(err)
		}
	}
	s := New(Config{DB: db})
	sid, _ := s.CreateSession()
	if _, err := s.Prepare(sid, "sum_where", "item", hybridstore.ItemPriceColumn, 0); err != nil {
		tb.Fatal(err)
	}
	body := fmt.Sprintf(`{"session_id":"%s","stmt_id":0,"pred":{"kind":"between","lo":10,"hi":60}}`, sid)
	// Warm: first pass populates the device cache and the pool buffers.
	out, code := s.Exec([]byte(body), pool.GetBytes())
	if code != 200 {
		tb.Fatalf("warmup: %d %s", code, out)
	}
	pool.PutBytes(out)
	return s, body
}

// serveSumWhereAllocBudget is the response-path allocation ceiling for
// one warm sum_where request end to end — request scan, dispatch, the
// fused scan itself, and response serialization into a recycled buffer.
// Measured 12 with go1.24 on linux/amd64, dominated by the MVCC snapshot;
// the device kernel folds in the caller and allocates nothing, and wire
// handling runs on recycled pool buffers. The gate is the measured count:
// raising it needs a deliberate decision, not an accidental regression.
const serveSumWhereAllocBudget = 12

// raceSumWhereAllocBudget is the same ceiling under the race detector,
// which makes sync.Pool drop a share of what is put back: the count
// read 15–16 there.
const raceSumWhereAllocBudget = 20

func TestServeSumWhereAllocBudget(t *testing.T) {
	s, body := benchServer(t)
	raw := []byte(body)
	got := testing.AllocsPerRun(200, func() {
		out, code := s.Exec(raw, pool.GetBytes())
		if code != 200 {
			t.Fatalf("exec: %d %s", code, out)
		}
		pool.PutBytes(out)
	})
	budget := serveSumWhereAllocBudget
	if raceEnabled {
		budget = raceSumWhereAllocBudget
	}
	t.Logf("warm sum_where: %.1f allocs/op", got)
	if got > float64(budget) {
		t.Fatalf("warm sum_where costs %.0f allocs/op, budget %d", got, budget)
	}
}

// BenchmarkServeSumWhere measures the warm per-request serving path.
func BenchmarkServeSumWhere(b *testing.B) {
	s, body := benchServer(b)
	raw := []byte(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, code := s.Exec(raw, pool.GetBytes())
		if code != 200 {
			b.Fatalf("exec: %d %s", code, out)
		}
		pool.PutBytes(out)
	}
}

// opServer builds the benchmark's store shape — compressed cold chunks,
// the device cache, a result cache of cacheBytes (the benchmark's is
// 4 MiB), default chunk size — over
// 4096 merged item rows, their group key re-keyed to i%64 as the
// benchmark's fixture does, served as the benchmark serves it, batching
// on, with one prepared statement per op class. bodies maps a class to
// its request body. Rows 0-2047 sit in the two cold chunks, whose
// images the device cache holds once a scan has run; rows 2048-4095
// are the hot tail, which the host leg scans. Prices rise with the
// row: the cold chunks hold 1.00-21.47, the hot tail 21.48-41.95.
func opServer(tb testing.TB, cacheBytes int64) (*Server, *hybridstore.Table, map[string][]byte) {
	db := hybridstore.Open(hybridstore.Options{DeviceCache: true, Compress: true,
		ResultCache: hybridstore.ResultCacheOptions{Cap: cacheBytes}})
	tbl, err := db.CreateTable("item", hybridstore.ItemSchema())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(tbl.Free)
	for i := uint64(0); i < 4096; i++ {
		rec := hybridstore.Item(i)
		rec[1] = hybridstore.Int32Value(int32(i % 64))
		if _, err := tbl.Insert(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tbl.Merge(); err != nil {
		tb.Fatal(err)
	}
	s := New(Config{DB: db, BatchWindow: DefaultBatchWindow})
	sid, _ := s.CreateSession()
	bodies := map[string][]byte{}
	for _, st := range []struct {
		class, op   string
		col, keyCol int
		args        string
	}{
		{"update", "update", hybridstore.ItemPriceColumn, 0, `"row":7,"value":12.5`},
		{"get", "get", 0, 0, `"row":9`},
		{"get_pk", "get_pk", 0, 0, `"pk":11`},
		{"group_sum_where", "group_sum_where", hybridstore.ItemPriceColumn, 1, `"pred":{"kind":"between","lo":10,"hi":60}`},
		// The misses' unique ranges straddle the cold/hot border at
		// 21.475, so both legs run and merge: ~98 cold rows, every one of
		// the 64 groups, and ~23 hot ones. freshRange moves them.
		{"sum miss", "sum_where", hybridstore.ItemPriceColumn, 0, `"pred":{"kind":"between","lo":20.5000000,"hi":21.7000000}`},
		{"group miss", "group_sum_where", hybridstore.ItemPriceColumn, 1, `"pred":{"kind":"between","lo":20.5000000,"hi":21.7000000}`},
	} {
		id, err := s.Prepare(sid, st.op, "item", st.col, st.keyCol)
		if err != nil {
			tb.Fatal(err)
		}
		bodies[st.class] = []byte(fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,%s}`, sid, id, st.args))
	}
	return s, tbl, bodies
}

// freshRange returns a prep for execAllocs that gives body's between
// range a new lo and hi before each request — each 1e-7 above the last,
// in place and at the same width — so every request misses the result
// cache and puts its answer.
func freshRange(tb testing.TB, body []byte) func() {
	lo := bytes.Index(body, []byte(`"lo":`)) + len(`"lo":`)
	hi := bytes.Index(body, []byte(`"hi":`)) + len(`"hi":`)
	const width = len("20.5000000")
	if lo < len(`"lo":`) || hi < len(`"hi":`) {
		tb.Fatalf("no between range in %s", body)
	}
	n := 0
	return func() {
		n++
		d := float64(n) * 1e-7
		copy(body[lo:lo+width], strconv.FormatFloat(20.5+d, 'f', 7, 64))
		copy(body[hi:hi+width], strconv.FormatFloat(21.7+d, 'f', 7, 64))
	}
}

// serve1 serves one request into buf and fails on an error. It returns
// the response buffer, grown to fit.
func serve1(tb testing.TB, s *Server, body, buf []byte) []byte {
	out, code := s.Exec(body, buf[:0])
	if code != 200 {
		tb.Fatalf("exec %s: %d %s", body, code, out)
	}
	return out
}

// execAllocs is what Exec allocates for one request — objects and bytes
// — averaged over runs the way testing.AllocsPerRun counts (one
// processor, after a warm-up request), with prep run before each request
// and left out of the count. The response lands in the buffer the
// warm-up grew, so the count is the server's alone.
func execAllocs(tb testing.TB, s *Server, body []byte, prep func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prep()
	buf := serve1(tb, s, body, nil)
	const runs = 100
	var mallocs, total uint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		prep()
		runtime.ReadMemStats(&before)
		serve1(tb, s, body, buf)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		total += after.TotalAlloc - before.TotalAlloc
	}
	return float64(mallocs) / runs, float64(total) / runs
}

// Allocation gates per served op class, end to end through Server.Exec:
// each is the count that landed with go1.24 on linux/amd64, so raising
// one needs a deliberate decision. A served record is copied once, where
// the copy has to outlive the request: a cache hit (get, get_pk)
// serializes the entry's own record; a miss reads into a stack buffer,
// and the cache's copy (with its entry and LRU element) is the one it
// keeps; an update's record, write set and version are what its commit
// installs. A scan miss allocates its answer (a grouped one's device
// table), the cache's copy of it, the result slot Execute returns and
// the reader's snapshot; the cohort, the legs' results, the host leg's
// tables and zone lists, the device scratch and stream, the one-plan
// list and the cache entry are recycled. The misses read 3.0 and
// 7.0-7.1, the grouped scan with a delta 3.0-3.1: the odd tenth is a
// rehash of the cache's map or a pool emptied by a collection. While each served record was cloned on the way out and the
// write set was a map, the counts were update 6, get hit 1, get miss 9,
// get_pk 1; while the scan scaffolding was allocated per request, sum
// miss 11, group miss 21 and the grouped scan with a delta 7.
var serveOpAllocs = map[string]int{
	"update":                     3,
	"get hit":                    0,
	"get miss":                   6,
	"get_pk":                     0,
	"group_sum_where with delta": 4,
	"sum miss":                   4,
	"group miss":                 8,
}

// serveOpBytes bounds the bytes per request of the scan misses, from
// MemStats.TotalAlloc: a warm miss allocates its answer and the result
// cache's copy, nothing that grows with the scan — a host table's 4 KiB
// window coming back fails it. They read 128 (194 with a rehash) and
// 3328-3336; with the scaffolding allocated per request, 832 and 10 581.
// The race detector's pool drops put them out of reach there.
var serveOpBytes = map[string]float64{
	"sum miss":   700,
	"group miss": 3500,
}

// missCacheBytes is the result cache the misses are measured under: one
// their unique ranges overflow within a few hundred requests, as
// scan-unique's overflow the benchmark's 4 MiB, so every put evicts and
// the cache's map has stopped growing.
const missCacheBytes = 32 << 10

// missWarmup is how many fresh ranges fill that cache before a miss is
// measured: ~280 sum entries fill it, a group entry fills a shard.
const missWarmup = 600

// raceOpSlack is what each gate gains under the race detector, whose
// sync.Pool drops a share of what is put back: the grouped scan with a
// delta read 4.7-5.2 there, the point and write classes their plain
// counts.
const raceOpSlack = 4

// raceOpAllocs replaces a gate plus raceOpSlack under the race detector
// for the scan misses, whose scaffolding is recycled through five pools,
// each losing its share: they read 10.0-11.2 and 17.2-19.3 there.
var raceOpAllocs = map[string]int{"sum miss": 14, "group miss": 24}

// warmMisses serves missWarmup fresh ranges of class on s and returns
// the prep that keeps the ranges fresh.
func warmMisses(tb testing.TB, s *Server, body []byte) func() {
	next := freshRange(tb, body)
	var buf []byte
	for i := 0; i < missWarmup; i++ {
		next()
		buf = serve1(tb, s, body, buf)
	}
	return next
}

func TestServeOpAllocBudget(t *testing.T) {
	s, tbl, bodies := opServer(t, 4<<20)
	nop := func() {}
	price := 1.0
	type cost struct{ allocs, bytes float64 }
	measure := func(s *Server, body []byte, prep func()) cost {
		a, b := execAllocs(t, s, body, prep)
		return cost{a, b}
	}
	ms, _, misses := opServer(t, missCacheBytes)
	got := map[string]cost{
		"update":  measure(s, bodies["update"], nop),
		"get hit": measure(s, bodies["get"], nop),
		"get miss": measure(s, bodies["get"], func() {
			// A settled write to another row of row 9's chunk moves the
			// chunk's epoch: the cached record goes stale.
			price++
			if err := tbl.Update(3, hybridstore.ItemPriceColumn, hybridstore.FloatValue(price)); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Merge(); err != nil {
				t.Fatal(err)
			}
		}),
		"get_pk":     measure(s, bodies["get_pk"], nop),
		"sum miss":   measure(ms, misses["sum miss"], warmMisses(t, ms, misses["sum miss"])),
		"group miss": measure(ms, misses["group miss"], warmMisses(t, ms, misses["group miss"])),
	}
	serve1(t, s, bodies["update"], nil) // a live delta the scan patches over its cached base
	got["group_sum_where with delta"] = measure(s, bodies["group_sum_where"], nop)
	for class, budget := range serveOpAllocs {
		if raceEnabled {
			budget += raceOpSlack
			if b, ok := raceOpAllocs[class]; ok {
				budget = b
			}
		}
		t.Logf("%s: %.1f allocs/op, %.0f B/op", class, got[class].allocs, got[class].bytes)
		if got[class].allocs > float64(budget) {
			t.Errorf("%s costs %.1f allocs/op, budget %d", class, got[class].allocs, budget)
		}
		if bound, ok := serveOpBytes[class]; ok && !raceEnabled && got[class].bytes > bound {
			t.Errorf("%s costs %.0f B/op, bound %.0f", class, got[class].bytes, bound)
		}
	}
}

// BenchmarkServeMiss measures warm unique-range scans end to end through
// Server.Exec on opServer's store under the misses' result cache: every
// request a fresh between range across the cold/hot border, so the
// result cache misses, puts and evicts, the device leg runs over cached
// images and the host leg over the hot tail. Run with -benchmem: bytes
// per op is the figure TestServeOpAllocBudget bounds.
func BenchmarkServeMiss(b *testing.B) {
	s, _, bodies := opServer(b, missCacheBytes)
	for _, class := range []string{"sum miss", "group miss"} {
		body := bodies[class]
		next := warmMisses(b, s, body) // shared by every run of the sub-benchmark
		b.Run(strings.Fields(class)[0], func(b *testing.B) {
			next()
			buf := serve1(b, s, body, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next()
				buf = serve1(b, s, body, buf)
			}
		})
	}
}
