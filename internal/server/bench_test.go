package server

import (
	"fmt"
	"runtime"
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
// the device cache, a 4 MiB result cache, default chunk size — over
// 4096 merged item rows, with batching off and one prepared statement
// per op class. bodies maps a class to its request body.
func opServer(tb testing.TB) (*Server, *hybridstore.Table, map[string][]byte) {
	db := hybridstore.Open(hybridstore.Options{DeviceCache: true, Compress: true,
		ResultCache: hybridstore.ResultCacheOptions{Cap: 4 << 20}})
	tbl, err := db.CreateTable("item", hybridstore.ItemSchema())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(tbl.Free)
	for i := uint64(0); i < 4096; i++ {
		if _, err := tbl.Insert(hybridstore.Item(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tbl.Merge(); err != nil {
		tb.Fatal(err)
	}
	s := New(Config{DB: db})
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
	} {
		id, err := s.Prepare(sid, st.op, "item", st.col, st.keyCol)
		if err != nil {
			tb.Fatal(err)
		}
		bodies[st.class] = []byte(fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,%s}`, sid, id, st.args))
	}
	return s, tbl, bodies
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

// execAllocs is what Exec allocates for one request, averaged over runs
// the way testing.AllocsPerRun counts (one processor, after a warm-up
// request), with prep run before each request and left out of the
// count. The response lands in the buffer the warm-up grew, so the
// count is the server's alone.
func execAllocs(tb testing.TB, s *Server, body []byte, prep func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prep()
	buf := serve1(tb, s, body, nil)
	const runs = 100
	var mallocs uint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		prep()
		runtime.ReadMemStats(&before)
		serve1(tb, s, body, buf)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	return float64(mallocs) / runs
}

// Allocation gates per served op class, end to end through Server.Exec:
// each is the count that landed with go1.24 on linux/amd64, so raising
// one needs a deliberate decision. A served record is copied once, where
// the copy has to outlive the request: a cache hit (get, get_pk)
// serializes the entry's own record; a miss reads into a stack buffer,
// and the cache's copy (with its entry and LRU element) is the one it
// keeps; an update's record, write set and version are what its commit
// installs. The grouped scan reads 9.2. While each served record was
// cloned on the way out and the write set was a map, the counts were
// update 6, get hit 1, get miss 9, get_pk 1.
var serveOpAllocs = map[string]int{
	"update":                     3,
	"get hit":                    0,
	"get miss":                   6,
	"get_pk":                     0,
	"group_sum_where with delta": 10,
}

// raceOpSlack is what each gate gains under the race detector, whose
// sync.Pool drops a share of what is put back: the grouped scan read 9.9
// there, the other classes their plain counts.
const raceOpSlack = 4

func TestServeOpAllocBudget(t *testing.T) {
	s, tbl, bodies := opServer(t)
	nop := func() {}
	price := 1.0
	got := map[string]float64{
		"update":  execAllocs(t, s, bodies["update"], nop),
		"get hit": execAllocs(t, s, bodies["get"], nop),
		"get miss": execAllocs(t, s, bodies["get"], func() {
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
		"get_pk": execAllocs(t, s, bodies["get_pk"], nop),
	}
	serve1(t, s, bodies["update"], nil) // a live delta the scan patches over its cached base
	got["group_sum_where with delta"] = execAllocs(t, s, bodies["group_sum_where"], nop)
	for class, budget := range serveOpAllocs {
		if raceEnabled {
			budget += raceOpSlack
		}
		t.Logf("%s: %.1f allocs/op", class, got[class])
		if got[class] > float64(budget) {
			t.Errorf("%s costs %.1f allocs/op, budget %d", class, got[class], budget)
		}
	}
}
