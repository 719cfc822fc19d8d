package server

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hybridstore"
	"hybridstore/internal/obs"
)

// TestGatherFanInBitIdentity: concurrent point reads on one table ride
// shared gather passes and each client still receives exactly the bytes
// a solo Get produces. Every round builds one cohort of 24 reads; half
// of them target an 8-row hot set, so the cohort sees duplicate row IDs
// and collapses them.
func TestGatherFanInBitIdentity(t *testing.T) {
	s, tbl := newItemServer(t, hybridstore.Options{ChunkRows: 128},
		Config{BatchWindow: DefaultBatchWindow})
	sid, _ := s.CreateSession("")
	get := prep(t, s, sid, "get", 0, 0)

	// Ground truth: the facade record, serialized exactly as the server
	// serializes it. Writes are quiesced for the whole read phase.
	rows := tbl.Rows()
	want := make([]string, rows)
	for r := uint64(0); r < rows; r++ {
		rec, err := tbl.Get(r)
		if err != nil {
			t.Fatal(err)
		}
		want[r] = string(AppendRecord(nil, rec))
	}

	before := obs.TakeSnapshot()
	const clients, rounds = 24, 10
	r := rand.New(rand.NewSource(1))
	for round := 0; round < rounds; round++ {
		// The reads past the cohort's 24 are the ones that occupy the
		// pass slots.
		picks := make([]uint64, clients+s.bat.slots)
		distinct := make(map[uint64]bool)
		for i := range picks {
			if i < clients/2 {
				picks[i] = uint64(r.Intn(8))
			} else {
				picks[i] = uint64(r.Intn(int(rows)))
			}
			if i < clients {
				distinct[picks[i]] = true
			}
		}
		body := func(i int) string {
			return fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":%d}`, sid, get, picks[i])
		}
		for i, got := range buildCohort(t, s, (*hybridstore.Table).Execute, body, clients, len(distinct)) {
			if got.code != 200 || got.body != want[picks[i]] {
				t.Fatalf("row %d: %d %s\nwant %s", picks[i], got.code, got.body, want[picks[i]])
			}
		}
	}

	after := obs.TakeSnapshot()
	delta := func(name string) int64 { return after.Counter(name) - before.Counter(name) }
	if got, want := delta("server.gather.flushes"), int64(rounds*(s.bat.slots+1)); got != want {
		t.Errorf("%d gather flushes, want %d: one per parked read and one per cohort", got, want)
	}
	if got, want := delta("server.gather.joined"), int64(rounds*(clients-1)); got != want {
		t.Errorf("%d point reads joined a shared gather, want %d", got, want)
	}
	if delta("server.gather.collapsed") == 0 {
		t.Error("hot-set duplicates never collapsed to a shared slot")
	}
}

// TestGatherOutOfRangeSoloPath: a point read beyond the table takes the
// solo path immediately — it fails alone without erroring a concurrent
// valid cohort.
func TestGatherOutOfRangeSoloPath(t *testing.T) {
	s, tbl := newItemServer(t, hybridstore.Options{ChunkRows: 128},
		Config{BatchWindow: DefaultBatchWindow})
	sid, _ := s.CreateSession("")
	get := prep(t, s, sid, "get", 0, 0)

	rec, err := tbl.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	want := string(AppendRecord(nil, rec))

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		resp, code := exec1(s, fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":3}`, sid, get))
		if code != 200 || resp != want {
			t.Errorf("valid read poisoned by out-of-range neighbor: %d %s", code, resp)
		}
	}()
	go func() {
		defer wg.Done()
		_, code := exec1(s, fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":999999}`, sid, get))
		if code != 500 {
			t.Errorf("out-of-range read returned %d, want 500", code)
		}
	}()
	wg.Wait()
}

// TestServeCachePreCheck: with the result cache enabled, a repeated
// query is answered from the pre-check before admission to the batch
// scheduler — the per-op server.cache counters account every lookup and
// hit, and the cached bytes equal the executed bytes exactly.
func TestServeCachePreCheck(t *testing.T) {
	s, tbl := newItemServer(t,
		hybridstore.Options{ChunkRows: 128,
			ResultCache: hybridstore.ResultCacheOptions{Cap: 1 << 20}},
		Config{})
	// Fold the MVCC deltas the fixture leaves behind: aggregates over a
	// table with live deltas are deliberately uncacheable.
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	sid, _ := s.CreateSession("")
	get := prep(t, s, sid, "get", 0, 0)
	pks := prep(t, s, sid, "get_pk", 0, 0)
	sum := prep(t, s, sid, "sum_where", hybridstore.ItemPriceColumn, 0)
	grp := prep(t, s, sid, "group_sum_where", hybridstore.ItemPriceColumn, 1)

	before := obs.TakeSnapshot()
	delta := func(name string) int64 {
		return obs.TakeSnapshot().Counter(name) - before.Counter(name)
	}

	// Aggregate: first execution publishes, the repeat is a cache hit
	// with byte-identical payload.
	body := fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"pred":{"kind":"lt","hi":3}}`, sid, sum)
	first, code := exec1(s, body)
	if code != 200 {
		t.Fatalf("sum_where: %d %s", code, first)
	}
	again, code := exec1(s, body)
	if code != 200 || again != first {
		t.Fatalf("cached sum_where diverged: %q vs %q", again, first)
	}
	if lk, hit := delta("server.cache.sum_where.lookups"), delta("server.cache.sum_where.hits"); lk != 2 || hit != 1 {
		t.Fatalf("sum_where cache counters: lookups=%d hits=%d, want 2/1", lk, hit)
	}

	// The between-spelling of the same predicate hits the same entry:
	// key normalization happens before the cache, not after.
	bw := fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"pred":{"kind":"between","lo":2,"hi":2}}`, sid, sum)
	eq := fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"pred":{"kind":"eq","lo":2}}`, sid, sum)
	bwResp, _ := exec1(s, bw)
	eqResp, code := exec1(s, eq)
	if code != 200 || eqResp != bwResp {
		t.Fatalf("eq(2) did not share between(2,2)'s entry: %q vs %q", eqResp, bwResp)
	}
	if hit := delta("server.cache.sum_where.hits"); hit != 2 {
		t.Fatalf("normalized repeat not served from cache: hits=%d, want 2", hit)
	}

	// Grouped aggregate: repeat is a hit, bytes identical.
	gbody := fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"pred":{"kind":"gt","lo":1.5}}`, sid, grp)
	g1, code := exec1(s, gbody)
	if code != 200 {
		t.Fatalf("group_sum_where: %d %s", code, g1)
	}
	g2, code := exec1(s, gbody)
	if code != 200 || g2 != g1 {
		t.Fatalf("cached group_sum_where diverged: %q vs %q", g2, g1)
	}
	if lk, hit := delta("server.cache.group_sum_where.lookups"), delta("server.cache.group_sum_where.hits"); lk != 2 || hit != 1 {
		t.Fatalf("group cache counters: lookups=%d hits=%d, want 2/1", lk, hit)
	}

	// Point read: the first Get publishes the row entry; the repeat and
	// the PK spelling of the same row are both served from it.
	rbody := fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":7}`, sid, get)
	r1, code := exec1(s, rbody)
	if code != 200 {
		t.Fatalf("get: %d %s", code, r1)
	}
	r2, code := exec1(s, rbody)
	if code != 200 || r2 != r1 {
		t.Fatalf("cached get diverged: %q vs %q", r2, r1)
	}
	if hit := delta("server.cache.get.hits"); hit != 1 {
		t.Fatalf("get cache hits=%d, want 1", hit)
	}
	r3, code := exec1(s, fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"pk":7}`, sid, pks))
	if code != 200 || r3 != r1 {
		t.Fatalf("get_pk(7) did not share get(7)'s entry: %q vs %q", r3, r1)
	}
	if hit := delta("server.cache.get_pk.hits"); hit != 1 {
		t.Fatalf("get_pk cache hits=%d, want 1", hit)
	}

	// A write invalidates: the repeat after an update re-executes and
	// serves the new value, and the hit counter does not move.
	ubody := fmt.Sprintf(`{"session_id":"%s","stmt_id":%d,"row":7,"value":4.5}`,
		sid, prep(t, s, sid, "update", hybridstore.ItemPriceColumn, 0))
	if resp, code := exec1(s, ubody); code != 200 {
		t.Fatalf("update: %d %s", code, resp)
	}
	hitsBefore := delta("server.cache.get.hits")
	r4, code := exec1(s, rbody)
	if code != 200 || r4 == r1 {
		t.Fatalf("stale record served after update: %d %s", code, r4)
	}
	if !strings.Contains(r4, "4.5") {
		t.Fatalf("post-update read missing new value: %s", r4)
	}
	if delta("server.cache.get.hits") != hitsBefore {
		t.Fatal("invalidated entry counted as a hit")
	}

	// Facade-level stats agree with the serving-path story.
	st := s.db.ResultCacheStats()
	if st.Lookups == 0 || st.Hits+st.Misses != st.Lookups {
		t.Fatalf("facade cache stats violate hits+misses==lookups: %+v", st)
	}
}
