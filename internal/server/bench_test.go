package server

import (
	"fmt"
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
