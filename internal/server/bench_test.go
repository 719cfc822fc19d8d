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
	sid, _ := s.CreateSession("")
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
// one warm sum_where request end to end — request scan, admission,
// dispatch, the fused scan itself, and response serialization into a
// recycled buffer. Measured ~63 (dominated by the MVCC snapshot and
// the per-launch SM-worker goroutines of the simulated device; wire
// handling itself runs on recycled pool buffers); the gate holds slack
// for scheduler variance. Raising it needs a deliberate decision, not
// an accidental regression.
const serveSumWhereAllocBudget = 80

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
	if got > serveSumWhereAllocBudget {
		t.Fatalf("warm sum_where costs %.0f allocs/op, budget %d", got, serveSumWhereAllocBudget)
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
