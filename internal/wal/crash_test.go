package wal_test

// Crash-recovery property test: a process can die at ANY byte of the
// write-ahead log — mid-frame, mid-payload, exactly on a frame edge —
// and recovery must produce exactly the state obtained by serially
// applying the records the truncated log still (fully) holds. The test
// cuts a real log at randomized offsets, recovers each prefix into a
// fresh engine (core's MVCC replay — core is the log's only client),
// and compares against an independently computed model.
// Lives in an external test package: core imports wal.

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/schema"
	"hybridstore/internal/wal"
	"hybridstore/internal/workload"
)

const (
	crashInserts = 100
	crashUpdates = 60
)

// writeCoreLog drives a WAL-enabled core table and returns the raw log
// bytes (inserts + MVCC commit records).
func writeCoreLog(t *testing.T, dir string) []byte {
	t.Helper()
	path := filepath.Join(dir, "wal.log")
	l, recs, err := wal.Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log holds %d records", len(recs))
	}
	e := core.New(engine.NewEnv(), core.Options{ChunkRows: 32, HotChunks: 1})
	et, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	tbl := et.(*core.Table)
	defer tbl.Free()
	tbl.EnableWAL(l)
	driveInsertsUpdates(t,
		func(rec schema.Record) error { _, err := tbl.Insert(rec); return err },
		func(row uint64, v schema.Value) error { return tbl.Update(row, workload.ItemPriceCol, v) })
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// driveInsertsUpdates runs the canonical interleaved workload.
func driveInsertsUpdates(t *testing.T, insert func(schema.Record) error, update func(uint64, schema.Value) error) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	u := 0
	for i := uint64(0); i < crashInserts; i++ {
		if err := insert(workload.Item(i)); err != nil {
			t.Fatal(err)
		}
		for u < crashUpdates && r.Intn(2) == 0 {
			row := uint64(r.Intn(int(i + 1)))
			if err := update(row, schema.FloatValue(float64(u)*0.5)); err != nil {
				t.Fatal(err)
			}
			u++
		}
	}
	for ; u < crashUpdates; u++ {
		if err := update(uint64(u)%crashInserts, schema.FloatValue(float64(u)*0.5)); err != nil {
			t.Fatal(err)
		}
	}
}

func truncationPoints(r *rand.Rand, size int) []int {
	pts := []int{0, size, size - 1, size - 3} // empty, intact, torn tail
	for i := 0; i < 24; i++ {
		pts = append(pts, r.Intn(size))
	}
	return pts
}

// recoverLog writes data[:cut] to a fresh file and opens it, returning
// the decoded prefix records.
func recoverLog(t *testing.T, dir string, data []byte, cut int) []*wal.Record {
	t.Helper()
	if cut < 0 {
		cut = 0
	}
	path := filepath.Join(dir, "crash.log")
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := wal.Open(path, wal.Options{})
	if err != nil {
		t.Fatalf("cut %d: %v", cut, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// model applies the records serially: the ground truth every recovery
// must match.
func model(t *testing.T, recs []*wal.Record) []schema.Record {
	t.Helper()
	var rows []schema.Record
	lastTS := uint64(0)
	for _, r := range recs {
		switch r.Kind {
		case wal.KindInsert:
			if r.Row != uint64(len(rows)) {
				t.Fatalf("log prefix inserts out of order: row %d at position %d", r.Row, len(rows))
			}
			rows = append(rows, r.Rec)
		case wal.KindCommit:
			if r.TS <= lastTS {
				t.Fatalf("commit timestamps not increasing: %d after %d", r.TS, lastTS)
			}
			lastTS = r.TS
			for _, op := range r.Ops {
				rows[op.Row] = op.Rec
			}
		}
	}
	return rows
}

// checkRecovered compares an engine's recovered state to the model.
func checkRecovered(t *testing.T, cut int, tbl *core.Table, want []schema.Record) {
	t.Helper()
	if tbl.Rows() != uint64(len(want)) {
		t.Fatalf("cut %d: recovered %d rows, want %d", cut, tbl.Rows(), len(want))
	}
	for row, w := range want {
		if w == nil {
			continue
		}
		got, err := tbl.Get(uint64(row))
		if err != nil {
			t.Fatalf("cut %d: Get(%d): %v", cut, row, err)
		}
		if !got.Equal(w) {
			t.Fatalf("cut %d: row %d = %v, want %v", cut, row, got, w)
		}
	}
}

func TestCrashRecoveryCore(t *testing.T) {
	data := writeCoreLog(t, t.TempDir())
	r := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	for _, cut := range truncationPoints(r, len(data)) {
		recs := recoverLog(t, dir, data, cut)
		want := model(t, recs)
		e := core.New(engine.NewEnv(), core.Options{ChunkRows: 32, HotChunks: 1})
		et, err := e.Create("item", workload.ItemSchema())
		if err != nil {
			t.Fatal(err)
		}
		tbl := et.(*core.Table)
		for _, rec := range recs {
			switch rec.Kind {
			case wal.KindInsert:
				err = tbl.ReplayInsert(rec.Row, rec.Rec)
			case wal.KindCommit:
				err = tbl.ReplayCommit(rec.TS, rec.Ops)
			default:
				t.Fatalf("cut %d: unexpected record kind %v", cut, rec.Kind)
			}
			if err != nil {
				t.Fatalf("cut %d: replay: %v", cut, err)
			}
		}
		checkRecovered(t, cut, tbl, want)
		tbl.Free()
	}
}
