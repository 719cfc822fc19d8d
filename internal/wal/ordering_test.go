package wal_test

// Regression tests for WAL append ordering: a write whose caller saw an
// error must never leave a record in the log. The engine appends only
// after every fallible step (validation, pk precheck, chunk allocation)
// has succeeded — otherwise recovery would replay a write that was never
// applied or acknowledged, violating OpenDir's guarantee.

import (
	"path/filepath"
	"testing"

	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/schema"
	"hybridstore/internal/wal"
	"hybridstore/internal/workload"
)

// walTable is the write surface of the engine under test.
type walTable interface {
	Insert(schema.Record) (uint64, error)
	Update(row uint64, col int, v schema.Value) error
	EnableWAL(*wal.Log)
}

// badItem is a well-arity record whose price attribute has the wrong
// kind: it must fail validation before reaching the log.
func badItem(i uint64) schema.Record {
	rec := workload.Item(i)
	rec[workload.ItemPriceCol] = schema.CharValue("x")
	return rec
}

// driveFailedWrites performs good insert, bad insert, bad update, good
// insert, asserting the bad ones error, then closes the log and returns
// the surviving records.
func driveFailedWrites(t *testing.T, dir string, tbl walTable, badUpdate bool) []*wal.Record {
	t.Helper()
	path := filepath.Join(dir, "wal.log")
	l, _, err := wal.Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl.EnableWAL(l)
	if _, err := tbl.Insert(workload.Item(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(badItem(1)); err == nil {
		t.Fatal("insert of a kind-mismatched record succeeded")
	}
	if badUpdate {
		if err := tbl.Update(0, workload.ItemPriceCol, schema.CharValue("x")); err == nil {
			t.Fatal("update with a kind-mismatched value succeeded")
		}
	}
	if _, err := tbl.Insert(workload.Item(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := wal.Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// checkOnlyGoodInserts asserts the log holds exactly the two successful
// inserts at consecutive rows — no trace of the failed writes.
func checkOnlyGoodInserts(t *testing.T, recs []*wal.Record) {
	t.Helper()
	if len(recs) != 2 {
		t.Fatalf("log holds %d records after failed writes, want 2", len(recs))
	}
	for i, r := range recs {
		if r.Kind != wal.KindInsert || r.Row != uint64(i) {
			t.Fatalf("record %d is %v at row %d, want insert at row %d", i, r.Kind, r.Row, i)
		}
		if !r.Rec.Equal(workload.Item(uint64(i))) {
			t.Fatalf("record %d holds %v, want item %d", i, r.Rec, i)
		}
	}
}

func TestFailedWriteNotLoggedCore(t *testing.T) {
	e := core.New(engine.NewEnv(), core.Options{ChunkRows: 32, HotChunks: 1})
	et, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	tbl := et.(*core.Table)
	defer tbl.Free()
	// Core updates route through the MVCC commit logger, not a bare
	// update record; only the insert path is exercised here.
	checkOnlyGoodInserts(t, driveFailedWrites(t, t.TempDir(), tbl, false))
}
