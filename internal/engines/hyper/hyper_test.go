package hyper

import (
	"errors"
	"math"
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

func load(t *testing.T, chunkRows uint64, n uint64) *Table {
	t.Helper()
	e := New(engine.NewEnv(), chunkRows)
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	ht := tbl.(*Table)
	if err := workload.Generate(n, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := ht.Insert(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return ht
}

func TestChunkVectorHierarchy(t *testing.T) {
	tbl := load(t, 128, 500)
	defer tbl.Free()
	if got := tbl.Chunks(); got != 4 { // ceil(500/128)
		t.Fatalf("chunks = %d, want 4", got)
	}
	snap := tbl.Snapshot()
	// Every fragment is a thin single-attribute vector.
	for _, f := range snap.Layouts[0].Fragments {
		if f.Fat || len(f.Cols) != 1 {
			t.Fatalf("fragment %+v is not a thin vector", f)
		}
	}
	// 4 chunks × 5 attributes.
	if got := len(snap.Layouts[0].Fragments); got != 20 {
		t.Fatalf("vectors = %d, want 20", got)
	}
	if !snap.Layouts[0].Combined {
		t.Fatal("partition→chunk→vector must classify as combined partitioning")
	}
}

func TestSnapshotIsolatesAnalyticsFromUpdates(t *testing.T) {
	tbl := load(t, 128, 400)
	defer tbl.Free()
	want := workload.ExpectedItemPriceSum(400)

	snap := tbl.AnalyticSnapshot()
	defer snap.Release()

	// Concurrent OLTP: update many rows after the snapshot.
	for i := uint64(0); i < 200; i++ {
		if err := tbl.Update(i, workload.ItemPriceCol, schema.FloatValue(0)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := snap.SumFloat64(workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("snapshot sum = %v, want %v (pre-update)", got, want)
	}
	// The live table sees the updates.
	live, err := tbl.SumFloat64(workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	var zeroed float64
	for i := uint64(0); i < 200; i++ {
		zeroed += workload.ItemPrice(i)
	}
	if math.Abs(live-(want-zeroed)) > 1e-6 {
		t.Fatalf("live sum = %v, want %v", live, want-zeroed)
	}
}

func TestSnapshotExcludesLaterInserts(t *testing.T) {
	tbl := load(t, 128, 100)
	defer tbl.Free()
	snap := tbl.AnalyticSnapshot()
	defer snap.Release()
	for i := uint64(100); i < 300; i++ {
		if _, err := tbl.Insert(workload.Item(i)); err != nil {
			t.Fatal(err)
		}
	}
	if snap.Rows() != 100 {
		t.Fatalf("snapshot rows = %d", snap.Rows())
	}
	got, err := snap.SumFloat64(workload.ItemPriceCol)
	if err != nil || math.Abs(got-workload.ExpectedItemPriceSum(100)) > 1e-6 {
		t.Fatalf("snapshot sum = %v, %v", got, err)
	}
}

func TestCopyOnWriteOnlyWhenShared(t *testing.T) {
	tbl := load(t, 128, 256)
	defer tbl.Free()
	// Unshared updates write in place: no detached chunks accumulate.
	if err := tbl.Update(1, workload.ItemPriceCol, schema.FloatValue(1)); err != nil {
		t.Fatal(err)
	}
	if len(tbl.detached) != 0 {
		t.Fatalf("in-place update detached %d chunks", len(tbl.detached))
	}
	snap := tbl.AnalyticSnapshot()
	if err := tbl.Update(2, workload.ItemPriceCol, schema.FloatValue(2)); err != nil {
		t.Fatal(err)
	}
	if len(tbl.detached) != 1 {
		t.Fatalf("COW did not detach the shared chunk: %d", len(tbl.detached))
	}
	snap.Release()
	if len(tbl.detached) != 0 {
		t.Fatal("Release did not free the detached chunk")
	}
}

func TestReleasedSnapshotRejectsQueries(t *testing.T) {
	tbl := load(t, 128, 100)
	defer tbl.Free()
	snap := tbl.AnalyticSnapshot()
	snap.Release()
	snap.Release() // idempotent
	if _, err := snap.SumFloat64(workload.ItemPriceCol); err == nil {
		t.Fatal("released snapshot answered a query")
	}
}

// TestSnapshotRejectsBadColumns: a pinned snapshot validates its column
// like every other scan — an ordinal outside the schema is an error (it
// used to index past the chunk's vectors and panic), and a non-float64
// attribute is refused instead of summed as reinterpreted bits.
func TestSnapshotRejectsBadColumns(t *testing.T) {
	tbl := load(t, 128, 300)
	defer tbl.Free()
	snap := tbl.AnalyticSnapshot()
	defer snap.Release()
	for _, col := range []int{-1, 99} {
		if sum, err := snap.SumFloat64(col); !errors.Is(err, layout.ErrOutOfRange) {
			t.Errorf("SumFloat64(%d) = (%v, %v), want ErrOutOfRange", col, sum, err)
		}
	}
	if sum, err := snap.SumFloat64(workload.ItemIDCol); !errors.Is(err, exec.ErrBadColumn) {
		t.Errorf("SumFloat64(int64 col) = (%v, %v), want ErrBadColumn", sum, err)
	}
	want := workload.ExpectedItemPriceSum(300)
	if sum, err := snap.SumFloat64(workload.ItemPriceCol); err != nil || math.Abs(sum-want) > 1e-6 {
		t.Errorf("SumFloat64(price) = (%v, %v), want %v", sum, err, want)
	}
}

func TestCompactFusesColdChunks(t *testing.T) {
	tbl := load(t, 64, 512) // 8 full chunks
	defer tbl.Free()
	before := tbl.Chunks()
	merged, err := tbl.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if merged == 0 || tbl.Chunks() >= before {
		t.Fatalf("compact merged %d, chunks %d→%d", merged, before, tbl.Chunks())
	}
	if tbl.FrozenChunks() == 0 {
		t.Fatal("no frozen chunks after compaction")
	}
	// Answers survive.
	sum, err := tbl.SumFloat64(workload.ItemPriceCol)
	if err != nil || math.Abs(sum-workload.ExpectedItemPriceSum(512)) > 1e-6 {
		t.Fatalf("post-compact sum = %v, %v", sum, err)
	}
	rec, err := tbl.Get(300)
	if err != nil || !rec.Equal(workload.Item(300)) {
		t.Fatalf("post-compact Get = %v, %v", rec, err)
	}
}

func TestCompactSkipsHotChunks(t *testing.T) {
	tbl := load(t, 64, 512)
	defer tbl.Free()
	// Heat two adjacent chunks.
	tbl.Update(0, workload.ItemPriceCol, schema.FloatValue(1))
	tbl.Update(70, workload.ItemPriceCol, schema.FloatValue(1))
	merged, err := tbl.Compact()
	if err != nil {
		t.Fatal(err)
	}
	// Chunks 0 and 1 are hot; 2..7 fuse (5 eliminated).
	if merged != 5 {
		t.Fatalf("merged = %d, want 5", merged)
	}
	// Updated chunks still answer correctly.
	rec, err := tbl.Get(0)
	if err != nil || rec[workload.ItemPriceCol].F != 1 {
		t.Fatalf("Get = %v, %v", rec, err)
	}
}

func TestCompactThenUpdateUnfreezes(t *testing.T) {
	tbl := load(t, 64, 256)
	defer tbl.Free()
	if _, err := tbl.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(10, workload.ItemPriceCol, schema.FloatValue(7)); err != nil {
		t.Fatal(err)
	}
	rec, err := tbl.Get(10)
	if err != nil || rec[workload.ItemPriceCol].F != 7 {
		t.Fatalf("Get = %v, %v", rec, err)
	}
}

func TestSnapshotSurvivesCompact(t *testing.T) {
	tbl := load(t, 64, 256)
	defer tbl.Free()
	snap := tbl.AnalyticSnapshot()
	defer snap.Release()
	if _, err := tbl.Compact(); err != nil {
		t.Fatal(err)
	}
	got, err := snap.SumFloat64(workload.ItemPriceCol)
	if err != nil || math.Abs(got-workload.ExpectedItemPriceSum(256)) > 1e-6 {
		t.Fatalf("snapshot sum after compact = %v, %v", got, err)
	}
}

func TestDefaultChunkRows(t *testing.T) {
	e := New(engine.NewEnv(), 0)
	if e.chunkRows != DefaultChunkRows {
		t.Fatalf("chunkRows = %d", e.chunkRows)
	}
}
