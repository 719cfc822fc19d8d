package common

import (
	"errors"
	"math"
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
)

func testSchema() *schema.Schema {
	return schema.MustNew(schema.Int64Attr("id"), schema.Float64Attr("val"))
}

// mirroredTable builds a two-layout (NSM + per-column thin) table with a
// simple append router, exercising the common base the way multi-layout
// engines do.
func mirroredTable(t *testing.T, rows uint64) *Table {
	t.Helper()
	env := engine.NewEnv()
	s := testSchema()
	rel := layout.NewRelation("r", s)
	nsmL := layout.NewLayout("rows", s)
	nsm, err := layout.NewFragment(env.Host, s, layout.AllCols(s), layout.RowRange{Begin: 0, End: rows}, layout.NSM)
	if err != nil {
		t.Fatal(err)
	}
	nsmL.Add(nsm)
	colL, err := layout.Vertical(env.Host, "cols", s, [][]int{{0}, {1}}, rows,
		func([]int) layout.Linearization { return layout.Direct })
	if err != nil {
		t.Fatal(err)
	}
	rel.AddLayout(nsmL)
	rel.AddLayout(colL)
	tbl := NewTable(env, rel)
	tbl.Append = func(row uint64, rec schema.Record) error {
		if err := AppendToFragments(rec, nsm); err != nil {
			return err
		}
		return AppendToFragments(rec, colL.Fragments()...)
	}
	return tbl
}

func fill(t *testing.T, tbl *Table, n uint64) {
	t.Helper()
	for i := uint64(0); i < n; i++ {
		rec := schema.Record{schema.IntValue(int64(i)), schema.FloatValue(float64(i) / 2)}
		row, err := tbl.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		if row != i {
			t.Fatalf("row = %d, want %d", row, i)
		}
	}
}

func TestInsertRequiresRouter(t *testing.T) {
	env := engine.NewEnv()
	rel := layout.NewRelation("r", testSchema())
	tbl := NewTable(env, rel)
	if _, err := tbl.Insert(schema.Record{schema.IntValue(1), schema.FloatValue(1)}); !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
}

func TestInsertChecksArity(t *testing.T) {
	tbl := mirroredTable(t, 8)
	if _, err := tbl.Insert(schema.Record{schema.IntValue(1)}); !errors.Is(err, schema.ErrArityMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpdateWritesAllLayouts(t *testing.T) {
	tbl := mirroredTable(t, 8)
	fill(t, tbl, 4)
	if err := tbl.Update(2, 1, schema.FloatValue(99)); err != nil {
		t.Fatal(err)
	}
	for _, l := range tbl.Rel.Layouts() {
		f, err := l.FragmentAt(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		v, err := f.Get(2, 1)
		if err != nil || v.F != 99 {
			t.Fatalf("layout %q value = %v, %v", l.Name(), v, err)
		}
	}
	if err := tbl.Update(9, 1, schema.FloatValue(1)); !errors.Is(err, engine.ErrNoSuchRow) {
		t.Fatalf("out of range err = %v", err)
	}
	if err := tbl.Update(2, 9, schema.FloatValue(1)); !errors.Is(err, layout.ErrNotCovered) {
		t.Fatalf("bad col err = %v", err)
	}
}

func TestScanRoutesToCheapestLayout(t *testing.T) {
	tbl := mirroredTable(t, 8)
	fill(t, tbl, 8)
	if got := tbl.LayoutForScan(1).Name(); got != "cols" {
		t.Fatalf("scan layout = %q", got)
	}
	if got := tbl.LayoutForMaterialize().Name(); got != "rows" {
		t.Fatalf("materialize layout = %q", got)
	}
	res, err := tbl.Scan(exec.Plan{Op: exec.KindSum, Col: 1})
	sum := res.Sum
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < 8; i++ {
		want += float64(i) / 2
	}
	if math.Abs(sum-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
}

func TestGetAndMaterialize(t *testing.T) {
	tbl := mirroredTable(t, 8)
	fill(t, tbl, 8)
	rec, err := tbl.Get(5)
	if err != nil || rec[0].I != 5 {
		t.Fatalf("Get = %v, %v", rec, err)
	}
	if _, err := tbl.Get(8); !errors.Is(err, engine.ErrNoSuchRow) {
		t.Fatalf("err = %v", err)
	}
	recs, err := tbl.Materialize([]uint64{1, 3})
	if err != nil || len(recs) != 2 || recs[1][0].I != 3 {
		t.Fatalf("Materialize = %v, %v", recs, err)
	}
	if _, err := tbl.Materialize([]uint64{8}); !errors.Is(err, engine.ErrNoSuchRow) {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyRelationOperations(t *testing.T) {
	env := engine.NewEnv()
	rel := layout.NewRelation("r", testSchema())
	tbl := NewTable(env, rel)
	if _, err := tbl.Scan(exec.Plan{Op: exec.KindSum, Col: 1}); !errors.Is(err, layout.ErrNoLayout) {
		t.Fatalf("sum err = %v", err)
	}
	if l := tbl.LayoutForScan(0); l != nil {
		t.Fatal("scan layout on empty relation")
	}
	if l := tbl.LayoutForMaterialize(); l != nil {
		t.Fatal("materialize layout on empty relation")
	}
}

func TestRecordSpreadOnEmptyRows(t *testing.T) {
	tbl := mirroredTable(t, 8)
	// Zero rows: spread falls back to fragment counts; the NSM layout
	// (1 fragment) wins.
	if got := tbl.LayoutForMaterialize().Name(); got != "rows" {
		t.Fatalf("materialize layout = %q", got)
	}
}

func TestSnapshotAndFree(t *testing.T) {
	tbl := mirroredTable(t, 8)
	fill(t, tbl, 2)
	snap := tbl.Snapshot()
	if len(snap.Layouts) != 2 || snap.Rows != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if tbl.Schema().Arity() != 2 {
		t.Fatal("schema accessor broken")
	}
	tbl.Free()
	if len(tbl.Rel.Layouts()) != 0 {
		t.Fatal("Free left layouts")
	}
}

func TestAppendToFragmentsProjection(t *testing.T) {
	env := engine.NewEnv()
	s := testSchema()
	f, err := layout.NewFragment(env.Host, s, []int{1}, layout.RowRange{Begin: 0, End: 2}, layout.Direct)
	if err != nil {
		t.Fatal(err)
	}
	rec := schema.Record{schema.IntValue(1), schema.FloatValue(2.5)}
	if err := AppendToFragments(rec, f); err != nil {
		t.Fatal(err)
	}
	v, err := f.Get(0, 1)
	if err != nil || v.F != 2.5 {
		t.Fatalf("projected append = %v, %v", v, err)
	}
	// Full fragment propagates the error.
	AppendToFragments(rec, f)
	if err := AppendToFragments(rec, f); !errors.Is(err, layout.ErrFragmentFull) {
		t.Fatalf("err = %v", err)
	}
}
