package h2o

import (
	"math"
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

func load(t *testing.T, n uint64) *Table {
	t.Helper()
	e := New(engine.NewEnv())
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

// thinCols lists the attributes the snapshot shows as thin columns, in
// fragment order.
func thinCols(tbl *Table) []int {
	var out []int
	for _, f := range tbl.Snapshot().Layouts[0].Fragments {
		if !f.Fat {
			out = append(out, f.Cols...)
		}
	}
	return out
}

func TestDefaultIsPureNSM(t *testing.T) {
	tbl := load(t, 200)
	defer tbl.Free()
	snap := tbl.Snapshot()
	if len(snap.Layouts[0].Fragments) != 1 {
		t.Fatalf("fragments = %d", len(snap.Layouts[0].Fragments))
	}
	f := snap.Layouts[0].Fragments[0]
	if !f.Fat || f.Lin != layout.NSM {
		t.Fatalf("default fragment = %+v", f)
	}
	if len(thinCols(tbl)) != 0 {
		t.Fatalf("thin columns = %v", thinCols(tbl))
	}
}

func TestScanHeavyColumnDegeneratesToThin(t *testing.T) {
	tbl := load(t, 500)
	defer tbl.Free()
	for i := 0; i < 200; i++ {
		tbl.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{workload.ItemPriceCol}})
	}
	changed, err := tbl.Adapt()
	if err != nil || !changed {
		t.Fatalf("Adapt = %v, %v", changed, err)
	}
	thin := thinCols(tbl)
	if len(thin) != 1 || thin[0] != workload.ItemPriceCol {
		t.Fatalf("thin = %v", thin)
	}
	// Resulting structure: fat NSM fragment over the other columns plus
	// one thin Direct fragment — "variable NSM-fixed partially
	// DSM-emulated".
	snap := tbl.Snapshot()
	var fat, thinFrags int
	for _, f := range snap.Layouts[0].Fragments {
		if f.Fat {
			fat++
		} else if f.Lin == layout.Direct {
			thinFrags++
		}
	}
	if fat != 1 || thinFrags != 1 {
		t.Fatalf("structure = %d fat, %d thin", fat, thinFrags)
	}
	// Answers survive.
	sum, err := tbl.SumFloat64(workload.ItemPriceCol)
	if err != nil || math.Abs(sum-workload.ExpectedItemPriceSum(500)) > 1e-6 {
		t.Fatalf("sum = %v, %v", sum, err)
	}
	rec, err := tbl.Get(321)
	if err != nil || !rec.Equal(workload.Item(321)) {
		t.Fatalf("Get = %v, %v", rec, err)
	}
}

func TestPointHeavyWorkloadKeepsNSM(t *testing.T) {
	tbl := load(t, 300)
	defer tbl.Free()
	all := layout.AllCols(tbl.Rel.Schema())
	for i := 0; i < 200; i++ {
		tbl.Observe(workload.Op{Kind: workload.PointRead, Cols: all})
	}
	changed, err := tbl.Adapt()
	if err != nil {
		t.Fatal(err)
	}
	if changed || len(thinCols(tbl)) != 0 {
		t.Fatalf("point-heavy workload degenerated columns: %v", thinCols(tbl))
	}
}

func TestAdaptOnEmptyTableIsNoOp(t *testing.T) {
	e := New(engine.NewEnv())
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Free()
	ht := tbl.(*Table)
	ht.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{4}})
	changed, err := ht.Adapt()
	if err != nil || changed {
		t.Fatalf("empty Adapt = %v, %v", changed, err)
	}
}

func TestAllColumnsCanDegenerate(t *testing.T) {
	tbl := load(t, 400)
	defer tbl.Free()
	for c := 0; c < 5; c++ {
		for i := 0; i < 100; i++ {
			tbl.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{c}})
		}
	}
	if changed, err := tbl.Adapt(); err != nil || !changed {
		t.Fatalf("Adapt = %v, %v", changed, err)
	}
	if len(thinCols(tbl)) != 5 {
		t.Fatalf("thin = %v, want all 5 (DSM-emulated)", thinCols(tbl))
	}
	sum, err := tbl.SumFloat64(workload.ItemPriceCol)
	if err != nil || math.Abs(sum-workload.ExpectedItemPriceSum(400)) > 1e-6 {
		t.Fatalf("sum = %v, %v", sum, err)
	}
}

func TestLayoutPoolExists(t *testing.T) {
	tbl := load(t, 10)
	defer tbl.Free()
	// Per-attribute candidates plus the all-thin candidate.
	if len(tbl.pool) != 6 {
		t.Fatalf("pool = %d candidates", len(tbl.pool))
	}
}

func TestInsertAfterDegeneration(t *testing.T) {
	tbl := load(t, 100)
	defer tbl.Free()
	for i := 0; i < 100; i++ {
		tbl.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{4}})
	}
	if _, err := tbl.Adapt(); err != nil {
		t.Fatal(err)
	}
	if err := workload.Generate(100, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := tbl.Insert(workload.Item(100 + i))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rec, err := tbl.Get(199)
	if err != nil || !rec.Equal(workload.Item(199)) {
		t.Fatalf("Get = %v, %v", rec, err)
	}
}
