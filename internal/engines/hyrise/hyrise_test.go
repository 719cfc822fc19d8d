package hyrise

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

// containers lists the column group of each container the snapshot
// shows, in layout order.
func containers(tbl *Table) [][]int {
	var out [][]int
	for _, f := range tbl.Snapshot().Layouts[0].Fragments {
		out = append(out, f.Cols)
	}
	return out
}

func TestStartsAllThin(t *testing.T) {
	tbl := load(t, 100)
	defer tbl.Free()
	if got := len(containers(tbl)); got != 5 {
		t.Fatalf("groups = %d, want 5 singletons", got)
	}
	snap := tbl.Snapshot()
	if !snap.Layouts[0].VerticalOnly {
		t.Fatal("containers must be a vertical fragmentation")
	}
}

func TestAdaptFusesCoAccessedContainers(t *testing.T) {
	tbl := load(t, 400)
	defer tbl.Free()
	for i := 0; i < 100; i++ {
		tbl.Observe(workload.Op{Kind: workload.PointRead, Cols: []int{0, 1, 2}})
		tbl.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{4}})
	}
	changed, err := tbl.Adapt()
	if err != nil || !changed {
		t.Fatalf("Adapt = %v, %v", changed, err)
	}
	groups := containers(tbl)
	if len(groups[0]) != 3 {
		t.Fatalf("groups = %v, want {0,1,2} fused", groups)
	}
	// Fused container is a fat NSM fragment.
	snap := tbl.Snapshot()
	var fat int
	for _, f := range snap.Layouts[0].Fragments {
		if f.Fat {
			fat++
			if f.Lin != layout.NSM {
				t.Fatalf("fused container lin = %v", f.Lin)
			}
		}
	}
	if fat != 1 {
		t.Fatalf("fat containers = %d, want 1", fat)
	}
	// Data survives the migration.
	sum, err := tbl.SumFloat64(workload.ItemPriceCol)
	if err != nil || math.Abs(sum-workload.ExpectedItemPriceSum(400)) > 1e-6 {
		t.Fatalf("sum = %v, %v", sum, err)
	}
	for _, row := range []uint64{0, 200, 399} {
		rec, err := tbl.Get(row)
		if err != nil || !rec.Equal(workload.Item(row)) {
			t.Fatalf("Get(%d) = %v, %v", row, rec, err)
		}
	}
}

func TestAdaptNoChangeIsStable(t *testing.T) {
	tbl := load(t, 50)
	defer tbl.Free()
	changed, err := tbl.Adapt()
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("empty monitor must not trigger re-organization")
	}
}

func TestAdaptRevertsWhenWorkloadShifts(t *testing.T) {
	tbl := load(t, 200)
	defer tbl.Free()
	for i := 0; i < 50; i++ {
		tbl.Observe(workload.Op{Kind: workload.PointRead, Cols: []int{0, 1}})
	}
	if _, err := tbl.Adapt(); err != nil {
		t.Fatal(err)
	}
	if len(containers(tbl)[0]) != 2 {
		t.Fatalf("groups = %v", containers(tbl))
	}
	// The workload turns analytic: scans dominate both columns.
	for i := 0; i < 500; i++ {
		tbl.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{0}})
		tbl.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{1}})
	}
	changed, err := tbl.Adapt()
	if err != nil || !changed {
		t.Fatalf("shift Adapt = %v, %v", changed, err)
	}
	for _, g := range containers(tbl) {
		if len(g) != 1 {
			t.Fatalf("groups after shift = %v, want all thin", containers(tbl))
		}
	}
	rec, err := tbl.Get(100)
	if err != nil || !rec.Equal(workload.Item(100)) {
		t.Fatalf("Get = %v, %v", rec, err)
	}
}

func TestInsertAfterAdapt(t *testing.T) {
	tbl := load(t, 100)
	defer tbl.Free()
	for i := 0; i < 50; i++ {
		tbl.Observe(workload.Op{Kind: workload.PointRead, Cols: []int{0, 1, 2}})
	}
	if _, err := tbl.Adapt(); err != nil {
		t.Fatal(err)
	}
	if err := workload.Generate(200, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := tbl.Insert(workload.Item(100 + i))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rec, err := tbl.Get(299)
	if err != nil || !rec.Equal(workload.Item(299)) {
		t.Fatalf("Get = %v, %v", rec, err)
	}
}
