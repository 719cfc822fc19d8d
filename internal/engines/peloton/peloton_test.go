package peloton

import (
	"math"
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
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
	pt := tbl.(*Table)
	if err := workload.Generate(n, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := pt.Insert(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return pt
}

// tiles lists the column groups of tile group i's physical tiles.
func tiles(tbl *Table, i int) [][]int {
	var out [][]int
	for _, f := range tbl.groups[i].tiles {
		out = append(out, f.Cols())
	}
	return out
}

func TestTileGroupsGrow(t *testing.T) {
	tbl := load(t, 4000)
	defer tbl.Free()
	if got := len(tbl.groups); got != 4 { // ceil(4000/GroupRows)
		t.Fatalf("tile groups = %d, want 4", got)
	}
	// Default advice: one full-width NSM tile per group.
	if g := tiles(tbl, 0); len(g) != 1 || len(g[0]) != 5 {
		t.Fatalf("group layout = %v", g)
	}
}

func TestAdaptChangesOnlyFutureGroups(t *testing.T) {
	tbl := load(t, 2*GroupRows) // groups 0,1
	defer tbl.Free()
	for i := 0; i < 100; i++ {
		tbl.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{workload.ItemPriceCol}})
		tbl.Observe(workload.Op{Kind: workload.PointRead, Cols: []int{0, 1, 2}})
	}
	changed, err := tbl.Adapt()
	if err != nil || !changed {
		t.Fatalf("Adapt = %v, %v", changed, err)
	}
	// Existing groups keep the old layout.
	if g := tiles(tbl, 0); len(g) != 1 {
		t.Fatalf("old group transformed eagerly: %v", g)
	}
	// New groups adopt the advice — the layout archipelago.
	if err := workload.Generate(2*GroupRows, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := tbl.Insert(workload.Item(2*GroupRows + i))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	newest := tiles(tbl, len(tbl.groups)-1)
	if len(newest) < 2 {
		t.Fatalf("new group did not adopt advice: %v", newest)
	}
	// Mixed layouts answer correctly.
	res, err := tbl.Scan(exec.Plan{Op: exec.KindSum, Col: workload.ItemPriceCol})
	sum := res.Sum
	if err != nil || math.Abs(sum-workload.ExpectedItemPriceSum(4*GroupRows)) > 1e-6 {
		t.Fatalf("sum = %v, %v", sum, err)
	}
}

func TestAdaptWithoutSignalIsStable(t *testing.T) {
	tbl := load(t, 100)
	defer tbl.Free()
	// The monitor is empty: the advice collapses to all-thin, which
	// differs from the initial all-NSM default — one change, then stable.
	if _, err := tbl.Adapt(); err != nil {
		t.Fatal(err)
	}
	changed, err := tbl.Adapt()
	if err != nil || changed {
		t.Fatalf("second Adapt = %v, %v", changed, err)
	}
}

func TestUpdateWritesThroughTiles(t *testing.T) {
	tbl := load(t, 300)
	defer tbl.Free()
	if err := tbl.Update(130, 4, schema.FloatValue(9)); err != nil {
		t.Fatal(err)
	}
	rec, err := tbl.Get(130)
	if err != nil || rec[4].F != 9 {
		t.Fatalf("Get = %v, %v", rec, err)
	}
}
