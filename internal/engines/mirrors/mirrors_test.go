package mirrors

import (
	"math"
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
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
	mt := tbl.(*Table)
	if err := workload.Generate(n, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := mt.Insert(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return mt
}

func TestTwoMirrorsWithOppositeLinearization(t *testing.T) {
	tbl := load(t, 500)
	defer tbl.Free()
	snap := tbl.Snapshot()
	if len(snap.Layouts) != 2 {
		t.Fatalf("layouts = %d", len(snap.Layouts))
	}
	for i, want := range []layout.Linearization{layout.NSM, layout.DSM} {
		l := snap.Layouts[i]
		if len(l.Fragments) != 1 {
			t.Fatalf("mirror %q has %d fragments (inflexible = 1)", l.Name, len(l.Fragments))
		}
		if got := l.Fragments[0].Lin; got != want {
			t.Fatalf("mirror %q linearized %v, want %v", l.Name, got, want)
		}
	}
}

func TestMirrorsStayCoherentUnderWrites(t *testing.T) {
	tbl := load(t, 300)
	defer tbl.Free()
	if err := tbl.Update(7, workload.ItemPriceCol, schema.FloatValue(123)); err != nil {
		t.Fatal(err)
	}
	// Both mirrors must hold the new value.
	for i, l := range tbl.Rel.Layouts() {
		f := l.Fragments()[0]
		v, err := f.Get(7, workload.ItemPriceCol)
		if err != nil || v.F != 123 {
			t.Fatalf("mirror %d value = %v, %v", i, v, err)
		}
	}
}

func TestQueryRoutingByAccessPattern(t *testing.T) {
	tbl := load(t, 500)
	defer tbl.Free()
	// Attribute-centric scans route to the DSM mirror.
	scan := tbl.LayoutForScan(workload.ItemPriceCol)
	if scan.Name() != "dsm-mirror" {
		t.Fatalf("scan routed to %q", scan.Name())
	}
	// Record-centric materialization routes to the NSM mirror.
	mat := tbl.LayoutForMaterialize()
	if mat.Name() != "nsm-mirror" {
		t.Fatalf("materialize routed to %q", mat.Name())
	}
	// Both give the right answers.
	res, err := tbl.Scan(exec.Plan{Op: exec.KindSum, Col: workload.ItemPriceCol})
	sum := res.Sum
	if err != nil || math.Abs(sum-workload.ExpectedItemPriceSum(500)) > 1e-6 {
		t.Fatalf("sum = %v, %v", sum, err)
	}
	rec, err := tbl.Get(123)
	if err != nil || !rec.Equal(workload.Item(123)) {
		t.Fatalf("Get = %v, %v", rec, err)
	}
}

func TestGrowthPreservesBothMirrors(t *testing.T) {
	tbl := load(t, 1000) // forces several growth cycles from cap 64
	defer tbl.Free()
	for _, row := range []uint64{0, 63, 64, 999} {
		rec, err := tbl.Get(row)
		if err != nil || !rec.Equal(workload.Item(row)) {
			t.Fatalf("Get(%d) = %v, %v", row, rec, err)
		}
	}
}
