package pax

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
	pt := tbl.(*Table)
	if err := workload.Generate(n, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := pt.Insert(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestPageGeometry(t *testing.T) {
	tbl := load(t, 1000)
	defer tbl.Free()
	pages := tbl.Snapshot().Layouts[0].Fragments
	// ceil(1000/292) = 4 pages.
	if len(pages) != 4 {
		t.Fatalf("pages = %d, want 4", len(pages))
	}
	// 8192 / 28 = 292 records per page.
	if got := pages[0].Rows.Len(); got != 292 {
		t.Fatalf("records per page = %d, want 292", got)
	}
}

func TestPagesAreDSMFixedFat(t *testing.T) {
	tbl := load(t, 300)
	defer tbl.Free()
	snap := tbl.Snapshot()
	if len(snap.Layouts) != 1 {
		t.Fatalf("layouts = %d", len(snap.Layouts))
	}
	for _, f := range snap.Layouts[0].Fragments {
		if !f.Fat || f.Lin != layout.DSM {
			t.Fatalf("page fragment = %+v, want fat DSM", f)
		}
		if len(f.Cols) != 5 {
			t.Fatalf("page covers %d cols", len(f.Cols))
		}
	}
	if !snap.Layouts[0].HorizontalOnly {
		t.Fatal("PAX layout should be purely horizontal")
	}
}

func TestMinipageContiguity(t *testing.T) {
	// Within one page, a column's fields are contiguous (the minipage);
	// across pages they are not — the defining PAX property.
	tbl := load(t, 300)
	defer tbl.Free()
	l, err := tbl.Rel.Primary()
	if err != nil {
		t.Fatal(err)
	}
	f := l.Fragments()[0]
	v, err := f.ColVector(workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Contiguous() {
		t.Fatal("minipage not contiguous")
	}
}

func TestRejectsTinyPages(t *testing.T) {
	// A record wider than half a page leaves fewer than 2 per page.
	wide := schema.MustNew(schema.Int64Attr("id"), schema.CharAttr("blob", PageBytes/2))
	if _, err := New(engine.NewEnv()).Create("wide", wide); err == nil {
		t.Fatal("page of one record accepted")
	}
}

func TestSumAcrossPages(t *testing.T) {
	tbl := load(t, 777)
	defer tbl.Free()
	res, err := tbl.Scan(exec.Plan{Op: exec.KindSum, Col: workload.ItemPriceCol})
	sum := res.Sum
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-workload.ExpectedItemPriceSum(777)) > 1e-6 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestUpdateInPlace(t *testing.T) {
	tbl := load(t, 300)
	defer tbl.Free()
	if err := tbl.Update(299, workload.ItemPriceCol, schema.FloatValue(5)); err != nil {
		t.Fatal(err)
	}
	rec, err := tbl.Get(299)
	if err != nil || rec[workload.ItemPriceCol].F != 5 {
		t.Fatalf("Get = %v, %v", rec, err)
	}
}
