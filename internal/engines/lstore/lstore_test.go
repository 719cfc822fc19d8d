package lstore

import (
	"math"
	"testing"
	"testing/quick"

	"math/rand"

	"hybridstore/internal/engine"
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
	lt := tbl.(*Table)
	if err := workload.Generate(n, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := lt.Insert(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return lt
}

func TestUpdatesAppendToTailNotBase(t *testing.T) {
	tbl := load(t, 200)
	defer tbl.Free()
	if err := tbl.Update(5, workload.ItemPriceCol, schema.FloatValue(50)); err != nil {
		t.Fatal(err)
	}
	if tbl.TailLength() != 1 {
		t.Fatalf("tail length = %d", tbl.TailLength())
	}
	// Base region still holds the original value (lineage preserved).
	baseV, err := tbl.baseValue(5, workload.ItemPriceCol)
	if err != nil || baseV.F != workload.ItemPrice(5) {
		t.Fatalf("base overwritten: %v, %v", baseV, err)
	}
	// The dictionary routes reads to the tail.
	rec, err := tbl.Get(5)
	if err != nil || rec[workload.ItemPriceCol].F != 50 {
		t.Fatalf("Get = %v, %v", rec, err)
	}
}

func TestHistoricQuerying(t *testing.T) {
	tbl := load(t, 100)
	defer tbl.Free()
	for _, v := range []float64{10, 20, 30} {
		if err := tbl.Update(7, workload.ItemPriceCol, schema.FloatValue(v)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		back int
		want float64
	}{
		{0, 30}, {1, 20}, {2, 10}, {3, workload.ItemPrice(7)}, {99, workload.ItemPrice(7)},
	}
	for _, c := range cases {
		rec, err := tbl.GetVersion(7, c.back)
		if err != nil {
			t.Fatalf("GetVersion(back=%d): %v", c.back, err)
		}
		if rec[workload.ItemPriceCol].F != c.want {
			t.Fatalf("back=%d: got %v, want %v", c.back, rec[workload.ItemPriceCol].F, c.want)
		}
	}
	if _, err := tbl.GetVersion(7, -1); err == nil {
		t.Fatal("negative history depth accepted")
	}
	if _, err := tbl.GetVersion(100, 0); err == nil {
		t.Fatal("out-of-range row accepted")
	}
}

func TestSumPatchesTailValues(t *testing.T) {
	tbl := load(t, 300)
	defer tbl.Free()
	want := workload.ExpectedItemPriceSum(300)
	for i := uint64(0); i < 50; i++ {
		if err := tbl.Update(i, workload.ItemPriceCol, schema.FloatValue(0)); err != nil {
			t.Fatal(err)
		}
		want -= workload.ItemPrice(i)
	}
	// Update the same row twice: only the newest counts.
	if err := tbl.Update(0, workload.ItemPriceCol, schema.FloatValue(5)); err != nil {
		t.Fatal(err)
	}
	want += 5
	got, err := tbl.SumFloat64(workload.ItemPriceCol)
	if err != nil || math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %v, %v; want %v", got, err, want)
	}
}

func TestMergeFoldsTailsIntoBase(t *testing.T) {
	tbl := load(t, 200)
	defer tbl.Free()
	for i := uint64(0); i < 80; i++ {
		if err := tbl.Update(i, workload.ItemPriceCol, schema.FloatValue(1)); err != nil {
			t.Fatal(err)
		}
	}
	sumBefore, err := tbl.SumFloat64(workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if tbl.TailLength() != 0 {
		t.Fatalf("tail not emptied: %d", tbl.TailLength())
	}
	if tbl.sealedRows != tbl.Rows() {
		t.Fatalf("merge sealed %d of %d rows into the base", tbl.sealedRows, tbl.Rows())
	}
	sumAfter, err := tbl.SumFloat64(workload.ItemPriceCol)
	if err != nil || math.Abs(sumAfter-sumBefore) > 1e-6 {
		t.Fatalf("merge changed sum: %v → %v", sumBefore, sumAfter)
	}
	// History is consolidated away by the merge.
	rec, err := tbl.GetVersion(0, 5)
	if err != nil || rec[workload.ItemPriceCol].F != 1 {
		t.Fatalf("post-merge history = %v, %v", rec, err)
	}
}

func TestSumRejectsNonFloatColumns(t *testing.T) {
	tbl := load(t, 10)
	defer tbl.Free()
	if _, err := tbl.SumFloat64(0); err == nil {
		t.Fatal("int64 column summed as float")
	}
	if _, err := tbl.SumFloat64(99); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestSnapshotIsCombined(t *testing.T) {
	tbl := load(t, 100)
	defer tbl.Free()
	snap := tbl.Snapshot()
	if len(snap.Layouts) != 1 || !snap.Layouts[0].Combined {
		t.Fatalf("snapshot = %+v", snap.Layouts)
	}
	// Appendable + tail fragments per attribute (no sealed region before
	// the first merge).
	if got := len(snap.Layouts[0].Fragments); got != 10 {
		t.Fatalf("fragments = %d, want 10", got)
	}
}

// Property: any update sequence followed by Merge equals applying the
// updates to a model map, and history before merge walks correctly.
func TestQuickLineageEquivalence(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := New(engine.NewEnv())
		tbl, err := e.Create("item", workload.ItemSchema())
		if err != nil {
			return false
		}
		lt := tbl.(*Table)
		defer lt.Free()
		const n = 40
		if err := workload.Generate(n, workload.Item, func(i uint64, rec schema.Record) error {
			_, err := lt.Insert(rec)
			return err
		}); err != nil {
			return false
		}
		model := map[uint64]float64{}
		for i := uint64(0); i < n; i++ {
			model[i] = workload.ItemPrice(i)
		}
		ops := int(opsRaw)%100 + 1
		for i := 0; i < ops; i++ {
			row := uint64(r.Int63n(n))
			val := math.Floor(r.Float64() * 100)
			if lt.Update(row, workload.ItemPriceCol, schema.FloatValue(val)) != nil {
				return false
			}
			model[row] = val
		}
		var want float64
		for _, v := range model {
			want += v
		}
		got, err := lt.SumFloat64(workload.ItemPriceCol)
		if err != nil || math.Abs(got-want) > 1e-6 {
			return false
		}
		if lt.Merge() != nil {
			return false
		}
		got, err = lt.SumFloat64(workload.ItemPriceCol)
		return err == nil && math.Abs(got-want) < 1e-6 && lt.TailLength() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeSealsCompressedBase(t *testing.T) {
	tbl := load(t, 2000)
	defer tbl.Free()
	if tbl.SealedRows() != 0 || tbl.CompressionRatio() != 1 {
		t.Fatal("fresh table should have no sealed region")
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if tbl.SealedRows() != 2000 {
		t.Fatalf("sealed rows = %d", tbl.SealedRows())
	}
	// The item table's low-cardinality columns compress well.
	if ratio := tbl.CompressionRatio(); ratio < 1.5 {
		t.Fatalf("compression ratio = %v, want > 1.5", ratio)
	}
	// Sealed rows read back exactly.
	for _, row := range []uint64{0, 999, 1999} {
		rec, err := tbl.Get(row)
		if err != nil || !rec.Equal(workload.Item(row)) {
			t.Fatalf("sealed Get(%d) = %v, %v", row, rec, err)
		}
	}
	// Sealed-region scan uses the compressed fast path and is exact.
	sum, err := tbl.SumFloat64(workload.ItemPriceCol)
	if err != nil || math.Abs(sum-workload.ExpectedItemPriceSum(2000)) > 1e-6 {
		t.Fatalf("sealed sum = %v, %v", sum, err)
	}
	// A sealed fragment appears in the snapshot (15 = 5 sealed + 5
	// appendable + 5 tail).
	if got := len(tbl.Snapshot().Layouts[0].Fragments); got != 15 {
		t.Fatalf("fragments = %d, want 15", got)
	}
}

func TestInsertAndUpdateAfterSeal(t *testing.T) {
	tbl := load(t, 500)
	defer tbl.Free()
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	// Post-merge inserts land in the appendable region.
	for i := uint64(500); i < 700; i++ {
		if _, err := tbl.Insert(workload.Item(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Updates to sealed rows go to the tail; the sealed image is
	// untouched.
	if err := tbl.Update(3, workload.ItemPriceCol, schema.FloatValue(1234)); err != nil {
		t.Fatal(err)
	}
	rec, err := tbl.Get(3)
	if err != nil || rec[workload.ItemPriceCol].F != 1234 {
		t.Fatalf("Get = %v, %v", rec, err)
	}
	base, err := tbl.baseValue(3, workload.ItemPriceCol)
	if err != nil || base.F != workload.ItemPrice(3) {
		t.Fatalf("sealed base mutated: %v, %v", base, err)
	}
	want := workload.ExpectedItemPriceSum(700) - workload.ItemPrice(3) + 1234
	sum, err := tbl.SumFloat64(workload.ItemPriceCol)
	if err != nil || math.Abs(sum-want) > 1e-6 {
		t.Fatalf("sum = %v, %v; want %v", sum, err, want)
	}
	// A second merge seals everything again.
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if tbl.SealedRows() != 700 || tbl.TailLength() != 0 {
		t.Fatalf("after second merge: sealed=%d tail=%d", tbl.SealedRows(), tbl.TailLength())
	}
	rec, err = tbl.Get(3)
	if err != nil || rec[workload.ItemPriceCol].F != 1234 {
		t.Fatalf("post-merge Get = %v, %v", rec, err)
	}
}
