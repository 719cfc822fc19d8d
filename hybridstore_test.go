package hybridstore

import (
	"math"
	"testing"

	"hybridstore/internal/exec"
	"hybridstore/internal/workload"
)

// sumOf answers a sum plan over col through Execute, the facade's read
// entry.
func sumOf(t *Table, col int) (float64, error) {
	res, err := t.Execute([]Plan{{Op: exec.KindSum, Col: col}})
	if err != nil {
		return 0, err
	}
	return res[0].Sum, nil
}

// scanSum answers a sum plan over col through an engine table's Scan.
func scanSum(t interface{ Scan(Plan) (Result, error) }, col int) (float64, error) {
	r, err := t.Scan(Plan{Op: exec.KindSum, Col: col})
	return r.Sum, err
}

// hostSum runs a sum scan over pieces on the host operators.
func hostSum(cfg exec.Config, pieces []exec.Piece) (float64, error) {
	var out [1]Result
	err := cfg.Scan(exec.Scan{Plan: Plan{Op: exec.KindSum}, Vals: pieces}, out[:])
	return out[0].Sum, err
}

func TestQuickstartFlow(t *testing.T) {
	db := Open(Options{ChunkRows: 128, HotChunks: 1})
	s, err := NewSchema(
		Int64Attr("id"),
		CharAttr("name", 8),
		Float64Attr("balance"),
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("accounts", s)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Free()
	if tbl.Name() != "accounts" || tbl.Schema().Arity() != 3 {
		t.Fatal("metadata broken")
	}

	for i := 0; i < 500; i++ {
		if _, err := tbl.Insert(Record{
			IntValue(int64(i)), CharValue("acct"), FloatValue(float64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Rows() != 500 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	sum, err := sumOf(tbl, 2)
	if err != nil || sum != 499*500/2 {
		t.Fatalf("sum = %v, %v", sum, err)
	}
	if err := tbl.Update(10, 2, FloatValue(0)); err != nil {
		t.Fatal(err)
	}
	rec, err := tbl.Get(10)
	if err != nil || rec[2].F != 0 {
		t.Fatalf("get = %v, %v", rec, err)
	}
	res, err := tbl.Execute([]Plan{{Op: "get", Row: 1}, {Op: "get", Row: 2}, {Op: "get", Row: 3}})
	if err != nil || len(res) != 3 || res[2].Rec[0].I != 3 {
		t.Fatalf("three gets = %v, %v", res, err)
	}
	if db.SimulatedSeconds() <= 0 {
		t.Fatal("no simulated time accumulated")
	}
}

func TestTransactions(t *testing.T) {
	db := Open(Options{})
	tbl, err := db.CreateTable("t", mustSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Free()
	tbl.Insert(Record{IntValue(1), CharValue("x"), FloatValue(100)})

	a := tbl.Begin()
	b := tbl.Begin()
	if err := a.Update(0, 2, FloatValue(50)); err != nil {
		t.Fatal(err)
	}
	if err := b.Update(0, 2, FloatValue(60)); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err == nil {
		t.Fatal("conflicting commit succeeded")
	}
	rec, err := tbl.Get(0)
	if err != nil || rec[2].F != 50 {
		t.Fatalf("get = %v, %v", rec, err)
	}
	// Snapshot read + abort path.
	r := tbl.Begin()
	if _, err := r.Read(0); err != nil {
		t.Fatal(err)
	}
	r.Abort()
}

func TestAdaptAndPlacement(t *testing.T) {
	db := Open(Options{ChunkRows: 64, HotChunks: 1})
	tbl, err := db.CreateTable("item", ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Free()
	for i := uint64(0); i < 400; i++ {
		if _, err := tbl.Insert(Item(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Analytic phase feeds the monitor; at this demo scale the cost-aware
	// advisor keeps the column on the host, so place it explicitly.
	for i := 0; i < 10; i++ {
		if _, err := sumOf(tbl, ItemPriceColumn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Adapt(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.PlaceColumn(ItemPriceColumn); err != nil {
		t.Fatal(err)
	}
	st := tbl.Stats()
	if st.Rows != 400 || st.Freezes == 0 || st.ColdChunks == 0 || len(st.DeviceColumns) == 0 {
		t.Fatalf("stats = %+v", st)
	}
	sum, err := sumOf(tbl, ItemPriceColumn)
	if err != nil || math.Abs(sum-workload.ExpectedItemPriceSum(400)) > 1e-6 {
		t.Fatalf("sum = %v, %v", sum, err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyMeetsReferenceDesign(t *testing.T) {
	db := Open(Options{ChunkRows: 64, HotChunks: 1})
	tbl, err := db.CreateTable("item", ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Free()
	for i := uint64(0); i < 300; i++ {
		tbl.Insert(Item(i))
	}
	// Scan-dominant analytics on the price column plus occasional point
	// reads: the advisor fuses the co-accessed columns and keeps the
	// price column thin.
	for i := 0; i < 30; i++ {
		sumOf(tbl, ItemPriceColumn)
	}
	for i := 0; i < 5; i++ {
		tbl.Get(5)
	}
	tbl.Adapt()
	c, err := tbl.Classify()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Flexibility.Strong() {
		t.Errorf("flexibility = %v", c.Flexibility)
	}
	if c.Name != "HybridStore" {
		t.Errorf("name = %q", c.Name)
	}
}

func TestCustomerWorkloadReexports(t *testing.T) {
	if CustomerSchema().Arity() != 21 || CustomerSchema().Width() != 96 {
		t.Fatal("customer schema re-export broken")
	}
	if len(Customer(1)) != 21 || len(Item(1)) != 5 {
		t.Fatal("record generators broken")
	}
}

func mustSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(Int64Attr("id"), CharAttr("name", 8), Float64Attr("balance"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPrimaryKeyAPI(t *testing.T) {
	db := Open(Options{})
	tbl, err := db.CreateTable("item", ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Free()
	for i := uint64(0); i < 50; i++ {
		tbl.Insert(Item(i))
	}
	rec, err := tbl.GetByPK(33)
	if err != nil || !rec.Equal(Item(33)) {
		t.Fatalf("GetByPK = %v, %v", rec, err)
	}
	if row, ok := tbl.LookupPK(7); !ok || row != 7 {
		t.Fatalf("LookupPK = %d, %v", row, ok)
	}
	// A transaction reads by key through the index: keys are immutable
	// once indexed, so the row LookupPK resolves is the row at any
	// snapshot.
	x := tbl.Begin()
	defer x.Abort()
	row, ok := tbl.LookupPK(12)
	if rec, err := x.Read(row); !ok || err != nil || !rec.Equal(Item(12)) {
		t.Fatalf("Read(LookupPK(12)) = %v, %v, %v", rec, ok, err)
	}
}

func TestGroupByAPI(t *testing.T) {
	db := Open(Options{ChunkRows: 128, HotChunks: 1})
	tbl, err := db.CreateTable("item", ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Free()
	for i := uint64(0); i < 300; i++ {
		tbl.Insert(Item(i))
	}
	res, err := tbl.Execute([]Plan{{Op: "group_sum", KeyCol: 1, Col: ItemPriceColumn}})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, g := range res[0].Groups {
		total += g.Sum
	}
	if math.Abs(total-workload.ExpectedItemPriceSum(300)) > 1e-6 {
		t.Fatalf("total = %v", total)
	}
}

func TestPredicateAPI(t *testing.T) {
	db := Open(Options{ChunkRows: 128, HotChunks: 1})
	tbl, err := db.CreateTable("item", ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Free()
	const n = 600
	for i := uint64(0); i < n; i++ {
		tbl.Insert(Item(i))
	}
	// An update far outside the generated price domain must surface
	// through the MVCC patch even when every base fragment is pruned.
	if err := tbl.Update(42, ItemPriceColumn, FloatValue(500)); err != nil {
		t.Fatal(err)
	}
	check := func(p FloatPred) {
		t.Helper()
		var wantSum float64
		var wantN int64
		for i := uint64(0); i < n; i++ {
			x := workload.ItemPrice(i)
			if i == 42 {
				x = 500
			}
			if p.Match(x) {
				wantSum += x
				wantN++
			}
		}
		sum, cnt, err := tbl.SumFloat64Where(ItemPriceColumn, p)
		if err != nil {
			t.Fatal(err)
		}
		if cnt != wantN || math.Abs(sum-wantSum) > 1e-9 {
			t.Fatalf("%v: got (%v, %d), want (%v, %d)", p, sum, cnt, wantSum, wantN)
		}
	}
	check(GtFloat(100))         // only the updated outlier
	check(LtFloat(3))           // a sliver of the base domain
	check(BetweenFloat(2, 4.5)) // mid-range
	check(EqFloat(workload.ItemPrice(7)))
	check(BetweenFloat(20, 30)) // provably empty
}
