package gputx

import (
	"math"
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/mem"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

func load(t *testing.T, n uint64) (*engine.Env, *Table) {
	t.Helper()
	env := engine.NewEnv()
	e := New(env)
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	gt := tbl.(*Table)
	if err := workload.Generate(n, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := gt.Insert(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return env, gt
}

func TestColumnsAreDeviceResident(t *testing.T) {
	_, tbl := load(t, 300)
	defer tbl.Free()
	snap := tbl.Snapshot()
	for _, f := range snap.Layouts[0].Fragments {
		if f.Space != mem.Device {
			t.Fatalf("fragment in %v, want device", f.Space)
		}
		if f.Fat || len(f.Cols) != 1 {
			t.Fatalf("fragment %+v is not a thin column", f)
		}
	}
}

func TestInsertsChargeBusTime(t *testing.T) {
	env, tbl := load(t, 100)
	defer tbl.Free()
	if env.Clock.ElapsedNs() <= 0 {
		t.Fatal("device loads charged no bus time")
	}
}

func TestBulkTransactionExecution(t *testing.T) {
	_, tbl := load(t, 200)
	defer tbl.Free()
	// A batch of transactions; within-batch semantics are serial, so the
	// later write to row 5 wins.
	tbl.Submit(
		TxOp{Row: 5, Col: workload.ItemPriceCol, Val: schema.FloatValue(50)},
		TxOp{Row: 6, Col: workload.ItemPriceCol, Val: schema.FloatValue(60)},
	)
	tbl.Submit(TxOp{Row: 5, Col: workload.ItemPriceCol, Val: schema.FloatValue(55)})
	if err := tbl.ExecuteBatch(); err != nil {
		t.Fatal(err)
	}
	if len(tbl.batch) != 0 {
		t.Fatal("batch not drained")
	}
	for row, want := range map[uint64]float64{5: 55, 6: 60, 7: workload.ItemPrice(7)} {
		rec, err := tbl.Get(row)
		if err != nil || rec[workload.ItemPriceCol].F != want {
			t.Fatalf("Get(%d) = %v, %v; want price %v", row, rec, err, want)
		}
	}
}

func TestBatchRejectsBadRow(t *testing.T) {
	_, tbl := load(t, 10)
	defer tbl.Free()
	tbl.Submit(TxOp{Row: 10, Col: workload.ItemPriceCol, Val: schema.FloatValue(1)})
	if err := tbl.ExecuteBatch(); err == nil {
		t.Fatal("out-of-range batch op accepted")
	}
}

func TestDeviceReductionSum(t *testing.T) {
	env, tbl := load(t, 2000)
	defer tbl.Free()
	before := env.GPU.Stats().KernelLaunches
	sum, err := tbl.SumFloat64(workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-workload.ExpectedItemPriceSum(2000)) > 1e-6 {
		t.Fatalf("sum = %v", sum)
	}
	if env.GPU.Stats().KernelLaunches <= before {
		t.Fatal("sum did not launch kernels")
	}
	if _, err := tbl.SumFloat64(99); err == nil {
		t.Fatal("bad column accepted")
	}
}

func TestScatterBatchesPerColumn(t *testing.T) {
	env, tbl := load(t, 100)
	defer tbl.Free()
	before := env.GPU.Stats().KernelLaunches
	// 10 updates on the same column with no interleaved read: one
	// scatter kernel.
	for i := uint64(0); i < 10; i++ {
		tbl.Submit(TxOp{Row: i, Col: workload.ItemPriceCol, Val: schema.FloatValue(1)})
	}
	if err := tbl.ExecuteBatch(); err != nil {
		t.Fatal(err)
	}
	if launches := env.GPU.Stats().KernelLaunches - before; launches != 1 {
		t.Fatalf("launches = %d, want 1 batched scatter", launches)
	}
	sum, err := tbl.SumFloat64(workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := uint64(10); i < 100; i++ {
		want += workload.ItemPrice(i)
	}
	want += 10
	if math.Abs(sum-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
}

func TestGetAndMaterializeDeliverThroughHost(t *testing.T) {
	env, tbl := load(t, 50)
	defer tbl.Free()
	d2hBefore := env.GPU.Stats().DeviceToHostBytes
	_ = d2hBefore
	clkBefore := env.Clock.ElapsedNs()
	rec, err := tbl.Get(7)
	if err != nil || !rec.Equal(workload.Item(7)) {
		t.Fatalf("Get = %v, %v", rec, err)
	}
	if env.Clock.ElapsedNs() <= clkBefore {
		t.Fatal("result delivery charged no time")
	}
	recs, err := tbl.Materialize([]uint64{1, 2, 3})
	if err != nil || len(recs) != 3 {
		t.Fatalf("Materialize = %v, %v", recs, err)
	}
	if _, err := tbl.Get(50); err == nil {
		t.Fatal("out-of-range Get accepted")
	}
}

func TestUpdateSingleOpBatch(t *testing.T) {
	_, tbl := load(t, 20)
	defer tbl.Free()
	if err := tbl.Update(3, workload.ItemPriceCol, schema.FloatValue(77)); err != nil {
		t.Fatal(err)
	}
	rec, err := tbl.Get(3)
	if err != nil || rec[workload.ItemPriceCol].F != 77 {
		t.Fatalf("Get = %v, %v", rec, err)
	}
	if err := tbl.Update(0, 99, schema.IntValue(0)); err == nil {
		t.Fatal("bad column accepted")
	}
}

func TestKSetPartitioning(t *testing.T) {
	_, tbl := load(t, 100)
	defer tbl.Free()
	// Three transactions: tx1 and tx2 touch disjoint rows (one set);
	// tx3 conflicts with tx1 on row 1 (second set).
	tbl.Submit(
		TxOp{Row: 1, Col: workload.ItemPriceCol, Val: schema.FloatValue(10)},
		TxOp{Row: 2, Col: workload.ItemPriceCol, Val: schema.FloatValue(20)},
	)
	tbl.Submit(TxOp{Row: 3, Col: workload.ItemPriceCol, Val: schema.FloatValue(30)})
	tbl.Submit(TxOp{Row: 1, Col: workload.ItemPriceCol, Val: schema.FloatValue(11)})
	if err := tbl.ExecuteBatch(); err != nil {
		t.Fatal(err)
	}
	if tbl.KSets() != 2 {
		t.Fatalf("KSets = %d, want 2", tbl.KSets())
	}
	// Final state: row 1 = 11 (tx3's write wins, it ran later).
	rec, err := tbl.Get(1)
	if err != nil || rec[workload.ItemPriceCol].F != 11 {
		t.Fatalf("Get(1) = %v, %v", rec, err)
	}
}

func TestKSetDisjointBatchIsOneSet(t *testing.T) {
	env, tbl := load(t, 200)
	defer tbl.Free()
	before := env.GPU.Stats().KernelLaunches
	// 50 single-update transactions on distinct rows: one set, one
	// scatter kernel — GPUTx's bulk parallelism.
	for i := uint64(0); i < 50; i++ {
		tbl.Submit(TxOp{Row: i, Col: workload.ItemPriceCol, Val: schema.FloatValue(1)})
	}
	if err := tbl.ExecuteBatch(); err != nil {
		t.Fatal(err)
	}
	if tbl.KSets() != 1 {
		t.Fatalf("KSets = %d, want 1", tbl.KSets())
	}
	if launches := env.GPU.Stats().KernelLaunches - before; launches != 1 {
		t.Fatalf("launches = %d, want 1", launches)
	}
}

func TestBatchValidatesBeforeExecuting(t *testing.T) {
	_, tbl := load(t, 10)
	defer tbl.Free()
	tbl.Submit(TxOp{Row: 0, Col: workload.ItemPriceCol, Val: schema.FloatValue(1)})
	tbl.Submit(TxOp{Row: 99, Col: workload.ItemPriceCol, Val: schema.FloatValue(2)})
	if err := tbl.ExecuteBatch(); err == nil {
		t.Fatal("bad batch accepted")
	}
	// Nothing executed: row 0 unchanged.
	rec, err := tbl.Get(0)
	if err != nil || rec[workload.ItemPriceCol].F != workload.ItemPrice(0) {
		t.Fatalf("partial execution: %v, %v", rec, err)
	}
}
