package gputx

import (
	"errors"
	"math"
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
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

func TestDeviceReductionSum(t *testing.T) {
	env, tbl := load(t, 2000)
	defer tbl.Free()
	before := env.GPU.Stats().KernelLaunches
	res, err := tbl.Scan(exec.Plan{Op: exec.KindSum, Col: workload.ItemPriceCol})
	sum := res.Sum
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-workload.ExpectedItemPriceSum(2000)) > 1e-6 {
		t.Fatalf("sum = %v", sum)
	}
	if env.GPU.Stats().KernelLaunches <= before {
		t.Fatal("sum did not launch kernels")
	}
	if _, err := tbl.Scan(exec.Plan{Op: exec.KindSum, Col: 99}); err == nil {
		t.Fatal("bad column accepted")
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

// TestUpdateSingleOpBatch: one update is one scatter kernel, it bumps
// the column's version so cached device images stop validating, and its
// value is what the next read sees.
func TestUpdateSingleOpBatch(t *testing.T) {
	env, tbl := load(t, 20)
	defer tbl.Free()
	before, version := env.GPU.Stats().KernelLaunches, tbl.cols[workload.ItemPriceCol].Version()
	if err := tbl.Update(3, workload.ItemPriceCol, schema.FloatValue(77)); err != nil {
		t.Fatal(err)
	}
	if launches := env.GPU.Stats().KernelLaunches - before; launches != 1 {
		t.Fatalf("launches = %d, want 1 scatter", launches)
	}
	if tbl.cols[workload.ItemPriceCol].Version() == version {
		t.Fatal("update left the column version unchanged")
	}
	rec, err := tbl.Get(3)
	if err != nil || rec[workload.ItemPriceCol].F != 77 {
		t.Fatalf("Get = %v, %v", rec, err)
	}
	if err := tbl.Update(0, 99, schema.IntValue(0)); err == nil {
		t.Fatal("bad column accepted")
	}
}

// TestBatchRejectsBadRow: an update of a row past the table is refused
// and launches nothing.
func TestBatchRejectsBadRow(t *testing.T) {
	env, tbl := load(t, 10)
	defer tbl.Free()
	before := env.GPU.Stats().KernelLaunches
	if err := tbl.Update(10, workload.ItemPriceCol, schema.FloatValue(1)); !errors.Is(err, engine.ErrNoSuchRow) {
		t.Fatalf("out-of-range update: err = %v, want ErrNoSuchRow", err)
	}
	if env.GPU.Stats().KernelLaunches != before {
		t.Fatal("a refused update launched a kernel")
	}
}

// TestBatchValidatesBeforeExecuting: an update whose value its column
// cannot hold is refused before anything runs — the table is unchanged
// and the next good update lands.
func TestBatchValidatesBeforeExecuting(t *testing.T) {
	_, tbl := load(t, 10)
	defer tbl.Free()
	for _, bad := range []struct {
		col int
		v   schema.Value
	}{
		{workload.ItemPriceCol, schema.IntValue(1)}, // wrong kind
		{2, schema.CharValue("elevenbytes")},        // i_name CHAR(6)
		{1, schema.Value{Kind: schema.Int32, I: 1<<32 + 7}},
	} {
		if err := tbl.Update(0, bad.col, bad.v); err == nil {
			t.Fatalf("update of col %d to %v accepted", bad.col, bad.v)
		}
		if rec, err := tbl.Get(0); err != nil || !rec.Equal(workload.Item(0)) {
			t.Fatalf("refused update changed row 0: %v, %v", rec, err)
		}
	}
	if err := tbl.Update(0, workload.ItemPriceCol, schema.FloatValue(2)); err != nil {
		t.Fatal(err)
	}
	if rec, err := tbl.Get(0); err != nil || rec[workload.ItemPriceCol].F != 2 {
		t.Fatalf("good update after refused ones: %v, %v", rec, err)
	}
}
