package all

import (
	"errors"
	"math"
	"testing"

	"hybridstore/internal/core"
	"hybridstore/internal/device"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/mem"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// TestHostExhaustionFailsCleanly loads every host-based engine against a
// tiny host allocator: the failing insert must surface ErrOutOfMemory and
// everything stored before the failure must stay readable and aggregable.
func TestHostExhaustionFailsCleanly(t *testing.T) {
	for _, name := range []string{
		"PAX", "Fractured Mirrors", "HYRISE", "H2O", "HyPer", "CoGaDB", "L-Store", "Peloton",
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			env := engine.NewEnv()
			env.Host = mem.NewAllocator(mem.Host, 48<<10) // 48 KiB
			e := ByName(env, name)
			tbl, err := e.Create("item", workload.ItemSchema())
			if err != nil {
				// Some engines pre-allocate more than the budget; that is
				// itself a clean failure.
				if errors.Is(err, mem.ErrOutOfMemory) {
					return
				}
				t.Fatalf("Create: %v", err)
			}
			defer tbl.Free()

			var loaded uint64
			var failure error
			for i := uint64(0); i < 50_000; i++ {
				if _, err := tbl.Insert(workload.Item(i)); err != nil {
					failure = err
					break
				}
				loaded++
			}
			if failure == nil {
				t.Fatalf("48 KiB host accepted 50k inserts (%d loaded)", loaded)
			}
			if !errors.Is(failure, mem.ErrOutOfMemory) {
				t.Fatalf("failure = %v, want ErrOutOfMemory", failure)
			}
			if loaded == 0 {
				t.Skip("engine failed on first insert; nothing to check")
			}
			// Survivors are intact. Engines that report the row as
			// inserted only after full success must still answer for all
			// acknowledged rows.
			for _, row := range []uint64{0, loaded / 2, loaded - 1} {
				rec, err := tbl.Get(row)
				if err != nil {
					t.Fatalf("Get(%d) after OOM: %v", row, err)
				}
				if rec[0].I != int64(row) {
					t.Fatalf("Get(%d) id = %d", row, rec[0].I)
				}
			}
		})
	}
}

// TestDeviceExhaustionGPUTx: the device-only engine must fail cleanly
// when the card fills up.
func TestDeviceExhaustionGPUTx(t *testing.T) {
	env := engine.NewEnv()
	prof := perfmodel.DefaultDevice()
	prof.GlobalMemory = 16 << 10 // 16 KiB card
	env.GPU = device.New(prof, env.Clock)
	e := ByName(env, "GPUTx")
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		if errors.Is(err, mem.ErrOutOfMemory) {
			return
		}
		t.Fatal(err)
	}
	defer tbl.Free()
	var loaded uint64
	var failure error
	for i := uint64(0); i < 10_000; i++ {
		if _, err := tbl.Insert(workload.Item(i)); err != nil {
			failure = err
			break
		}
		loaded++
	}
	if !errors.Is(failure, mem.ErrOutOfMemory) {
		t.Fatalf("failure = %v (loaded %d), want ErrOutOfMemory", failure, loaded)
	}
	if loaded > 0 {
		rec, err := tbl.Get(0)
		if err != nil || !rec.Equal(workload.Item(0)) {
			t.Fatalf("survivor Get = %v, %v", rec, err)
		}
	}
}

// TestAggregateConsistencyAfterPartialLoad cross-checks that a partially
// loaded table's aggregate equals the closed form for exactly the
// acknowledged rows (no phantom or missing tuplets) on a mid-sized
// budget.
func TestAggregateConsistencyAfterPartialLoad(t *testing.T) {
	for _, name := range []string{"PAX", "HYRISE", "HyPer", "L-Store", "Peloton"} {
		name := name
		t.Run(name, func(t *testing.T) {
			env := engine.NewEnv()
			env.Host = mem.NewAllocator(mem.Host, 192<<10)
			e := ByName(env, name)
			tbl, err := e.Create("item", workload.ItemSchema())
			if err != nil {
				t.Skipf("Create under budget: %v", err)
			}
			defer tbl.Free()
			var loaded uint64
			for i := uint64(0); i < 100_000; i++ {
				if _, err := tbl.Insert(workload.Item(i)); err != nil {
					break
				}
				loaded++
			}
			if loaded == 0 {
				t.Skip("nothing loaded")
			}
			if got := tbl.Rows(); got != loaded {
				t.Fatalf("Rows = %d, acknowledged %d", got, loaded)
			}
			res, err := tbl.Scan(exec.Plan{Op: exec.KindSum, Col: workload.ItemPriceCol})
			sum := res.Sum
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sum-workload.ExpectedItemPriceSum(loaded)) > 1e-6 {
				t.Fatalf("sum = %v, want %v for %d rows", sum, workload.ExpectedItemPriceSum(loaded), loaded)
			}
		})
	}
}

// TestEnginesRejectMalformedRecords: a rejected insert — wrong kind,
// wrong arity, or a primary key an engine with a pk index already holds
// — must leave no trace. After each one, the next good insert lands at
// the model's row count and every row reads back, and the price column
// sums, exactly as a slice of the acknowledged records says.
func TestEnginesRejectMalformedRecords(t *testing.T) {
	env := engine.NewEnv()
	for _, e := range append(Engines(env), core.New(env, core.Options{ChunkRows: 128})) {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			tbl := loadItems(t, e, 10)
			defer tbl.Free()
			var model []schema.Record
			for i := uint64(0); i < 10; i++ {
				model = append(model, workload.Item(i))
			}
			wrongKind := workload.Item(100)
			wrongKind[workload.ItemPriceCol] = schema.IntValue(5)
			for step, bad := range []schema.Record{wrongKind, workload.Item(101)[:3], workload.Item(1)} {
				if _, err := tbl.Insert(bad); err == nil {
					if step < 2 {
						t.Fatalf("step %d: malformed record accepted", step)
					}
					model = append(model, bad) // no pk index: a duplicate id is just a row
				}
				good := workload.Item(uint64(10 + step))
				row, err := tbl.Insert(good)
				if err != nil || row != uint64(len(model)) {
					t.Fatalf("step %d: good insert = row %d, %v; want row %d", step, row, err, len(model))
				}
				model = append(model, good)
				if got := tbl.Rows(); got != uint64(len(model)) {
					t.Fatalf("step %d: Rows = %d, want %d", step, got, len(model))
				}
				var want float64
				for i, rec := range model {
					if got, err := tbl.Get(uint64(i)); err != nil || !got.Equal(rec) {
						t.Fatalf("step %d: Get(%d) = %v, %v; want %v", step, i, got, err, rec)
					}
					want += rec[workload.ItemPriceCol].F
				}
				res, err := tbl.Scan(exec.Plan{Op: exec.KindSum, Col: workload.ItemPriceCol})
				sum := res.Sum
				if err != nil || math.Abs(sum-want) > 1e-9 {
					t.Fatalf("step %d: sum = %v, %v; want %v", step, sum, err, want)
				}
			}
		})
	}
}

// TestEnginesRejectMalformedUpdates: a rejected update — a row past the
// table, a wrong-kind value, an over-width CHAR, an INT32 outside the
// int32 range — must leave no trace. After each one, the next good
// update lands, Merge succeeds where the engine has one, and every row
// reads back as a slice of the acknowledged records says.
func TestEnginesRejectMalformedUpdates(t *testing.T) {
	env := engine.NewEnv()
	for _, e := range append(Engines(env), core.New(env, core.Options{ChunkRows: 128})) {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			tbl := loadItems(t, e, 10)
			defer tbl.Free()
			var model []schema.Record
			for i := uint64(0); i < 10; i++ {
				model = append(model, workload.Item(i))
			}
			for step, bad := range []struct {
				row uint64
				col int
				v   schema.Value
			}{
				{10, workload.ItemPriceCol, schema.FloatValue(1)},
				{3, workload.ItemPriceCol, schema.IntValue(5)},
				{3, 2, schema.CharValue("elevenbytes")}, // i_name CHAR(6)
				{3, 1, schema.Value{Kind: schema.Int32, I: 1<<32 + 7}},
			} {
				if err := tbl.Update(bad.row, bad.col, bad.v); err == nil {
					t.Fatalf("step %d: update of row %d col %d to %v accepted", step, bad.row, bad.col, bad.v)
				}
				good := schema.FloatValue(float64(100 + step))
				if err := tbl.Update(uint64(step), workload.ItemPriceCol, good); err != nil {
					t.Fatalf("step %d: good update: %v", step, err)
				}
				model[step][workload.ItemPriceCol] = good
				if m, ok := tbl.(interface{ Merge() error }); ok {
					if err := m.Merge(); err != nil {
						t.Fatalf("step %d: Merge: %v", step, err)
					}
				}
				for i, rec := range model {
					if got, err := tbl.Get(uint64(i)); err != nil || !got.Equal(rec) {
						t.Fatalf("step %d: Get(%d) = %v, %v; want %v", step, i, got, err, rec)
					}
				}
			}
		})
	}
}
