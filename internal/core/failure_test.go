package core

import (
	"errors"
	"math"
	"testing"

	"hybridstore/internal/device"
	"hybridstore/internal/engine"
	"hybridstore/internal/mem"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// TestInsertSurvivesHostExhaustion: when host memory runs out mid-load,
// the insert fails cleanly and everything already stored stays readable.
func TestInsertSurvivesHostExhaustion(t *testing.T) {
	env := engine.NewEnv()
	env.Host = mem.NewAllocator(mem.Host, 64<<10) // 64 KiB host
	e := New(env, Options{ChunkRows: 128, HotChunks: 1})
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	ct := tbl.(*Table)
	defer ct.Free()

	var loaded uint64
	var failure error
	for i := uint64(0); i < 100_000; i++ {
		if _, err := ct.Insert(workload.Item(i)); err != nil {
			failure = err
			break
		}
		loaded++
	}
	if failure == nil {
		t.Fatal("64 KiB host accepted 100k inserts")
	}
	if !errors.Is(failure, mem.ErrOutOfMemory) {
		t.Fatalf("failure = %v, want ErrOutOfMemory", failure)
	}
	if loaded == 0 {
		t.Fatal("nothing loaded before exhaustion")
	}
	// Everything stored before the failure is intact.
	for _, row := range []uint64{0, loaded / 2, loaded - 1} {
		rec, err := ct.Get(row)
		if err != nil || !rec.Equal(workload.Item(row)) {
			t.Fatalf("Get(%d) after OOM = %v, %v", row, rec, err)
		}
	}
	sum, err := sumOf(ct, workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-workload.ExpectedItemPriceSum(loaded)) > 1e-6 {
		t.Fatalf("sum over survivors = %v", sum)
	}
}

// TestPlaceColumnRollsBackOnDeviceExhaustion: all-or-nothing placement —
// when the device fits some but not all chunks of a column, everything
// already moved comes back to the host.
func TestPlaceColumnRollsBackOnDeviceExhaustion(t *testing.T) {
	env := engine.NewEnv()
	prof := perfmodel.DefaultDevice()
	// Fits roughly 1.5 chunk-columns of 128 rows × 8 bytes.
	prof.GlobalMemory = 1536
	env.GPU = device.New(prof, env.Clock)
	e := New(env, Options{ChunkRows: 128, HotChunks: 1})
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	ct := tbl.(*Table)
	defer ct.Free()
	if err := workload.Generate(600, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := ct.Insert(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if ct.ColdChunks() < 3 {
		t.Fatalf("cold chunks = %d, need several", ct.ColdChunks())
	}

	err = ct.PlaceColumn(workload.ItemPriceCol)
	if !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if len(ct.DeviceColumns()) != 0 {
		t.Fatalf("failed placement left device columns: %v", ct.DeviceColumns())
	}
	// The rollback returned every fragment to the host...
	for _, f := range ct.Snapshot().Layouts[1].Fragments {
		if f.Space == mem.Device {
			t.Fatalf("fragment stranded on device: %+v", f)
		}
	}
	// ...freed the device memory entirely...
	if used := env.GPU.Allocator().Used(); used != 0 {
		t.Fatalf("device memory leaked: %d bytes", used)
	}
	// ...and the data still answers.
	sum, err := sumOf(ct, workload.ItemPriceCol)
	if err != nil || math.Abs(sum-workload.ExpectedItemPriceSum(600)) > 1e-6 {
		t.Fatalf("sum after rollback = %v, %v", sum, err)
	}
}

// TestAdaptToleratesDeviceExhaustion: the advisor treats device OOM as a
// fallback condition, not an error.
func TestAdaptToleratesDeviceExhaustion(t *testing.T) {
	env := engine.NewEnv()
	prof := perfmodel.DefaultDevice()
	prof.GlobalMemory = 256
	env.GPU = device.New(prof, env.Clock)
	e := New(env, Options{ChunkRows: 16384, HotChunks: 1})
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	ct := tbl.(*Table)
	defer ct.Free()
	if err := workload.Generate(50_000, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := ct.Insert(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ct.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{workload.ItemPriceCol}})
	}
	if _, err := ct.Adapt(); err != nil {
		t.Fatalf("Adapt errored on device exhaustion: %v", err)
	}
	if len(ct.DeviceColumns()) != 0 {
		t.Fatal("column placed on an exhausted device")
	}
}

// TestFreezeKeepsPlacementWhole: a placed column extends to each chunk
// a freeze makes cold until the card fills; then the whole column goes
// back to the host, so every cold chunk's thin price fragment lives
// where DeviceColumns says the column does — never split.
func TestFreezeKeepsPlacementWhole(t *testing.T) {
	env := engine.NewEnv()
	prof := perfmodel.DefaultDevice()
	prof.GlobalMemory = 3 * 128 * 8 // three chunks' price fragments
	env.GPU = device.New(prof, env.Clock)
	e := New(env, Options{ChunkRows: 128, HotChunks: 1})
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	ct := tbl.(*Table)
	defer ct.Free()
	if err := ct.PlaceColumn(workload.ItemPriceCol); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1024; i++ {
		if _, err := ct.Insert(workload.Item(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	placed := len(ct.DeviceColumns()) > 0
	colds := 0
	for _, c := range ct.chunks {
		if c.state != cold {
			continue
		}
		colds++
		_, f := ct.thinFragment(c, workload.ItemPriceCol)
		if f == nil {
			t.Fatalf("chunk at row %d has no thin price fragment", c.rows.Begin)
		}
		if onDevice := f.Space() == mem.Device; onDevice != placed {
			t.Fatalf("chunk at row %d: price fragment on device = %t, DeviceColumns() = %v",
				c.rows.Begin, onDevice, ct.DeviceColumns())
		}
	}
	if colds != 7 || placed {
		t.Fatalf("%d cold chunks, placed = %t; want 7 and the column back on the host", colds, placed)
	}
	sum, err := sumOf(ct, workload.ItemPriceCol)
	if err != nil || math.Abs(sum-workload.ExpectedItemPriceSum(1024)) > 1e-6 {
		t.Fatalf("sum = %v, %v", sum, err)
	}
}

// TestFreezeSurvivesUnderMemoryPressure: freezing needs transient memory
// for the cold fragments; when that allocation fails the hot chunk stays
// usable.
func TestFreezeUnderMemoryPressure(t *testing.T) {
	env := engine.NewEnv()
	// Enough for a couple of chunks but not unlimited.
	env.Host = mem.NewAllocator(mem.Host, 24<<10)
	e := New(env, Options{ChunkRows: 128, HotChunks: 1})
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	ct := tbl.(*Table)
	defer ct.Free()
	var loaded uint64
	for i := uint64(0); i < 10_000; i++ {
		if _, err := ct.Insert(workload.Item(i)); err != nil {
			break
		}
		loaded++
	}
	// Whatever made it in is consistent.
	for row := uint64(0); row < loaded; row += 97 {
		rec, err := ct.Get(row)
		if err != nil || !rec.Equal(workload.Item(row)) {
			t.Fatalf("Get(%d) = %v, %v", row, rec, err)
		}
	}
}
