package core

import (
	"runtime"
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/schema"
	"hybridstore/internal/wal"
	"hybridstore/internal/workload"
)

// fuzzOpts restore every section the seeds carry: compressed side-cars
// and a device-cache manifest as well as hot and cold chunks and deltas.
var fuzzOpts = Options{ChunkRows: 16, HotChunks: 1, Compress: true, DeviceCache: true}

// checkpointImage is a real CheckpointTo section of a table under
// fuzzOpts: cold chunks with side-cars, some regrouped, a partly filled
// hot chunk, live deltas, and, when warm, the manifest of the device
// cache a scan filled. With legacy, the thin price columns carry the Raw
// side-cars older images hold.
func checkpointImage(tb testing.TB, rows uint64, warm, legacy bool) []byte {
	e := New(engine.NewEnv(), fuzzOpts)
	et, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		tb.Fatal(err)
	}
	tbl := et.(*Table)
	defer tbl.Free()
	for i := uint64(0); i < rows; i++ {
		if i == rows/2 {
			// Chunks frozen so far are regrouped; later ones freeze thin.
			for k := 0; k < 50; k++ {
				tbl.Observe(workload.Op{Kind: workload.PointRead, Cols: []int{0, 1, 2}})
			}
			if _, err := tbl.Adapt(); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := tbl.Insert(workload.Item(i)); err != nil {
			tb.Fatal(err)
		}
	}
	for row := uint64(0); row < rows; row += 7 {
		if err := tbl.Update(row, workload.ItemPriceCol, schema.FloatValue(float64(row%13)+0.5)); err != nil {
			tb.Fatal(err)
		}
	}
	if legacy {
		plantRawSideCars(tb, tbl, workload.ItemPriceCol)
	}
	if warm {
		if _, err := tbl.SumFloat64(workload.ItemPriceCol); err != nil {
			tb.Fatal(err)
		}
	}
	var enc wal.Encoder
	if _, _, err := tbl.CheckpointTo(&enc); err != nil {
		tb.Fatal(err)
	}
	return enc.Bytes()
}

// FuzzRestoreTable feeds RestoreTable — what a snapshot file's table
// section reaches once its checksum passes, and a checksum only guards
// against random damage — arbitrary bytes. It must never panic, and
// never allocate more than a constant plus a multiple of the bytes it
// was handed: every count is checked against what the image can carry
// before anything is sized by it. What it accepts is a table that
// answers its row count, a get of every row and a column sum without
// error.
func FuzzRestoreTable(f *testing.F) {
	for _, img := range [][]byte{checkpointImage(f, 40, false, false), checkpointImage(f, 56, true, false), checkpointImage(f, 56, true, true)} {
		f.Add(img)
		f.Add(img[:len(img)/2]) // truncated
	}
	var oversized wal.Encoder // TestRestoreRefusesWhatTheImageCannotCarry's first leg
	oversized.U64(1)
	oversized.U64(0)
	oversized.U32(1)
	oversized.U8(uint8(cold))
	oversized.U64(0)
	oversized.U64(1024)
	oversized.U32(0xFFFFFFF0)
	oversized.U32(1)
	f.Add(oversized.Bytes())

	f.Fuzz(func(t *testing.T, img []byte) {
		e := New(engine.NewEnv(), fuzzOpts)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tbl, err := e.RestoreTable("item", workload.ItemSchema(), wal.NewDecoder(img))
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(img)); grew > bound {
			t.Fatalf("restoring %d bytes allocated %d, bound %d", len(img), grew, bound)
		}
		if err != nil {
			return
		}
		defer tbl.Free()
		rows := tbl.Rows()
		for row := uint64(0); row < rows; row++ {
			if _, err := tbl.Get(row); err != nil {
				t.Fatalf("Get(%d) of %d restored rows: %v", row, rows, err)
			}
		}
		if _, err := tbl.SumFloat64(workload.ItemPriceCol); err != nil {
			t.Fatalf("sum over %d restored rows: %v", rows, err)
		}
	})
}
