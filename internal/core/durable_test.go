package core

import (
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"hybridstore/internal/compress"
	"hybridstore/internal/device"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
	"hybridstore/internal/wal"
	"hybridstore/internal/workload"
)

// TestPruneRespectsPinnedSnapshot is the regression for the
// checkpoint/prune interaction: while a checkpoint holds its reader's
// snapshot, Merge (which folds settled versions into the base and
// prunes their deltas) must not fold a version the pin cannot see —
// and folding the ones it can see must leave the visible-at-pin state
// reconstructible from base + remaining deltas.
func TestPruneRespectsPinnedSnapshot(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 1}, 300)
	defer tbl.Free()
	if _, err := tbl.Adapt(); err != nil {
		t.Fatal(err)
	}
	const row = 7
	if err := tbl.Update(row, workload.ItemPriceCol, schema.FloatValue(111)); err != nil {
		t.Fatal(err)
	}

	pin := tbl.deltas.Begin() // what CheckpointTo holds
	defer pin.Abort()

	// A commit the pin must never see.
	if err := tbl.Update(row, workload.ItemPriceCol, schema.FloatValue(222)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}

	// The state visible at the pinned timestamp is still 111: either the
	// delta survived pruning, or Merge folded it into the base — never
	// the newer 222.
	if rec, err := tbl.recordAt(pin, row); err != nil || rec[workload.ItemPriceCol].F != 111 {
		t.Fatalf("visible at pinned ts: %v, %v, want 111", rec, err)
	}
	// The latest snapshot reads the newer commit.
	rec, err := tbl.Get(row)
	if err != nil {
		t.Fatal(err)
	}
	if rec[workload.ItemPriceCol].F != 222 {
		t.Fatalf("latest read %v, want 222", rec[workload.ItemPriceCol].F)
	}

	// Once the pin drops, Merge may fold everything; latest stays 222.
	pin.Abort()
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	rec, err = tbl.Get(row)
	if err != nil {
		t.Fatal(err)
	}
	if rec[workload.ItemPriceCol].F != 222 {
		t.Fatalf("after release, latest read %v, want 222", rec[workload.ItemPriceCol].F)
	}
}

// TestCheckpointUnderConcurrentWrites cuts checkpoint images while
// writers hammer the table, restoring each image into a fresh engine
// and checking it is internally consistent — the pinned snapshot must
// make every image a valid database state, whatever the interleaving.
func TestCheckpointUnderConcurrentWrites(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 64, HotChunks: 1, Compress: true}, 200)
	defer tbl.Free()
	if _, err := tbl.Adapt(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(200); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tbl.Insert(workload.Item(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := tbl.Update(i%200, workload.ItemPriceCol, schema.FloatValue(float64(i))); err != nil {
				t.Error(err)
				return
			}
			if i%37 == 0 {
				if err := tbl.Merge(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	for round := 0; round < 5; round++ {
		enc := &wal.Encoder{}
		_, ckptRows, err := tbl.CheckpointTo(enc)
		if err != nil {
			t.Fatal(err)
		}
		if ckptRows < 200 {
			t.Fatalf("round %d: ckptRows=%d, want >= 200", round, ckptRows)
		}
		re := New(engine.NewEnv(), Options{ChunkRows: 64, HotChunks: 1, Compress: true})
		rt, err := re.RestoreTable("item", workload.ItemSchema(), wal.NewDecoder(enc.Bytes()))
		if err != nil {
			t.Fatalf("round %d: restore: %v", round, err)
		}
		if rt.Rows() != ckptRows {
			t.Fatalf("round %d: restored %d rows, want %d", round, rt.Rows(), ckptRows)
		}
		for _, row := range []uint64{0, 63, 64, ckptRows - 1} {
			rec, err := rt.Get(row)
			if err != nil {
				t.Fatalf("round %d: Get(%d): %v", round, row, err)
			}
			if rec[0].I != int64(row) {
				t.Fatalf("round %d: row %d has pk %d", round, row, rec[0].I)
			}
			if pkRow, ok := rt.LookupPK(int64(row)); !ok || pkRow != row {
				t.Fatalf("round %d: pk %d resolves to (%d,%v)", round, row, pkRow, ok)
			}
		}
		rt.Free()
	}
	close(stop)
	wg.Wait()
}

// A checkpointed delta keeps the byte that once flagged a deletion, as a
// reserved zero: the image restores, and the same image with that byte
// set — the file checksum would pass, it was written that way — is
// corruption, not a row to drop.
func TestCheckpointDeltaReservedByte(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 64, HotChunks: 1}, 100)
	defer tbl.Free()
	if err := tbl.Update(9, workload.ItemPriceCol, schema.FloatValue(4.5)); err != nil {
		t.Fatal(err)
	}
	var enc, rec wal.Encoder
	if _, _, err := tbl.CheckpointTo(&enc); err != nil {
		t.Fatal(err)
	}
	want, err := tbl.Get(9)
	if err != nil {
		t.Fatal(err)
	}
	// The image ends: … row, ts, the byte, the record, an empty manifest.
	rec.Record(want)
	img := enc.Bytes()
	flag := len(img) - 4 - len(rec.Bytes()) - 1
	restore := func() (*Table, error) {
		return New(engine.NewEnv(), Options{ChunkRows: 64, HotChunks: 1}).
			RestoreTable("item", workload.ItemSchema(), wal.NewDecoder(img))
	}
	rt, err := restore()
	if err != nil || img[flag] != 0 {
		t.Fatalf("restore: %v (byte at %d is %d)", err, flag, img[flag])
	}
	defer rt.Free()
	if got, err := rt.Get(9); err != nil || !got.Equal(want) {
		t.Fatalf("restored row 9 = %v, %v, want %v", got, err, want)
	}
	img[flag] = 1
	if _, err := restore(); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("restore of a set reserved byte: %v, want ErrCorrupt", err)
	}
}

// TestCheckpointToGrowsOnce: CheckpointTo sizes its encoder once, from
// the fragments and side-cars it is about to write, so the image never
// regrows — a regrowth would leave at least a quarter of the buffer
// unused and, at checkpoint scale, allocate the image twice. The table
// carries every section the bound counts: cold chunks with side-cars,
// a hot chunk, deltas with character values, and a warm manifest.
func TestCheckpointToGrowsOnce(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 1024, HotChunks: 1, Compress: true, DeviceCache: true}, 8000)
	defer tbl.Free()
	if _, err := tbl.Adapt(); err != nil {
		t.Fatal(err)
	}
	for row := uint64(0); row < 8000; row += 7 {
		if err := tbl.Update(row, 2, schema.CharValue("name")); err != nil {
			t.Fatal(err)
		}
	}
	for _, warm := range []bool{false, true} {
		if warm {
			if _, err := tbl.SumFloat64(workload.ItemPriceCol); err != nil {
				t.Fatal(err)
			}
		}
		var enc wal.Encoder
		if _, _, err := tbl.CheckpointTo(&enc); err != nil {
			t.Fatal(err)
		}
		if img := enc.Bytes(); cap(img) > len(img)*9/8 {
			t.Fatalf("warm %v: a %d-byte image in a %d-byte buffer: the encoder regrew", warm, len(img), cap(img))
		}
	}
}

// A checkpoint image is untrusted bytes — the snapshot file's checksum
// guards only against random damage — so every count in it is checked
// against what the image can carry before anything is sized by it. The
// first leg is a 45-byte section whose 0xFFFFFFF0 column groups once
// asked the runtime for ~96 GiB: a fatal error, which no recover
// catches.
func TestRestoreRefusesWhatTheImageCannotCarry(t *testing.T) {
	// head is a section's checkpoint timestamp, row count and chunk count.
	head := func(e *wal.Encoder, rows uint64, chunks uint32) {
		e.U64(1)
		e.U64(rows)
		e.U32(chunks)
	}
	// chunkHead is one chunk's state byte and row range.
	chunkHead := func(e *wal.Encoder, state uint8, begin, end uint64) {
		e.U8(state)
		e.U64(begin)
		e.U64(end)
	}
	cases := []struct {
		name  string
		build func(e *wal.Encoder)
	}{
		{"group count", func(e *wal.Encoder) {
			head(e, 0, 1)
			chunkHead(e, uint8(cold), 0, 1024)
			e.U32(0xFFFFFFF0)
			e.U32(1)
		}},
		{"group length", func(e *wal.Encoder) {
			head(e, 0, 1)
			chunkHead(e, uint8(cold), 0, 1024)
			e.U32(1)
			e.U32(0xFFFFFFF0)
		}},
		{"chunk state", func(e *wal.Encoder) {
			head(e, 0, 1)
			chunkHead(e, 7, 0, 1024)
		}},
		{"row range beyond its blob", func(e *wal.Encoder) {
			head(e, 0, 1)
			chunkHead(e, uint8(hot), 0, 1<<40)
			e.U8(uint8(layout.NSM))
			e.U32(0)
			e.Blob(nil)
			e.U32(0)
		}},
		{"manifest count", func(e *wal.Encoder) {
			head(e, 0, 0)
			e.U32(0)          // deltas
			e.U32(0xFFFFFFF0) // resident columns
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var e wal.Encoder
			c.build(&e)
			_, err := New(engine.NewEnv(), Options{}).RestoreTable("item", workload.ItemSchema(), wal.NewDecoder(e.Bytes()))
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("restore of %d bytes: %v, want ErrCorrupt", len(e.Bytes()), err)
			}
		})
	}
}

// An image written before Raw side-cars were dropped carries one per
// cold price column, and a device-cache manifest entry for the price
// column's compressed format. Restoring it validates each Raw side-car
// and drops it, answers bit for bit as the table that wrote it, and
// still restarts warm: the manifest entry primes the column's raw
// images, so the first scan misses no image.
func TestRestoreDropsRawSideCarsAndPrimesWarm(t *testing.T) {
	opts := Options{ChunkRows: 1024, HotChunks: 1, Compress: true, DeviceCache: true}
	_, tbl := newTable(t, opts, 4096+100)
	defer tbl.Free()
	if n := plantRawSideCars(t, tbl, workload.ItemPriceCol); n != 4 {
		t.Fatalf("%d Raw side-cars planted, want one per cold chunk (4)", n)
	}
	plans := []exec.Plan{
		{Op: exec.KindSum, Col: workload.ItemPriceCol},
		{Op: exec.KindSumWhere, Col: workload.ItemPriceCol, Pred: exec.Between(10, 60)},
		{Op: exec.KindGroupSumWhere, KeyCol: 1, Col: workload.ItemPriceCol, Pred: exec.Between(10, 60)},
	}
	answers := func(tbl *Table) []exec.Result {
		t.Helper()
		out := make([]exec.Result, len(plans))
		for i, p := range plans {
			var err error
			if out[i], err = tbl.Scan(p); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	want := answers(tbl) // warms the cache with the Raw images
	if m := tbl.env.Cache.ResidentColumns(tbl.rel.Name()); !slices.Contains(m, device.ResidentCol{Col: workload.ItemPriceCol, Comp: true}) {
		t.Fatalf("manifest %v lacks the price column's compressed format", m)
	}
	var enc wal.Encoder
	if _, _, err := tbl.CheckpointTo(&enc); err != nil {
		t.Fatal(err)
	}

	e := New(engine.NewEnv(), opts)
	rt, err := e.RestoreTable("item", workload.ItemSchema(), wal.NewDecoder(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Free()
	for _, c := range rt.chunks {
		if c.state == cold && (c.comp == nil || c.comp[workload.ItemIDCol] == nil || c.comp[workload.ItemPriceCol] != nil) {
			t.Fatalf("restored chunk %v side-cars %v: want the id's and no price copy", c.rows, c.comp)
		}
	}
	before := rt.env.Cache.Stats()
	got := answers(rt)
	if after := rt.env.Cache.Stats(); after.Misses != before.Misses || after.Hits == before.Hits {
		t.Fatalf("first scans after restore: %d misses, %d hits; want every image primed", after.Misses-before.Misses, after.Hits-before.Hits)
	}
	for i, p := range plans {
		g, w := got[i], want[i]
		same := math.Float64bits(g.Sum) == math.Float64bits(w.Sum) && g.Count == w.Count && len(g.Groups) == len(w.Groups)
		for j := 0; same && j < len(g.Groups); j++ {
			same = g.Groups[j].Key == w.Groups[j].Key && g.Groups[j].Count == w.Groups[j].Count &&
				math.Float64bits(g.Groups[j].Sum) == math.Float64bits(w.Groups[j].Sum)
		}
		if !same {
			t.Errorf("%s: restored %+v, the writer answered %+v", p.Op, g, w)
		}
	}
}

// plantRawSideCars gives every cold chunk whose col is a thin fragment
// the Raw side-car a seal once kept, returning how many it planted.
func plantRawSideCars(tb testing.TB, tbl *Table, col int) int {
	n := 0
	for _, c := range tbl.chunks {
		_, f := tbl.thinFragment(c, col)
		if c.state != cold || f == nil {
			continue
		}
		cv, err := f.ColVector(col)
		if err != nil {
			tb.Fatal(err)
		}
		raw, err := compress.CompressAs(compress.Raw, cv.Data[cv.Base:cv.Base+cv.Len*8], cv.Len, 8)
		if err != nil {
			tb.Fatal(err)
		}
		if c.comp == nil {
			c.comp = make([]*compress.Column, tbl.s.Arity())
		}
		c.comp[col] = raw
		n++
	}
	return n
}
