package core

import (
	"errors"
	"sync"
	"testing"

	"hybridstore/internal/engine"
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
