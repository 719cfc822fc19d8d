package hybridstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hybridstore/internal/obs"
	"hybridstore/internal/wal"
)

func durableSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Int64Attr("id"),
		CharAttr("name", 8),
		Float64Attr("balance"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkAccounts asserts the table holds rows records with balance
// row*10, except rows listed in patched which hold the patched value.
func checkAccounts(t *testing.T, tbl *Table, rows uint64, patched map[uint64]float64) {
	t.Helper()
	if tbl.Rows() != rows {
		t.Fatalf("rows = %d, want %d", tbl.Rows(), rows)
	}
	var want float64
	for i := uint64(0); i < rows; i++ {
		if v, ok := patched[i]; ok {
			want += v
		} else {
			want += float64(i) * 10
		}
	}
	sum, err := sumOf(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
	for i := uint64(0); i < rows; i += 97 {
		rec, err := tbl.GetByPK(int64(i))
		if err != nil {
			t.Fatalf("pk %d: %v", i, err)
		}
		want := float64(i) * 10
		if v, ok := patched[i]; ok {
			want = v
		}
		if rec[2].F != want {
			t.Fatalf("pk %d balance = %v, want %v", i, rec[2].F, want)
		}
	}
}

// TestDurableRoundTrip closes a durable DB and reopens it: every
// acknowledged insert, update and transactional commit must be there.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ChunkRows: 64, HotChunks: 1}

	db, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("accounts", durableSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := tbl.Insert(Record{
			IntValue(int64(i)), CharValue("acct"), FloatValue(float64(i) * 10),
		}); err != nil {
			t.Fatal(err)
		}
	}
	patched := map[uint64]float64{}
	for i := uint64(0); i < 300; i += 10 {
		if err := tbl.Update(i, 2, FloatValue(-1)); err != nil {
			t.Fatal(err)
		}
		patched[i] = -1
	}
	// A multi-operation transaction on top.
	x := tbl.Begin()
	if err := x.Update(5, 2, FloatValue(555)); err != nil {
		t.Fatal(err)
	}
	if err := x.Update(7, 2, FloatValue(777)); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	patched[5], patched[7] = 555, 777
	checkAccounts(t, tbl, 300, patched)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rt := re.Table("accounts")
	if rt == nil {
		t.Fatal("accounts not recovered")
	}
	checkAccounts(t, rt, 300, patched)
	// The recovered DB keeps working and stays durable.
	if _, err := rt.Insert(Record{IntValue(300), CharValue("acct"), FloatValue(3000)}); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	checkAccounts(t, re2.Table("accounts"), 301, patched)
}

// TestCreateTableDuplicate pins that a name already in use is refused
// before anything is created or logged: the first table keeps taking
// writes and the directory reopens with exactly them. (A second create
// used to orphan the first handle and log a second create record; both
// handles' inserts then replayed into one table and the next OpenDir
// failed with "wal replay diverged".)
func TestCreateTableDuplicate(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ChunkRows: 64, HotChunks: 1}
	db, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	first, err := db.CreateTable("accounts", durableSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	insert := func(i int) {
		t.Helper()
		if _, err := first.Insert(Record{IntValue(int64(i)), CharValue("acct"), FloatValue(float64(i) * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	insert(0)
	if dup, err := db.CreateTable("accounts", durableSchema(t)); !errors.Is(err, ErrTableExists) || dup != nil {
		t.Fatalf("duplicate CreateTable = %v, %v; want ErrTableExists", dup, err)
	}
	if db.Table("accounts") != first {
		t.Fatal("duplicate CreateTable replaced the registered table")
	}
	insert(1)
	insert(2)
	checkAccounts(t, first, 3, nil)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatalf("reopen after a refused duplicate create: %v", err)
	}
	defer re.Close()
	checkAccounts(t, re.Table("accounts"), 3, nil)
}

// TestDurableCheckpoint verifies checkpoint + truncation: recovery
// restores the image, replays only the records past it, and a crash
// between image publication and log truncation (simulated by
// checkpointing without compaction being interrupted — the image
// covers records still in the log) stays consistent.
func TestDurableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ChunkRows: 64, HotChunks: 1, Compress: true}

	db, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("accounts", durableSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if _, err := tbl.Insert(Record{
			IntValue(int64(i)), CharValue("acct"), FloatValue(float64(i) * 10),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Adapt(); err != nil {
		t.Fatal(err)
	}
	patched := map[uint64]float64{}
	for i := uint64(0); i < 256; i += 16 {
		if err := tbl.Update(i, 2, FloatValue(float64(i))); err != nil {
			t.Fatal(err)
		}
		patched[i] = float64(i)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes live only in the truncated log.
	for i := 256; i < 320; i++ {
		if _, err := tbl.Insert(Record{
			IntValue(int64(i)), CharValue("acct"), FloatValue(float64(i) * 10),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Update(300, 2, FloatValue(9)); err != nil {
		t.Fatal(err)
	}
	patched[300] = 9
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkAccounts(t, re.Table("accounts"), 320, patched)
}

// TestCheckpointAfterRejectedUpdate: an update its column cannot hold —
// autocommit or inside a transaction — is refused before it is buffered,
// so the next Merge and Checkpoint succeed and the store reopens with
// exactly the acknowledged writes.
func TestCheckpointAfterRejectedUpdate(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, Options{ChunkRows: 64, HotChunks: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("accounts", durableSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tbl.Insert(Record{
			IntValue(int64(i)), CharValue("acct"), FloatValue(float64(i) * 10),
		}); err != nil {
			t.Fatal(err)
		}
	}
	long := CharValue("elevenbytes") // name is CHAR(8)
	if err := tbl.Update(3, 1, long); err == nil {
		t.Fatal("over-width CHAR update accepted")
	}
	x := tbl.Begin()
	if err := x.Update(4, 1, long); err == nil {
		t.Fatal("over-width CHAR update accepted inside a transaction")
	}
	if err := x.Update(4, 2, FloatValue(7)); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(5, 2, FloatValue(8)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir, Options{ChunkRows: 64, HotChunks: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkAccounts(t, re.Table("accounts"), 100, map[uint64]float64{4: 7, 5: 8})
	for _, row := range []uint64{3, 4} {
		if rec, err := re.Table("accounts").Get(row); err != nil || rec[1].S != "acct" {
			t.Fatalf("row %d after reopen = %v, %v; want name acct", row, rec, err)
		}
	}
}

// TestWarmRestartZeroReseals: restoring a checkpoint must not re-seal
// a single zone map — the image carries the sealed snapshots, so a
// warm restart pays zero zone-recomputation scans and the restored
// zones still prune queries exactly as before the restart.
func TestWarmRestartZeroReseals(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ChunkRows: 64, HotChunks: 1, Compress: true}
	db, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("accounts", durableSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if _, err := tbl.Insert(Record{
			IntValue(int64(i)), CharValue("acct"), FloatValue(float64(i) * 10),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Adapt(); err != nil { // freeze → seal the cold zones
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	sealsBefore := obs.TakeSnapshot().Counter("layout.seals")
	re, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if sealsAfter := obs.TakeSnapshot().Counter("layout.seals"); sealsAfter != sealsBefore {
		t.Fatalf("warm restart re-sealed %d zone maps, want 0", sealsAfter-sealsBefore)
	}

	// The restored sealed zones still prune: a predicate outside every
	// cold fragment's bounds must skip them without touching bytes.
	prunedBefore := obs.TakeSnapshot().Counter("exec.zonemap.pruned")
	sum, n, err := re.Table("accounts").SumFloat64Where(2, GtFloat(1e9))
	if err != nil {
		t.Fatal(err)
	}
	if sum != 0 || n != 0 {
		t.Fatalf("impossible predicate matched sum=%v n=%d", sum, n)
	}
	if prunedAfter := obs.TakeSnapshot().Counter("exec.zonemap.pruned"); prunedAfter == prunedBefore {
		t.Fatal("restored zones pruned nothing — seals were lost in the round trip")
	}
}

// TestDurableEveryTable: every table of an OpenDir DB logs and
// checkpoints — two tables the checkpoint image holds, and a third
// created after it whose history lives only in the log, all come back.
func TestDurableEveryTable(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := durableSchema(t)
	fill := func(name string, rows int) {
		t.Helper()
		tbl, err := db.CreateTable(name, s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := tbl.Insert(Record{IntValue(int64(i)), CharValue("x"), FloatValue(float64(i) * 10)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill("first", 10)
	fill("second", 20)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fill("late", 30)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkAccounts(t, re.Table("first"), 10, nil)
	checkAccounts(t, re.Table("second"), 20, nil)
	checkAccounts(t, re.Table("late"), 30, nil)
}

// TestDurableUndecodableFrameFailsOpen: a log frame whose CRC matches
// but which this version cannot decode (here kind 4, the in-place update
// record no facade ever wrote) sits between acknowledged inserts. OpenDir
// must refuse the directory and leave it byte-identical — treating the
// frame as a torn tail would truncate the acknowledged inserts behind it.
func TestDurableUndecodableFrameFailsOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, Options{ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("accounts", durableSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walFile)
	var cut int // log size after the first insert
	for i := 0; i < 3; i++ {
		if _, err := tbl.Insert(Record{IntValue(int64(i)), CharValue("acct"), FloatValue(float64(i) * 10)}); err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(path); err != nil {
			t.Fatal(err)
		} else if i == 0 {
			cut = int(fi.Size())
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	tbl.Free()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{4, 0, 0, 0, 0} // kind 4, empty table name
	bad := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(bad, uint32(len(payload)))
	binary.LittleEndian.PutUint32(bad[4:], crc32.ChecksumIEEE(payload))
	spliced := append(append(append([]byte(nil), data[:cut]...), append(bad, payload...)...), data[cut:]...)
	if err := os.WriteFile(path, spliced, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDir(dir, Options{ChunkRows: 64})
	if err == nil {
		rows := re.Table("accounts").Rows()
		re.Close()
		t.Fatalf("OpenDir accepted the log and recovered %d of 3 acknowledged rows", rows)
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("err = %v, want wal.ErrCorrupt", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, spliced) {
		t.Fatalf("failed OpenDir changed the log: %d -> %d bytes", len(spliced), len(after))
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries after the failed open (%v), want the log alone", len(entries), err)
	}
}

// TestCheckpointMemoryOnly: Checkpoint on an Open'd DB reports misuse.
func TestCheckpointMemoryOnly(t *testing.T) {
	db := Open(Options{})
	if err := db.Checkpoint(); err == nil {
		t.Fatal("expected an error")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableConcurrentWriters hammers a durable table from many
// goroutines and reopens: row count and content must match what was
// acknowledged.
func TestDurableConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ChunkRows: 64}
	db, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("accounts", durableSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < perWriter; i++ {
				_, err := tbl.Insert(Record{
					IntValue(int64(w*perWriter + i)), CharValue("acct"), FloatValue(1),
				})
				if err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rt := re.Table("accounts")
	if rt.Rows() != writers*perWriter {
		t.Fatalf("rows = %d, want %d", rt.Rows(), writers*perWriter)
	}
	sum, err := sumOf(rt, 2)
	if err != nil || sum != writers*perWriter {
		t.Fatalf("sum = %v (%v), want %d", sum, err, writers*perWriter)
	}
	for pk := int64(0); pk < writers*perWriter; pk++ {
		if _, ok := rt.LookupPK(pk); !ok {
			t.Fatalf("pk %d lost", pk)
		}
	}
}

// checkpointFixture opens a durable store in dir holding one frozen,
// compressed table of rows accounts with a few versions left in its
// delta store, and cuts a first checkpoint so the log holds only what
// comes after.
func checkpointFixture(t *testing.T, dir string, rows int) *DB {
	t.Helper()
	db, err := OpenDir(dir, Options{ChunkRows: 1024, HotChunks: 1, Compress: true,
		Durability: Durability{Sync: SyncNone}})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("accounts", durableSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tbl.Insert(Record{
			IntValue(int64(i)), CharValue("acct"), FloatValue(float64(i) * 10),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < uint64(rows); i += 97 {
		if err := tbl.Update(i, 2, FloatValue(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestCheckpointFileMatchesReference pins the checkpoint file's bytes:
// the magic, the payload built as one buffer — the table count, then per
// table its name, engine, schema and length-prefixed image — and the
// payload's CRC-32. Checkpoint writes it as parts; a store either
// version writes must open under the other.
func TestCheckpointFileMatchesReference(t *testing.T) {
	dir := t.TempDir()
	db := checkpointFixture(t, dir, 4096)
	defer db.Close()
	if _, err := db.CreateTable("audit", durableSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}

	var enc wal.Encoder
	enc.U32(2)
	for _, name := range []string{"accounts", "audit"} {
		tbl := db.Table(name)
		enc.Str(name)
		enc.Str("core")
		enc.Schema(tbl.t.Schema())
		var img wal.Encoder
		if _, _, err := tbl.t.CheckpointTo(&img); err != nil {
			t.Fatal(err)
		}
		enc.Blob(img.Bytes())
	}
	want := append([]byte("HSCK\x01\x00\x00\x00"), enc.Bytes()...)
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(enc.Bytes()))
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint file moved: %d bytes, reference %d", len(got), len(want))
	}
}

// TestCheckpointAllocatesAboutItsImage: a checkpoint's heap traffic is
// the image it writes and little else — the image is encoded into one
// buffer sized up front and goes to disk without being copied, and the
// log is compacted through fixed buffers.
func TestCheckpointAllocatesAboutItsImage(t *testing.T) {
	dir := t.TempDir()
	db := checkpointFixture(t, dir, 1<<17)
	defer db.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	st, err := os.Stat(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if limit := st.Size() * 11 / 10; alloc > uint64(limit) {
		t.Fatalf("checkpoint allocated %d bytes for a %d-byte image (%.2f×), want at most 1.1×",
			alloc, st.Size(), float64(alloc)/float64(st.Size()))
	}
	t.Logf("checkpoint allocated %d bytes for a %d-byte image (%.2f×)", alloc, st.Size(), float64(alloc)/float64(st.Size()))
}
