package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridstore/internal/schema"
)

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s, err := schema.New(schema.Int64Attr("id"), schema.Float64Attr("price"), schema.CharAttr("name", 8))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRecordRoundTrip(t *testing.T) {
	s := testSchema(t)
	recs := []*Record{
		{Kind: KindCreate, Table: "item", Engine: "core", Schema: s},
		{Kind: KindInsert, Table: "item", Row: 7, Rec: schema.Record{
			schema.IntValue(7), schema.FloatValue(1.5), schema.CharValue("ab"),
		}},
		{Kind: KindCommit, Table: "item", TS: 42, Ops: []Op{
			{Row: 1, Rec: schema.Record{schema.IntValue(1), schema.FloatValue(2), schema.CharValue("x")}},
			{Row: 2, Rec: schema.Record{schema.IntValue(2), schema.FloatValue(-0.5), schema.CharValue("")}},
		}},
	}
	for _, in := range recs {
		var e Encoder
		if err := in.encode(&e); err != nil {
			t.Fatalf("%s: encode: %v", in.Kind, err)
		}
		out, err := decodeRecord(e.Bytes())
		if err != nil {
			t.Fatalf("%s: decode: %v", in.Kind, err)
		}
		if out.Kind != in.Kind || out.Table != in.Table || out.Row != in.Row ||
			out.TS != in.TS || len(out.Ops) != len(in.Ops) {
			t.Fatalf("%s: round trip mismatch: %+v vs %+v", in.Kind, out, in)
		}
		if in.Rec != nil && !out.Rec.Equal(in.Rec) {
			t.Fatalf("%s: record mismatch: %v vs %v", in.Kind, out.Rec, in.Rec)
		}
		if in.Schema != nil {
			if out.Schema == nil || out.Schema.Arity() != in.Schema.Arity() ||
				out.Schema.Width() != in.Schema.Width() {
				t.Fatalf("schema round trip mismatch")
			}
		}
		for i, op := range in.Ops {
			got := out.Ops[i]
			if got.Row != op.Row || !got.Rec.Equal(op.Rec) {
				t.Fatalf("op %d mismatch: %+v vs %+v", i, got, op)
			}
		}
	}
}

func TestLogAppendSyncReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, recs, err := Open(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d records", len(recs))
	}
	for i := 0; i < 10; i++ {
		lsn, err := l.Append(&Record{Kind: KindInsert, Table: "t", Row: uint64(i),
			Rec: schema.Record{schema.IntValue(int64(i))}})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("reopened %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Row != uint64(i) {
			t.Fatalf("record %d has row %d", i, r.Row)
		}
	}
}

func TestLogGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, Options{Sync: SyncGrouped})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := l.Append(&Record{Kind: KindInsert, Table: "t", Row: uint64(i),
				Rec: schema.Record{schema.IntValue(int64(i))}})
			if err == nil {
				err = l.Sync(lsn)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
}

func TestLogTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		lsn, _ := l.Append(&Record{Kind: KindInsert, Table: "t", Row: uint64(i),
			Rec: schema.Record{schema.IntValue(int64(i))}})
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(data) - 1; cut > len(data)-20 && cut > 0; cut-- {
		torn := filepath.Join(t.TempDir(), "torn.log")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		truncations := mTornTail.Load()
		l2, recs, err := Open(torn, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != 4 {
			t.Fatalf("cut %d: recovered %d records, want 4", cut, len(recs))
		}
		// The counter is the one trace a repaired log leaves.
		if got := mTornTail.Load() - truncations; got != 1 {
			t.Fatalf("cut %d: wal.torn_tail_truncations advanced by %d", cut, got)
		}
		// The torn bytes must be gone: a fresh append then reopen yields 5.
		lsn, err := l2.Append(&Record{Kind: KindInsert, Table: "t", Row: 99,
			Rec: schema.Record{schema.IntValue(99)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := l2.Sync(lsn); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		_, recs, err = Open(torn, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 5 || recs[4].Row != 99 {
			t.Fatalf("cut %d: after repair got %d records", cut, len(recs))
		}
	}
}

func TestLogCorruptMiddleStopsScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		lsn, _ := l.Append(&Record{Kind: KindInsert, Table: "t", Row: uint64(i),
			Rec: schema.Record{schema.IntValue(int64(i))}})
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff // flip a bit mid-log
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) >= 3 {
		t.Fatalf("corrupt log yielded %d records", len(recs))
	}
}

// TestLogUndecodableFrameFailsOpen: a frame whose CRC matches but whose
// payload does not decode (an unknown kind: corruption or a log from
// another version, never a torn write) must fail Open and leave the
// file byte-identical — truncating there would drop the acknowledged
// writes behind it without a word. Append refuses to write one.
func TestLogUndecodableFrameFailsOpen(t *testing.T) {
	insert := func(row uint64) *Record {
		return &Record{Kind: KindInsert, Table: "t", Row: row, Rec: schema.Record{schema.IntValue(int64(row))}}
	}
	// writeLog returns the bytes of a log holding inserts of rows, after
	// checking that it refuses a record of a kind it could not read back.
	writeLog := func(rows ...uint64) []byte {
		path := filepath.Join(t.TempDir(), "wal.log")
		l, _, err := Open(path, Options{Sync: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		if lsn, err := l.Append(&Record{Kind: Kind(9), Table: "t"}); err == nil {
			t.Fatalf("Append accepted a record of unknown kind 9 (lsn %d)", lsn)
		}
		for _, row := range rows {
			lsn, err := l.Append(insert(row))
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(lsn); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	head, tail := writeLog(0), writeLog(1, 2)
	// Kind 4 was the in-place update record of earlier versions; 9 never
	// existed. Both payloads are a kind byte and an empty table name.
	for _, kind := range []byte{4, 9} {
		data := append(appendFrame(append([]byte(nil), head...), []byte{kind, 0, 0, 0, 0}), tail...)
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(path, Options{})
		if err == nil {
			l.Close()
			t.Fatalf("kind %d: Open returned %d records and no error", kind, len(recs))
		}
		want := fmt.Sprintf("offset %d (kind %d)", len(head), kind)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Fatalf("kind %d: err = %v, want ErrCorrupt naming %q", kind, err, want)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, data) {
			t.Fatalf("kind %d: failed Open changed the file: %d -> %d bytes", kind, len(data), len(after))
		}
	}
}

// parentCommit is a commit record and the payload the previous format's
// encoder wrote for it: kind, table, ts, op count, then per op the row,
// one flag byte and the record. The flag marked a deletion nobody could
// request; the byte stays in the layout as a reserved zero, so a log
// written before the flag went reads back unchanged.
var parentCommit = &Record{Kind: KindCommit, Table: "item", TS: 42, Ops: []Op{
	{Row: 1, Rec: schema.Record{schema.IntValue(1), schema.FloatValue(2), schema.CharValue("x")}},
	{Row: 513, Rec: schema.Record{schema.IntValue(2), schema.FloatValue(-0.5), schema.CharValue("")}},
}}

const (
	parentCommitHex = "03040000006974656d2a00000000000000020000000100000000000000" +
		"00" + "030000000101000000000000000200000000000000400301000000780102000000000000" +
		"00" + "0300000001020000000000000002000000000000e0bf0300000000"
	parentCommitFlag = 29 // offset of the first op's reserved byte
)

func TestCommitOpKeepsItsReservedByte(t *testing.T) {
	want, err := hex.DecodeString(parentCommitHex)
	if err != nil {
		t.Fatal(err)
	}
	var e Encoder
	if err := parentCommit.encode(&e); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("commit payload moved:\n got %x\nwant %x", e.Bytes(), want)
	}

	// A log as the previous format wrote it recovers.
	insert := &Record{Kind: KindInsert, Table: "item", Row: 0, Rec: parentCommit.Ops[0].Rec}
	var ie Encoder
	if err := insert.encode(&ie); err != nil {
		t.Fatal(err)
	}
	data := appendFrame(appendFrame(nil, ie.Bytes()), want)
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if len(recs) != 2 || !reflect.DeepEqual(recs[1], parentCommit) {
		t.Fatalf("recovered %d records, the commit as %+v", len(recs), recs[len(recs)-1])
	}

	// The same frame with the byte set — CRC valid, so written that way —
	// is corruption, and the failed Open leaves the file alone.
	flipped := bytes.Clone(want)
	flipped[parentCommitFlag] = 1
	data = appendFrame(appendFrame(nil, ie.Bytes()), flipped)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, recs, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			l.Close()
		}
		t.Fatalf("Open of a set reserved byte: %d records, err %v, want ErrCorrupt", len(recs), err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("failed Open changed the file (%v): %d -> %d bytes", err, len(data), len(after))
	}
}

// TestLogCompact: compaction keeps exactly the frames keep accepts, as
// the bytes that were appended, and the log stays usable after it.
func TestLogCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		lsn, _ := l.Append(&Record{Kind: KindCommit, Table: "t", TS: uint64(i + 1),
			Ops: []Op{{Row: uint64(i), Rec: schema.Record{schema.IntValue(int64(i)), schema.CharValue("x")}}}})
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(func(r *Record) bool { return r.TS > 5 }); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _ := scan(before)
	var want []byte
	for i, f := range frames(before) {
		if recs[i].TS > 5 {
			want = append(want, f...)
		}
	}
	if !bytes.Equal(after, want) {
		t.Fatalf("compacted file is not the kept frames: %d bytes, want %d", len(after), len(want))
	}
	// The log stays usable after compaction.
	lsn, err := l.Append(&Record{Kind: KindCommit, Table: "t", TS: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("compacted log has %d records, want 6", len(recs))
	}
	for i, r := range recs {
		if want := uint64(i + 6); r.TS != want {
			t.Fatalf("record %d has ts %d, want %d", i, r.TS, want)
		}
	}
}

// TestCompactRefusesDamagedLog: every frame in the file was written by
// this process after Open cut any torn tail, so a frame Compact cannot
// read is damage, not a tail. Compact fails with ErrCorrupt and leaves
// the file byte for byte as it was; rewriting it without the damaged
// frame would drop every acknowledged write behind it.
func TestCompactRefusesDamagedLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		lsn, err := l.Append(&Record{Kind: KindInsert, Table: "t", Row: uint64(i),
			Rec: schema.Record{schema.IntValue(int64(i))}})
		if err == nil {
			err = l.Sync(lsn)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fs := frames(data)
	mid := len(fs[0]) + len(fs[1]) + frameHeaderSize + 2 // inside the third frame's payload
	for _, leg := range []struct {
		name string
		at   int
	}{{"payload byte", mid}, {"length", len(fs[0]) + len(fs[1])}} {
		damaged := bytes.Clone(data)
		damaged[leg.at] ^= 0x40
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		err := l.Compact(func(*Record) bool { return false })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Compact of a damaged log: %v, want ErrCorrupt", leg.name, err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, damaged) {
			t.Fatalf("%s: a failed Compact changed the file: %d -> %d bytes", leg.name, len(damaged), len(after))
		}
	}
}

// TestCompactLetsAppendsThrough: the bulk of a compaction runs without
// the log mutex, so while keep is blocked an Append and its Sync still
// complete. When keep ran under the mutex this deadlocked.
func TestCompactLetsAppendsThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, Options{Sync: SyncGrouped})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 4; i++ {
		if _, err := l.Append(&Record{Kind: KindCommit, Table: "t", TS: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	compacted := make(chan error, 1)
	go func() {
		compacted <- l.Compact(func(r *Record) bool {
			once.Do(func() { close(entered); <-release })
			return r.TS > 2
		})
	}()
	<-entered
	lsn, err := l.Append(&Record{Kind: KindCommit, Table: "t", TS: 5})
	if err == nil {
		err = l.Sync(lsn)
	}
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ts []uint64
	for _, r := range recs {
		ts = append(ts, r.TS)
	}
	if !reflect.DeepEqual(ts, []uint64{3, 4, 5}) {
		t.Fatalf("compacted log holds commits %v, want [3 4 5]", ts)
	}
}

// TestAppendSyncAllocatesNothing: under SyncNone a steady-state Append
// and Sync of a one-op commit encodes into the pending buffer in place,
// and the flush hands its buffer back for the next one.
func TestAppendSyncAllocatesNothing(t *testing.T) {
	l, _, err := Open(filepath.Join(t.TempDir(), "wal.log"), Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := &Record{Kind: KindCommit, Table: "item", TS: 1, Ops: []Op{{Row: 3,
		Rec: schema.Record{schema.IntValue(3), schema.FloatValue(1.5), schema.CharValue("ab")}}}}
	appendSync := func() {
		lsn, err := l.Append(rec)
		if err == nil {
			err = l.Sync(lsn)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	appendSync()
	appendSync() // both buffers have grown
	if n := testing.AllocsPerRun(200, appendSync); n != 0 {
		t.Fatalf("Append+Sync allocates %v objects, want 0", n)
	}
}

// TestCompactAllocsFlatInLogLength: Compact streams through fixed
// buffers, so compacting a 16 k-record log allocates the same number of
// objects as a 1 k-record one.
func TestCompactAllocsFlatInLogLength(t *testing.T) {
	allocs := func(records int) float64 {
		l, _, err := Open(filepath.Join(t.TempDir(), "wal.log"), Options{Sync: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		rec := schema.Record{schema.IntValue(1), schema.FloatValue(1.5), schema.CharValue("ab")}
		for i := 0; i < records; i++ {
			if _, err := l.Append(&Record{Kind: KindCommit, Table: "item", TS: uint64(i + 1),
				Ops: []Op{{Row: uint64(i), Rec: rec}}}); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(5, func() {
			if err := l.Compact(func(*Record) bool { return true }); err != nil {
				t.Fatal(err)
			}
		})
	}
	const budget = 24 // files, buffers, the head keep sees, its table name
	if small, large := allocs(1<<10), allocs(1<<14); small != large || large > budget {
		t.Fatalf("Compact allocates %v objects over 1 k records and %v over 16 k, want the same, at most %d", small, large, budget)
	}
}

func TestLogCompactPreservesLSNs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 10; i++ {
		last, err = l.Append(&Record{Kind: KindCommit, Table: "t", TS: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Compact while an appender still holds an unacknowledged LSN (the
	// records were never synced): the writer's Sync must still return —
	// the regression was numbering restarting underneath it, leaving
	// durable < lsn forever.
	if err := l.Compact(func(*Record) bool { return false }); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.Sync(last) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Sync(pre-compact LSN): %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Sync on a pre-compact LSN hung after Compact")
	}
	// Numbering continues monotonically over the compacted file.
	lsn, err := l.Append(&Record{Kind: KindCommit, Table: "t", TS: 11})
	if err != nil {
		t.Fatal(err)
	}
	if lsn <= last {
		t.Fatalf("LSN numbering restarted across Compact: got %d after %d", lsn, last)
	}
	if err := l.Sync(lsn); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].TS != 11 {
		t.Fatalf("compacted log holds %d records", len(recs))
	}
}

func TestLogCompactConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, Options{Sync: SyncGrouped})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 40
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := l.Append(&Record{Kind: KindCommit, Table: "t",
					TS: uint64(w*perWriter + i + 1)})
				if err == nil {
					err = l.Sync(lsn)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var cwg sync.WaitGroup
	var compactErr error
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.Compact(func(*Record) bool { return false }); err != nil {
				compactErr = err
				return
			}
		}
	}()
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("writers hung against concurrent Compact")
	}
	close(stop)
	cwg.Wait()
	if compactErr != nil {
		t.Fatal(compactErr)
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.db")
	payload := []byte("hello checkpoint payload")
	if err := WriteSnapshotFile(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
	// Corrupt one byte: checksum must catch it.
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(path); err == nil {
		t.Fatal("corrupt snapshot read succeeded")
	}
}
