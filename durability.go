package hybridstore

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"

	"hybridstore/internal/core"
	"hybridstore/internal/wal"
)

// SyncPolicy selects when the write-ahead log reaches stable storage.
type SyncPolicy = wal.SyncPolicy

// Sync policies, re-exported from internal/wal.
const (
	// SyncGrouped (the default) batches concurrent commits into one
	// fsync: a flush leader writes everything pending, syncs once, and
	// wakes every waiter. Every acknowledged write is durable.
	SyncGrouped = wal.SyncGrouped
	// SyncAlways behaves as SyncGrouped: the leader never waits, so a
	// lone writer gets its own fsync under either.
	SyncAlways = wal.SyncAlways
	// SyncNone never fsyncs (the OS flushes eventually): acknowledged
	// writes can be lost on a machine crash, but never reordered or
	// torn — recovery still sees a clean prefix.
	SyncNone = wal.SyncNone
)

// Durability tunes write-ahead logging and checkpointing for a DB
// opened with OpenDir, every table of which logs and checkpoints. The
// zero value is the recommended configuration: group-committed fsyncs.
// Open ignores this field — an in-memory DB stays a pure in-memory DB.
type Durability struct {
	// Sync is the fsync policy (default SyncGrouped).
	Sync SyncPolicy
}

// Filenames inside a durable DB directory.
const (
	walFile        = "wal.log"
	checkpointFile = "checkpoint.db"
)

// ckptCoord is one table's checkpoint coordinates: everything at
// ts <= TS or row < Rows is covered by the checkpoint image, and the
// matching log records are redundant.
type ckptCoord struct {
	ts   uint64
	rows uint64
}

// OpenDir opens a durable DB rooted at dir, recovering whatever a
// previous process left there: the newest checkpoint image is restored
// (base fragments byte-identical, zone maps still sealed, device cache
// re-primed from the manifest), then the write-ahead log is replayed in
// commit order — so every write acknowledged before a crash, and
// nothing that was not acknowledged as committed, is visible again. A
// fresh directory comes up empty; a log holding an intact frame this
// version cannot decode fails the open and is left untouched (wal.Open).
// The returned DB behaves like Open's, plus Checkpoint and a meaningful
// Close; every table logs each insert and MVCC commit before
// acknowledging.
func OpenDir(dir string, opts Options) (*DB, error) {
	db := Open(opts)
	db.dir = dir

	coords := make(map[string]ckptCoord)
	payload, err := wal.ReadSnapshotFile(filepath.Join(dir, checkpointFile))
	switch {
	case err == nil:
		d := wal.NewDecoder(payload)
		n := int(d.U32())
		for i := 0; i < n; i++ {
			name := d.Str()
			engName := d.Str()
			s := d.Schema()
			blob := d.Blob()
			if err := d.Err(); err != nil {
				return nil, fmt.Errorf("hybridstore: reading checkpoint: %w", err)
			}
			if engName != "core" {
				return nil, fmt.Errorf("hybridstore: checkpoint table %q has unknown engine %q", name, engName)
			}
			// The blob leads with the pinned timestamp and row count —
			// the coordinates replay filtering keys on when a crash
			// interrupted log truncation.
			peek := wal.NewDecoder(blob)
			coords[name] = ckptCoord{ts: peek.U64(), rows: peek.U64()}
			t, err := db.eng.RestoreTable(name, s, wal.NewDecoder(blob))
			if err != nil {
				return nil, fmt.Errorf("hybridstore: restoring table %q: %w", name, err)
			}
			db.tables[name] = &Table{db: db, t: t, e: db.eng, nam: name}
		}
	case errors.Is(err, fs.ErrNotExist):
		// Fresh directory (or first checkpoint never completed): the log
		// alone carries the full history.
	default:
		return nil, err
	}

	l, recs, err := wal.Open(filepath.Join(dir, walFile), wal.Options{Sync: opts.Durability.Sync})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*DB, error) {
		l.Close()
		return nil, err
	}
	for _, r := range recs {
		switch r.Kind {
		case wal.KindCreate:
			if _, ok := db.tables[r.Table]; ok {
				// The checkpoint image covers the table and the crash hit
				// between snapshot write and log truncation.
				continue
			}
			if r.Engine != "core" {
				return fail(fmt.Errorf("hybridstore: logged table %q has unknown engine %q", r.Table, r.Engine))
			}
			t, err := db.eng.Create(r.Table, r.Schema)
			if err != nil {
				return fail(fmt.Errorf("hybridstore: replaying create of %q: %w", r.Table, err))
			}
			db.tables[r.Table] = &Table{db: db, t: t.(*core.Table), e: db.eng, nam: r.Table}
		case wal.KindInsert:
			tbl := db.tables[r.Table]
			if tbl == nil {
				return fail(fmt.Errorf("hybridstore: logged insert for unknown table %q", r.Table))
			}
			if r.Row < coords[r.Table].rows {
				continue // covered by the checkpoint image
			}
			if err := tbl.t.ReplayInsert(r.Row, r.Rec); err != nil {
				return fail(err)
			}
		case wal.KindCommit:
			tbl := db.tables[r.Table]
			if tbl == nil {
				return fail(fmt.Errorf("hybridstore: logged commit for unknown table %q", r.Table))
			}
			if r.TS <= coords[r.Table].ts {
				continue // covered by the checkpoint image
			}
			if err := tbl.t.ReplayCommit(r.TS, r.Ops); err != nil {
				return fail(err)
			}
		default:
			return fail(fmt.Errorf("hybridstore: unexpected %v record for table %q", r.Kind, r.Table))
		}
	}
	db.wal = l
	db.mu.RLock()
	for _, tbl := range db.tables {
		tbl.t.EnableWAL(l)
	}
	db.mu.RUnlock()
	return db, nil
}

// Checkpoint serializes every table at an MVCC-consistent
// snapshot into the directory's checkpoint file, then truncates the
// write-ahead log down to the records the new image does not cover.
// Concurrent reads and writes keep running: each table's image is cut
// at a pinned snapshot timestamp, and writes that land during the
// checkpoint simply stay in the log. Crashing anywhere inside
// Checkpoint is safe — the image is published atomically (write +
// rename) and recovery skips log records an image already covers.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return errors.New("hybridstore: Checkpoint on a memory-only DB (use OpenDir)")
	}
	db.mu.RLock()
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.mu.RUnlock()
	sort.Slice(tables, func(i, j int) bool { return tables[i].nam < tables[j].nam })

	// The payload goes out as parts — the table count, then per table its
	// header (image length included) and its image — never joined into
	// one buffer.
	var count wal.Encoder
	count.U32(uint32(len(tables)))
	parts := append(make([][]byte, 0, 1+2*len(tables)), count.Bytes())
	coords := make(map[string]ckptCoord, len(tables))
	for _, t := range tables {
		var head, img wal.Encoder
		ts, rows, err := t.t.CheckpointTo(&img)
		if err != nil {
			return fmt.Errorf("hybridstore: checkpointing %q: %w", t.nam, err)
		}
		head.Str(t.nam)
		head.Str("core")
		head.Schema(t.t.Schema())
		head.U32(uint32(len(img.Bytes())))
		parts = append(parts, head.Bytes(), img.Bytes())
		coords[t.nam] = ckptCoord{ts: ts, rows: rows}
	}
	if err := wal.WriteSnapshotFile(filepath.Join(db.dir, checkpointFile), parts...); err != nil {
		return err
	}
	return db.wal.Compact(func(r *wal.Record) bool {
		c, ok := coords[r.Table]
		if !ok {
			return true // created after the image listed its tables; its history stays in the log
		}
		switch r.Kind {
		case wal.KindCreate:
			return false
		case wal.KindInsert:
			return r.Row >= c.rows
		case wal.KindCommit:
			return r.TS > c.ts
		}
		return true
	})
}

// Close flushes and closes the write-ahead log. On a memory-only DB it
// is a no-op. Close does not checkpoint; call Checkpoint first to keep
// the next open's replay short.
func (db *DB) Close() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.Close()
}
