package hyper

import (
	"fmt"

	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
	"hybridstore/internal/wal"
)

// This file makes the promoted common.Table surface participate in the
// table's reader/writer lock. Table embeds common.Table for the shared
// storage plumbing, but promoted methods would otherwise bypass the
// mutex added for concurrent serving — each override takes the lock and
// delegates to the embedded implementation. (Update, Compact and Free
// lock in hyper.go where the engine has its own implementations; Scan
// and the named aggregates reach the locked scan through Table.Run.)

// Insert appends a record under the writer lock. With a WAL enabled
// the insert is logged under the lock at its predetermined row (log
// order matches apply order, so recovery lands every row where it was)
// and waits for durability only after the lock drops.
func (t *Table) Insert(rec schema.Record) (uint64, error) {
	row, lsn, err := t.insertLocked(rec)
	if err != nil {
		return 0, err
	}
	if lsn != 0 {
		if err := t.wal.L.Sync(lsn); err != nil {
			return 0, fmt.Errorf("hyper: insert at row %d not durable: %w", row, err)
		}
	}
	return row, nil
}

func (t *Table) insertLocked(rec schema.Record) (uint64, uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lsn uint64
	if t.wal != nil {
		// Exhaust every fallible step — record validation and tail-chunk
		// allocation — before the WAL append, so the log never holds an
		// insert the caller saw fail (recovery would replay it, shifting
		// every later logged row position).
		if err := schema.ValidateRecord(t.Rel.Schema(), rec); err != nil {
			return 0, 0, err
		}
		if _, err := t.ensureTail(t.Rel.Rows()); err != nil {
			return 0, 0, err
		}
		var err error
		lsn, err = t.wal.L.Append(&wal.Record{Kind: wal.KindInsert, Table: t.wal.Table, Row: t.Rel.Rows(), Rec: rec})
		if err != nil {
			return 0, 0, fmt.Errorf("hyper: logging insert: %w", err)
		}
	}
	row, err := t.Table.Insert(rec)
	return row, lsn, err
}

// Get materializes one record under the reader lock.
func (t *Table) Get(row uint64) (schema.Record, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.Table.Get(row)
}

// Rows returns the row count under the reader lock.
func (t *Table) Rows() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.Table.Rows()
}

// Snapshot digests the physical layout under the reader lock.
func (t *Table) Snapshot() layout.Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.Table.Snapshot()
}

// SumInt64 aggregates under the reader lock.
func (t *Table) SumInt64(col int) (int64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.Table.SumInt64(col)
}

// SelectFloat64 selects under the reader lock.
func (t *Table) SelectFloat64(col int, pred func(float64) bool) ([]uint64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.Table.SelectFloat64(col, pred)
}

// SelectFloat64Where selects under the reader lock.
func (t *Table) SelectFloat64Where(col int, p exec.Pred[float64]) (*exec.SelVec, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.Table.SelectFloat64Where(col, p)
}

// Materialize resolves positions under the reader lock.
func (t *Table) Materialize(positions []uint64) ([]schema.Record, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.Table.Materialize(positions)
}
