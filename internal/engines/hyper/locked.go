package hyper

import (
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
)

// This file makes the promoted common.Table surface participate in the
// table's reader/writer lock. Table embeds common.Table for the shared
// storage plumbing, but promoted methods would otherwise bypass the
// mutex that makes the table safe for concurrent use — each override
// takes the lock and delegates to the embedded implementation. (Update,
// Compact and Free lock in hyper.go where the engine has its own
// implementations; Scan and the named aggregates reach the locked scan
// through Table.Run.)

// Insert appends a record under the writer lock.
func (t *Table) Insert(rec schema.Record) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.Table.Insert(rec)
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
