package hyper

import (
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

// Materialize resolves positions under the reader lock.
func (t *Table) Materialize(positions []uint64) ([]schema.Record, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.Table.Materialize(positions)
}
