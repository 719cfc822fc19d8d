package core

import (
	"errors"
	"fmt"

	"hybridstore/internal/engine"
	"hybridstore/internal/index"
	"hybridstore/internal/schema"
)

// ErrImmutablePK is returned by updates targeting the indexed primary-key
// attribute: the reference engine keeps primary keys immutable so the
// hash index stays consistent with MVCC without index versioning.
var ErrImmutablePK = errors.New("core: primary-key attribute is immutable")

// initPK is called from Create when the schema supports indexing.
func (t *Table) initPK() {
	if t.s.Attr(0).Kind == schema.Int64 {
		t.pk = index.NewHash(1024)
	}
}

// indexInsert registers a freshly inserted record.
func (t *Table) indexInsert(rec schema.Record, row uint64) error {
	if t.pk == nil {
		return nil
	}
	if err := t.pk.Put(rec[0].I, row); err != nil {
		return fmt.Errorf("core: indexing pk %d: %w", rec[0].I, err)
	}
	return nil
}

// guardPKUpdate rejects writes to the indexed key attribute.
func (t *Table) guardPKUpdate(col int) error {
	if t.pk != nil && col == 0 {
		return fmt.Errorf("%w: attribute %s", ErrImmutablePK, t.s.Attr(0).Name)
	}
	return nil
}

// GetByPK answers the paper's query Q1 — SELECT * FROM R WHERE pk = c —
// through the hash index: exactly one record is identified without
// scanning the relation, then materialized under a fresh snapshot.
func (t *Table) GetByPK(pk int64) (schema.Record, error) {
	if t.pk == nil {
		return nil, fmt.Errorf("%w: relation has no int64 primary key", engine.ErrUnsupported)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	row, ok := t.pk.Lookup(pk)
	if !ok {
		return nil, fmt.Errorf("%w: pk %d", engine.ErrNoSuchRow, pk)
	}
	// The pk is resolved; from here the read is a point read on row, so
	// it shares the row's result-cache entry with positional Gets.
	return t.getLocked(row)
}

// LookupPK resolves a key to its row position without materializing.
func (t *Table) LookupPK(pk int64) (uint64, bool) {
	if t.pk == nil {
		return 0, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.pk.Lookup(pk)
}

// ReadByPK is the transaction-scoped Q1: GetByPK under the
// transaction's snapshot.
func (x *Txn) ReadByPK(pk int64) (schema.Record, error) {
	t := x.t
	if t.pk == nil {
		return nil, fmt.Errorf("%w: relation has no int64 primary key", engine.ErrUnsupported)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	row, ok := t.pk.Lookup(pk)
	if !ok {
		return nil, fmt.Errorf("%w: pk %d", engine.ErrNoSuchRow, pk)
	}
	return t.recordAt(x.x, row)
}
