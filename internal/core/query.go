package core

import (
	"errors"
	"fmt"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
	"hybridstore/internal/tx"
	"hybridstore/internal/workload"
)

// Get materializes the current record at row: the newest committed delta
// version if one exists, else the base fragments. Delta-free rows are
// served from / published to the result cache under their chunk's epoch
// (see rescache.go for the validity argument).
func (t *Table) Get(row uint64) (schema.Record, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.getLocked(row)
}

// readInto resolves row under x's snapshot into dst's backing array
// when it has room (dst's length is ignored; nil allocates): the delta
// version x sees (or its own buffered write), else the base fragments —
// c is then the chunk read, whose device gather the caller charges.
func (t *Table) readInto(x *tx.Tx, row uint64, dst schema.Record) (schema.Record, *chunk, error) {
	if rec, ok, err := x.LookupInto(row, dst); ok || err != nil {
		return rec, nil, err
	}
	return t.baseRecordInto(row, dst)
}

// recordAt reads row on its own under x's snapshot into a record of the
// caller's: one row's gather.
func (t *Table) recordAt(x *tx.Tx, row uint64) (schema.Record, error) {
	rec, c, err := t.readInto(x, row, nil)
	t.chargeDeviceGather(c)
	return rec, err
}

// setField is the one read-modify-write body of an update: it reads row
// under x's snapshot into a stack buffer, sets col to v and buffers the
// record in x, whose Write takes the one copy an update keeps. Caller
// holds t.mu and checked the write and the row.
func (t *Table) setField(x *tx.Tx, row uint64, col int, v schema.Value) error {
	var buf [8]schema.Value
	rec, c, err := t.readInto(x, row, buf[:0])
	if err != nil {
		return err
	}
	t.chargeDeviceGather(c)
	rec[col] = v
	return x.Write(row, rec)
}

// Update installs a new version of one field through a single-operation
// transaction; base fragments are never written (so pinned analytic
// snapshots stay stable). A lone statement has no snapshot its caller
// could have observed, so a lost first-committer-wins race is not the
// caller's to handle: the read-modify-write reruns on a fresh snapshot.
// Every rerun is caused by another transaction's successful commit to
// the row, so some writer always makes progress. The update that makes
// settlement due settles the tail once it has given the read lock back
// (settle.go); it is committed either way.
func (t *Table) Update(row uint64, col int, v schema.Value) error {
	if err := t.checkWrite(col, v); err != nil {
		return err
	}
	if due, err := t.autocommit(row, col, v); !due {
		return err
	}
	return t.settle()
}

// autocommit is Update's transaction under the read lock, reporting
// whether its commit made settlement due.
func (t *Table) autocommit(row uint64, col int, v schema.Value) (due bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if row >= t.rel.Rows() {
		return false, fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, t.rel.Rows())
	}
	for {
		x := t.deltas.Begin()
		err := t.setField(x, row, col, v)
		if err != nil {
			x.Abort()
		} else {
			err = x.Commit()
		}
		if errors.Is(err, tx.ErrConflict) {
			continue
		}
		if err != nil {
			return false, err
		}
		t.mon.Observe(workload.Op{Kind: workload.PointUpdate, Row: row, Cols: []int{col}})
		return t.dueLocked(), nil
	}
}

// Materialize resolves a sorted position list against the current state.
func (t *Table) Materialize(positions []uint64) ([]schema.Record, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	reader := t.deltas.Begin()
	defer reader.Abort()
	out := make([]schema.Record, len(positions))
	for i, p := range positions {
		if p >= t.rel.Rows() {
			return nil, fmt.Errorf("%w: position %d of %d", engine.ErrNoSuchRow, p, t.rel.Rows())
		}
		rec, err := t.recordAt(reader, p)
		if err != nil {
			return nil, err
		}
		out[i] = rec
		t.mon.Observe(workload.Op{Kind: workload.PointRead, Cols: t.allCols})
	}
	return out, nil
}

// attachCompressed swaps a cold piece's execution format to the chunk's
// side-car compressed image when one covers the column: the vector keeps
// its logical metadata but drops the dense bytes, so the host operator
// evaluates in the compressed domain and the device path ships the
// compressed image over the bus.
func (t *Table) attachCompressed(piece *exec.Piece, c *chunk, col int) {
	if !t.eng.opts.Compress || c.state != cold || col >= len(c.comp) || c.comp[col] == nil {
		return
	}
	if c.comp[col].Len() != piece.Vec.Len {
		return // clipped view; the image covers the whole chunk
	}
	piece.Comp = c.comp[col]
	piece.Vec.Data = nil
	piece.Vec.Base = 0
}

// fragmentForCol returns the base fragment storing (chunk, col).
func (t *Table) fragmentForCol(c *chunk, col int) (*layout.Fragment, error) {
	if c.state == hot {
		return c.nsm, nil
	}
	for gi, f := range c.frags {
		for _, gc := range c.groups[gi] {
			if gc == col {
				return f, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: chunk %v col %d", layout.ErrNotCovered, c.rows, col)
}

// baseValue reads one field from the base fragments.
func (t *Table) baseValue(row uint64, col int) (schema.Value, error) {
	c, err := t.chunkFor(row)
	if err != nil {
		return schema.Value{}, err
	}
	f, err := t.fragmentForCol(c, col)
	if err != nil {
		return schema.Value{}, err
	}
	return f.Get(int(row-c.rows.Begin), col)
}

// Txn is an interactive multi-operation transaction over the table with
// snapshot isolation (reads see the snapshot plus own writes; commit is
// first-committer-wins).
type Txn struct {
	t *Table
	x *tx.Tx
}

// Begin opens a transaction.
func (t *Table) Begin() *Txn { return &Txn{t: t, x: t.deltas.Begin()} }

// Read returns the record at row under the transaction's snapshot.
func (x *Txn) Read(row uint64) (schema.Record, error) {
	x.t.mu.RLock()
	defer x.t.mu.RUnlock()
	if row >= x.t.rel.Rows() {
		return nil, fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, x.t.rel.Rows())
	}
	return x.t.recordAt(x.x, row)
}

// Update buffers a field update.
func (x *Txn) Update(row uint64, col int, v schema.Value) error {
	if err := x.t.checkWrite(col, v); err != nil {
		return err
	}
	x.t.mu.RLock()
	defer x.t.mu.RUnlock()
	if row >= x.t.rel.Rows() {
		return fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, x.t.rel.Rows())
	}
	return x.t.setField(x.x, row, col, v)
}

// Commit installs the buffered writes; it fails with tx.ErrConflict if
// another transaction committed one of the rows first (first committer
// wins). A commit that makes settlement due settles the tail (settle.go);
// it is installed either way.
func (x *Txn) Commit() error {
	if err := x.x.Commit(); err != nil {
		return err
	}
	t := x.t
	t.mu.RLock()
	due := t.dueLocked()
	t.mu.RUnlock()
	if !due {
		return nil
	}
	return t.settle()
}

// Abort discards the transaction.
func (x *Txn) Abort() { x.x.Abort() }
