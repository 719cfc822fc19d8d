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
	t.chargeDeviceGather(c, 1)
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
	t.chargeDeviceGather(c, 1)
	rec[col] = v
	return x.Write(row, rec)
}

// Update installs a new version of one field through a single-operation
// transaction; base fragments are never written (so pinned analytic
// snapshots stay stable). A lone statement has no snapshot its caller
// could have observed, so a lost first-committer-wins race is not the
// caller's to handle: the read-modify-write reruns on a fresh snapshot.
// Every rerun is caused by another transaction's successful commit to
// the row, so some writer always makes progress.
func (t *Table) Update(row uint64, col int, v schema.Value) error {
	if err := t.checkWrite(col, v); err != nil {
		return err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if row >= t.rel.Rows() {
		return fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, t.rel.Rows())
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
		if err == nil {
			t.mon.Observe(workload.Op{Kind: workload.PointUpdate, Row: row, Cols: []int{col}})
		}
		return err
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

// The named aggregate methods are sugar over Execute: each builds the
// plan its name describes and reads the matching result fields.

// SumFloat64 aggregates col over a pinned MVCC snapshot: base fragments
// are scanned in bulk (device-resident fragments through the reduction
// kernel, host fragments through the bulk operator), then the snapshot's
// visible delta versions are patched over the base values.
func (t *Table) SumFloat64(col int) (float64, error) {
	r, err := t.Scan(exec.Plan{Op: exec.KindSum, Col: col})
	return r.Sum, err
}

// SumFloat64Where aggregates (sum, count) of col over the rows matching
// p, skipping base fragments whose zone maps prove them match-free.
func (t *Table) SumFloat64Where(col int, p exec.Pred) (float64, int64, error) {
	r, err := t.Scan(exec.Plan{Op: exec.KindSumWhere, Col: col, Pred: p})
	return r.Sum, r.Count, err
}

// GroupSumFloat64Where computes SELECT keyCol, SUM(valCol), COUNT(*)
// WHERE p GROUP BY keyCol over an MVCC snapshot in one fused pass. keyCol
// must be an integer attribute, valCol a float64 one.
func (t *Table) GroupSumFloat64Where(keyCol, valCol int, p exec.Pred) ([]exec.GroupResult, error) {
	r, err := t.Scan(exec.Plan{Op: exec.KindGroupSumWhere, KeyCol: keyCol, Col: valCol, Pred: p})
	return r.Groups, err
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
// wins).
func (x *Txn) Commit() error { return x.x.Commit() }

// Abort discards the transaction.
func (x *Txn) Abort() { x.x.Abort() }

// Merge folds delta versions no active snapshot needs back into the base
// fragments and prunes the version store — the background pass that keeps
// scan patching cheap. Cold fragments are rewritten in place (they are
// only immutable with respect to *transactions*).
func (t *Table) Merge() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := sfMerge.Start()
	defer sp.End()
	minTS := t.deltas.MinActiveTS()
	reader := t.deltas.Begin()
	defer reader.Abort()
	// touched collects the chunks written below, each given a fresh
	// epoch before its first write.
	touched := make(map[*chunk]bool)
	var settled []uint64
	err := t.patchRows(reader, func(row uint64, rec schema.Record, verTS uint64) error {
		if verTS > minTS {
			return nil // an active snapshot still needs the chain
		}
		c, err := t.chunkFor(row)
		if err != nil {
			return err
		}
		if !touched[c] {
			t.touch(c)
			touched[c] = true
		}
		i := int(row - c.rows.Begin)
		if c.state == hot {
			for col := 0; col < t.s.Arity(); col++ {
				if err := c.nsm.Set(i, col, rec[col]); err != nil {
					return err
				}
			}
		} else {
			for gi, f := range c.frags {
				for _, col := range c.groups[gi] {
					if err := f.Set(i, col, rec[col]); err != nil {
						return err
					}
				}
			}
		}
		settled = append(settled, row)
		return nil
	})
	if err != nil {
		return err
	}
	// The base now carries the settled rows' values, which makes a chain
	// redundant for every snapshot at or after minTS — unless an
	// interactive commit (Txn.Commit takes no table lock) pushed a newer
	// version onto it meanwhile. The store compares under its write lock
	// and keeps such a chain: it patches over the older settled value.
	t.deltas.Forget(settled, minTS)
	// Rewritten cold fragments already stop validating device images
	// through their version bumps; releasing the images frees their
	// memory eagerly rather than under capacity pressure. The side-car
	// compressed images are re-sealed so later scans stay in the
	// compressed domain. Both are no-ops on a hot chunk.
	for c := range touched {
		for _, f := range c.frags {
			t.invalidateFrag(f)
		}
		t.sealChunkCompression(c)
	}
	t.deltas.Prune(minTS)
	return nil
}
