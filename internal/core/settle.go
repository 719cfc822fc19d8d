package core

import (
	"bytes"

	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/obs"
	"hybridstore/internal/rescache"
	"hybridstore/internal/schema"
)

// Settlement folds the MVCC tail back into the base fragments, the way
// L-Store merges tail pages once they fill: the commit that brings the
// live versions to a fixed budget settles them itself (settle), and
// Merge settles on demand. Either way the whole tail settles at once
// under the exclusive lock (settleLocked), because what a settlement
// invalidates is table-wide: it moves the table's epoch, and with it
// every cached settled base and the patch projection.

// mSettlements counts the settlements a commit ran (Merge's are
// core.merge spans).
var mSettlements = obs.NewCounter("core.settlements")

// settleRows is the settlement budget's divisor: the tail settles when
// its live versions reach rows/settleRows (and at least a chunk) above
// what the last settlement had to leave behind. Each scan folds every
// live version, and each settlement retires every cached settled base,
// so the budget trades the one against the other.
const settleRows = 12

// dueLocked reports whether settlement is due: the live versions reach
// the budget, max(rows/settleRows, ChunkRows), above what the last
// settlement left behind — versions pinned by a snapshot older than
// their commit, which a long-running reader would otherwise make every
// commit try to settle again. Caller holds t.mu.
func (t *Table) dueLocked() bool {
	budget := max(t.rel.Rows()/settleRows, t.eng.opts.ChunkRows)
	return uint64(t.deltas.Versions()) >= uint64(t.pinned)+budget
}

// settle is the commit path's settlement, run by a committer whose
// acknowledged commit made it due, on its own goroutine, after it gave
// the read lock back. One settler at a time: a committer that finds
// another settling leaves the tail to it. Due is re-checked under the
// exclusive lock, since a settlement may have run in between.
func (t *Table) settle() error {
	if !t.settler.TryLock() {
		return nil
	}
	defer t.settler.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.dueLocked() {
		return nil
	}
	mSettlements.Inc()
	return t.settleLocked()
}

// Merge settles the whole tail now, whatever its length: delta versions
// no active snapshot needs fold back into the base fragments and the
// version store is pruned. Cold fragments are rewritten in place (they
// are only immutable with respect to *transactions*).
func (t *Table) Merge() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.settleLocked()
}

// fragAt names cold fragment gi of chunk c.
type fragAt struct {
	c  *chunk
	gi int
}

// settleLocked is the one settlement body. It keeps what it does not
// change: it writes only the cells whose encoded bits differ from the
// version's (so -0/+0 and NaN payloads are changes), retires the device
// images and re-seals the compressed images of only the fragments it
// wrote, and moves only the table's epoch, forgetting the point-cache
// entries of exactly the rows it settles — every other cached point read
// stays a hit. Caller holds t.mu exclusively.
func (t *Table) settleLocked() error {
	sp := sfMerge.Start()
	defer sp.End()
	minTS := t.deltas.MinActiveTS()
	reader := t.deltas.Begin()
	defer reader.Abort()
	var settled []uint64
	written := make(map[fragAt]bool)
	cell := make([]byte, t.s.Width())
	err := t.patchRows(reader, func(row uint64, rec schema.Record, verTS uint64) error {
		if verTS > minTS {
			return nil // an active snapshot still needs the chain
		}
		c, err := t.chunkFor(row)
		if err != nil {
			return err
		}
		if len(settled) == 0 {
			t.touch(nil) // before the first write, so a failed one still moves it
		}
		settled = append(settled, row)
		t.forgetPoint(row)
		i := int(row - c.rows.Begin)
		if c.state == hot {
			for col := range rec {
				if _, err := t.settleCell(c.nsm, i, col, rec[col], cell); err != nil {
					return err
				}
			}
			return nil
		}
		for gi, f := range c.frags {
			for _, col := range c.groups[gi] {
				wrote, err := t.settleCell(f, i, col, rec[col], cell)
				if err != nil {
					return err
				}
				if wrote {
					written[fragAt{c, gi}] = true
				}
			}
		}
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
	// compressed domain.
	for w := range written {
		t.invalidateFrag(w.c.frags[w.gi])
		t.sealFrag(w.c, w.gi)
	}
	t.deltas.Prune(minTS)
	t.pinned = t.deltas.Versions()
	return nil
}

// settleCell writes v into cell (i, col) of f unless the cell already
// holds v's encoding, and reports whether it wrote. scratch holds any
// attribute's encoding.
func (t *Table) settleCell(f *layout.Fragment, i, col int, v schema.Value, scratch []byte) (bool, error) {
	a := t.s.Attr(col)
	if err := schema.EncodeValue(scratch, a, v); err != nil {
		return false, err
	}
	old, err := f.FieldBytes(i, col)
	if err != nil || bytes.Equal(old, scratch[:a.Size]) {
		return false, err
	}
	return true, f.Set(i, col, v)
}

// forgetPoint drops row's cached point read: a settlement changes the
// row's base without moving its chunk's epoch, and the entry was
// published before the row had a version.
func (t *Table) forgetPoint(row uint64) {
	if cache := t.eng.rescache; cache != nil {
		cache.Drop(t.pointKey(row))
	}
}

// pointKey is the result-cache key of a point read of row.
func (t *Table) pointKey(row uint64) rescache.Key {
	return rescache.Key{Table: t.rel.Name(), Op: exec.KindGet, Row: row}
}
