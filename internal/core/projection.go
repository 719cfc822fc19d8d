package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/obs"
	"hybridstore/internal/rescache"
	"hybridstore/internal/schema"
)

// mPatchRowsRead counts the rows the version store handed to a patch
// projection's advance: under a warm projection, exactly the rows whose
// visible version changed since the previous scan.
var mPatchRowsRead = obs.NewCounter("core.patch.rows_read")

// projection is a table's MVCC patch kept as columns (DESIGN.md §14):
// ascending by row, every row with a delta version visible at snapshot
// ts, and per projected column that row's base and current cell. It is
// valid for one table epoch, inside which no base cell changes and no
// row leaves the set — a chain goes only in Forget, which drops only
// rows a settlement settled, and settling anything moves the table's
// epoch; Prune keeps the version visible at every snapshot from its
// horizon on, and every reader begins after the settlement that pruned,
// since it holds t.mu. So a
// scan at ts' >= ts under the same epoch reads from the store only the
// rows whose visible version committed after ts.
type projection struct {
	mu    sync.Mutex
	ok    bool           // false: the next advance rebuilds from since = 0
	epoch rescache.Stamp // the base state the base cells were read from
	ts    uint64         // the snapshot the cells are at
	rows  []uint64       // ascending
	cols  []projCol
	fresh []uint64 // one advance's changed rows, then its new ones
}

// projCol is one projected column: cells as raw 8-byte values (float64
// bits, or an integer sign-extended — ColVector.Int of either),
// parallel to projection.rows.
type projCol struct {
	col       int
	float     bool
	base, cur []uint64
	// One advance's scratch, parallel to projection.fresh, and the
	// column's vector in the chunk being read.
	freshBase, freshCur []uint64
	vec                 layout.ColVector
}

// ahead reports whether the projection is valid at a snapshot newer than
// ts, which it cannot be brought back to. Caller holds t.mu (read) and
// pj.mu.
func (pj *projection) ahead(t *Table, ts uint64) bool {
	return pj.ok && pj.epoch.Equal(t.epoch) && ts < pj.ts
}

// advance brings the projection to snapshot ts, which it is not ahead
// of, with p's value and key columns projected, and returns them (keys
// nil for an ungrouped plan). It rebuilds from since = 0 when the epoch
// moved, a column is missing or the previous advance failed (a new
// projection is one that failed); else it reads only the rows changed
// since the projection's ts, updates the current cells of those it holds
// and merges the new ones in with their base cells. Caller holds t.mu
// (read) and pj.mu.
func (pj *projection) advance(t *Table, ts uint64, p exec.Plan) (vals, keys *projCol, err error) {
	grouped := p.Op.Grouped()
	vi, ki := pj.col(p.Col), -1
	if grouped {
		ki = pj.col(p.KeyCol)
	}
	since := pj.ts
	if !pj.ok || !pj.epoch.Equal(t.epoch) || vi < 0 || grouped && ki < 0 {
		since = 0
		pj.rows = pj.rows[:0]
		for j := range pj.cols {
			pj.cols[j].base, pj.cols[j].cur = pj.cols[j].base[:0], pj.cols[j].cur[:0]
		}
		if vi < 0 {
			vi = pj.add(t, p.Col)
		}
		if grouped && ki < 0 {
			ki = pj.add(t, p.KeyCol)
		}
	}
	pj.ok = false
	if err := pj.read(t, since, ts); err != nil {
		return nil, nil, err
	}
	pj.ts, pj.epoch, pj.ok = ts, t.epoch, true
	if grouped {
		keys = &pj.cols[ki]
	}
	return &pj.cols[vi], keys, nil
}

// col returns the index of col's projection, -1 if it has none.
func (pj *projection) col(col int) int {
	return slices.IndexFunc(pj.cols, func(pc projCol) bool { return pc.col == col })
}

// add projects col, empty, and returns its index.
func (pj *projection) add(t *Table, col int) int {
	pj.cols = append(pj.cols, projCol{col: col, float: t.s.Attr(col).Kind == schema.Float64})
	return len(pj.cols) - 1
}

// read applies the rows whose version visible at ts committed after
// since: current cells of held rows are overwritten, new rows are
// merged in from the back.
func (pj *projection) read(t *Table, since, ts uint64) error {
	rows := t.rel.Rows()
	pj.fresh = pj.fresh[:0]
	for j := range pj.cols {
		pj.cols[j].freshCur = pj.cols[j].freshCur[:0]
	}
	t.deltas.RangeVisible(since, ts, func(row uint64, rec schema.Record, _ uint64) bool {
		if row >= rows {
			return false // ascending: nothing below rows is left
		}
		pj.fresh = append(pj.fresh, row)
		for j := range pj.cols {
			pc := &pj.cols[j]
			v := uint64(rec[pc.col].I)
			if pc.float {
				v = math.Float64bits(rec[pc.col].F)
			}
			pc.freshCur = append(pc.freshCur, v)
		}
		return true
	})
	mPatchRowsRead.Add(int64(len(pj.fresh)))

	// Held rows take their new current cells; new ones move to the front.
	n, at := 0, 0
	for i, row := range pj.fresh {
		k, held := slices.BinarySearch(pj.rows[at:], row)
		if at += k; held {
			for j := range pj.cols {
				pj.cols[j].cur[at] = pj.cols[j].freshCur[i]
			}
			continue
		}
		pj.fresh[n] = row
		for j := range pj.cols {
			pj.cols[j].freshCur[n] = pj.cols[j].freshCur[i]
		}
		n++
	}
	pj.fresh = pj.fresh[:n]
	if n == 0 {
		return nil
	}

	// Base cells of the new rows, each chunk's vectors resolved once.
	for j := range pj.cols {
		pj.cols[j].freshBase = pj.cols[j].freshBase[:0]
	}
	var c *chunk
	for _, row := range pj.fresh {
		var err error
		if c == nil || !c.rows.Contains(row) {
			if c, err = t.chunkFor(row); err != nil {
				return err
			}
			for j := range pj.cols {
				pc := &pj.cols[j]
				if pc.vec, err = t.colVectorFor(c, pc.col); err != nil {
					return err
				}
			}
		}
		k := int(row - c.rows.Begin)
		for j := range pj.cols {
			pc := &pj.cols[j]
			if k >= pc.vec.Len {
				return fmt.Errorf("%w: tuplet %d of %d", layout.ErrOutOfRange, k, pc.vec.Len)
			}
			pc.freshBase = append(pc.freshBase, uint64(pc.vec.Int(k)))
		}
	}

	// Merge from the back, in place: the held rows between two new ones
	// move up as one block, past the new rows below them.
	old := len(pj.rows)
	pj.rows = slices.Grow(pj.rows, n)[:old+n]
	for j := range pj.cols {
		pc := &pj.cols[j]
		pc.base, pc.cur = slices.Grow(pc.base, n)[:old+n], slices.Grow(pc.cur, n)[:old+n]
	}
	for f, hi := n-1, old; f >= 0; f-- {
		lo, _ := slices.BinarySearch(pj.rows[:hi], pj.fresh[f])
		copy(pj.rows[lo+f+1:], pj.rows[lo:hi])
		pj.rows[lo+f] = pj.fresh[f]
		for j := range pj.cols {
			pc := &pj.cols[j]
			copy(pc.base[lo+f+1:], pc.base[lo:hi])
			copy(pc.cur[lo+f+1:], pc.cur[lo:hi])
			pc.base[lo+f], pc.cur[lo+f] = pc.freshBase[f], pc.freshCur[f]
		}
		hi = lo
	}
	return nil
}
