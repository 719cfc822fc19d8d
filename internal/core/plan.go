package core

import (
	"fmt"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/obs"
	"hybridstore/internal/rescache"
	"hybridstore/internal/schema"
	"hybridstore/internal/tx"
	"hybridstore/internal/workload"
)

// This file is the engine's one read entry. Every read — a point get, a
// column sum, a predicate aggregate, a fused group-by — arrives as an
// exec.Plan, and Execute answers any number of plans of one shape from
// one lock acquisition and one MVCC snapshot. The aggregate kinds then
// run the scan body every engine shares (engine.ScanCohort) over the
// table as a piece source (source.go): one walk of the chunk list, one
// exec.Scan carrying every plan's predicate to the host and device legs,
// one fold of the snapshot's visible deltas, and per plan a fold order
// that does not depend on the cohort — so a solo query is the K=1 case
// of the same code, and result k of a batch is exactly what a solo
// Execute of plans[k] would return against that snapshot, under every
// host policy.
//
// Because all K answers derive from one snapshot taken after every
// batched request arrived, handing result k to requester k is a valid
// linearization of the batch.
//
// The result cache rides inside the scan body (see rescache.go for the
// stamp protocol): under a result cache the scan source is also the
// store of settled-base answers (engine.Bases), each plan's result over
// the base fragments alone, keyed by the normalized plan under the one
// epoch the shared RLock section freezes. A plan whose base is cached
// skips the chunk walk and both legs; the others compute and publish
// theirs; then every plan of the batch, cached or not, joins the one
// fold of this snapshot's MVCC patch. The patch runs the same float
// operations in the same row order whether its base came from the cache
// or not, so a cached answer is the uncached one, bit for bit.

// cacheKey is the plan as the result cache keys it.
func (t *Table) cacheKey(p exec.Plan) rescache.Key {
	p.Table = t.rel.Name()
	return p.Normalize()
}

// Execute answers every plan — all of one shape — from one lock
// acquisition and one MVCC snapshot; result k belongs to plans[k]. The
// results are read-only: a get's record may be the result cache's own.
func (t *Table) Execute(plans []exec.Plan) ([]exec.Result, error) {
	out := make([]exec.Result, len(plans))
	if err := t.execute(plans, out); err != nil {
		return nil, err
	}
	return out, nil
}

// execute is Execute writing result k to out[k], which holds one slot
// per plan.
func (t *Table) execute(plans []exec.Plan, out []exec.Result) error {
	if len(plans) == 0 {
		return nil
	}
	shape := plans[0].Normalize().Shape()
	for _, p := range plans[1:] {
		if s := p.Normalize().Shape(); s != shape {
			return fmt.Errorf("%w: %v batched with %v", exec.ErrBadPlan, s, shape)
		}
	}
	if err := shape.Check(t.s); err != nil {
		return err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if shape.Op == exec.KindGet {
		// A lone get takes no snapshot unless the cache misses; K gets
		// share one, begun before the first probe so a hit holds at it.
		// Each row is charged as a solo get.
		var reader *tx.Tx
		if len(plans) > 1 {
			reader = t.deltas.Begin()
			defer reader.Abort()
		}
		for i, p := range plans {
			rec, _, err := t.pointLocked(reader, p.Row)
			if err != nil {
				return err
			}
			out[i].Rec = rec
		}
		return nil
	}
	reader := t.deltas.Begin()
	defer reader.Abort()
	// The monitor sees K logical column scans: a batch changes the
	// execution cost, not the workload the adaptation layer reasons
	// about.
	cols := []int{shape.Col}
	if shape.Op.Grouped() {
		cols = []int{shape.KeyCol, shape.Col}
	}
	for range plans {
		t.mon.Observe(workload.Op{Kind: workload.ColumnScan, Cols: cols})
	}
	return t.scanAt(reader, plans, out)
}

// scanAt runs the scan body over the table under reader's snapshot, the
// result cache as its store of settled bases. Caller holds t.mu.
func (t *Table) scanAt(reader *tx.Tx, plans []exec.Plan, out []exec.Result) error {
	src := t.source(reader)
	var bases engine.Bases
	if t.eng.rescache != nil {
		bases = src
	}
	err := engine.ScanCohort(src, t.cfg, &t.dev, plans, bases, out)
	src.release()
	return err
}

// Peek answers a plan from the result cache only — the serving layer's
// pre-admission fast path, which never executes a scan and never
// patches. An aggregate's entry is its settled base, the answer only
// while no delta version exists; a hit costs the read lock, one epoch
// compare and a map probe. Anything else — cache disabled, live deltas,
// miss — reports false and the caller proceeds to Execute, whose own
// cache Lookup records the miss (and may hit, and patch). A hit is the
// cache entry itself, read-only.
func (t *Table) Peek(p exec.Plan) (exec.Result, bool) {
	cache := t.eng.rescache
	if cache == nil {
		return exec.Result{}, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if p.Op == exec.KindGet {
		if key, st, ok := t.rowStampLocked(p.Row); ok {
			return cache.Peek(key, st)
		}
		return exec.Result{}, false
	}
	if t.deltas.Versions() != 0 {
		return exec.Result{}, false
	}
	return cache.Peek(t.cacheKey(p), t.epoch)
}

// Scan executes a single plan, the one-plan case of Execute: the
// engine contract's aggregate entry, and what the facade's named
// queries run.
func (t *Table) Scan(p exec.Plan) (exec.Result, error) {
	plans, out := [1]exec.Plan{p}, [1]exec.Result{}
	if err := t.execute(plans[:], out[:]); err != nil {
		return exec.Result{}, err
	}
	return out[0], nil
}

// mPatchRows counts the rows handed to an MVCC patch callback — a
// scan's fold (Patches) or Merge's walk: the work done for live deltas,
// which follows the number of visible delta rows and not the table's
// size.
var mPatchRows = obs.NewCounter("core.patch.rows")

// patchRows is Merge's walk of the MVCC patch: it calls fn, in
// ascending row order, with every table row that carries a delta
// version the reader's snapshot sees — that version's record and commit
// timestamp. It is tx.Store.RangeVisible from since = 0 clipped to the
// table's rows, so a walk costs the live chains, not the table's rows,
// and takes the store's lock once; fn inherits the iterator's contract:
// rec is read-only and not retained. reader must be a fresh read-only
// snapshot (the iterator does not see a transaction's own buffered
// writes). A scan does not walk: it folds the table's patch projection
// (projection.go).
func (t *Table) patchRows(reader *tx.Tx, fn func(row uint64, rec schema.Record, verTS uint64) error) error {
	if reader.Pending() != 0 {
		panic("core: patchRows over a transaction with buffered writes")
	}
	rows := t.rel.Rows()
	var err error
	var handed int64
	t.deltas.RangeVisible(0, reader.SnapshotTS(), func(row uint64, rec schema.Record, verTS uint64) bool {
		if row >= rows {
			return false // ascending: nothing below rows is left
		}
		handed++
		err = fn(row, rec, verTS)
		return err == nil
	})
	mPatchRows.Add(handed)
	return err
}

// rowStampLocked resolves the result-cache coordinates of a point read
// on row: its key and its chunk's epoch — the precise validity domain of
// a point read, so an insert elsewhere in the table does not invalidate
// it, nor does a settlement of other rows (which forgets the entries of
// the rows it settles). ok is false when the row is out of range or carries
// delta versions (LatestTS is monotone under RLock, so 0 here proves 0
// for the rest of the section). Caller holds t.mu.
func (t *Table) rowStampLocked(row uint64) (rescache.Key, rescache.Stamp, bool) {
	c, err := t.chunkFor(row)
	if err != nil || row >= t.rel.Rows() || t.deltas.LatestTS(row) != 0 {
		return rescache.Key{}, rescache.Stamp{}, false
	}
	return t.pointKey(row), c.epoch, true
}

// pointLocked is the one point-read body. Under the caller's read lock
// it answers row from its result-cache entry while the row is delta-free
// and the entry current, else from reader's snapshot — the delta version
// it sees or the base fragments — and publishes what it read if the row
// stayed clean. A nil reader is a lone read: it begins its own snapshot,
// and only on a cache miss. A read of base fragments is charged as one
// device gather.
//
// The record is read-only: shared reports that it is the cache entry's
// own, which outlives the request; otherwise it is a private copy. Either
// way the read made at most one heap copy — a miss reads into a stack
// buffer, and publishing it is the copy.
func (t *Table) pointLocked(reader *tx.Tx, row uint64) (schema.Record, bool, error) {
	if rows := t.rel.Rows(); row >= rows {
		return nil, false, fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, rows)
	}
	t.mon.Observe(workload.Op{Kind: workload.PointRead, Cols: t.allCols})
	cache := t.eng.rescache
	var key rescache.Key
	var st rescache.Stamp
	cacheable := false
	if cache != nil {
		if key, st, cacheable = t.rowStampLocked(row); cacheable {
			if v, ok := cache.Peek(key, st); ok {
				return v.Rec, true, nil
			}
		}
		cache.Bypass() // uncacheable, or a miss, which Peek leaves uncounted
	}
	if reader == nil {
		reader = t.deltas.Begin()
		defer reader.Abort()
	}
	var buf [8]schema.Value
	rec, c, err := t.readInto(reader, row, buf[:0])
	if err != nil {
		return nil, false, err
	}
	t.chargeDeviceGather(c)
	if cacheable && t.deltas.LatestTS(row) == 0 {
		return cache.Put(key, st, rescache.Value{Rec: rec}).Rec, true, nil
	}
	return rec.Clone(), false, nil
}

// getLocked materializes the current record at row under the caller's
// read lock: the lone case of the point read. The record is the
// caller's own.
func (t *Table) getLocked(row uint64) (schema.Record, error) {
	rec, shared, err := t.pointLocked(nil, row)
	if shared {
		rec = rec.Clone()
	}
	return rec, err
}
