package core

import (
	"fmt"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
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
// walk of the snapshot's visible deltas, and per plan a fold order that
// does not depend on the cohort — so a solo query is the K=1 case of the
// same code, and result k of a batch is exactly what a solo Execute of
// plans[k] would return against that snapshot.
//
// Because all K answers derive from one snapshot taken after every
// batched request arrived, handing result k to requester k is a valid
// linearization of the batch.
//
// The result cache sits above the scan body (see rescache.go for the
// stamp protocol): each plan is probed individually under the one stamp
// the shared RLock section freezes, hits drop out of the batch, and only
// the missing plans pay the scan — their answers are published for
// future repeats. The normalized plan is the cache key. Mixing cached
// and fresh answers is sound because a hit requires stamp equality:
// both were computed over byte-identical base state.

// scanCols lists the columns an aggregate shape folds, in stamp order.
func scanCols(shape exec.Plan) []int {
	if shape.Op == exec.KindGroupSum || shape.Op == exec.KindGroupSumWhere {
		return []int{shape.KeyCol, shape.Col}
	}
	return []int{shape.Col}
}

// cacheKey is the plan as the result cache keys it.
func (t *Table) cacheKey(p exec.Plan) rescache.Key {
	p.Table = t.rel.Name()
	return p.Normalize()
}

// Execute answers every plan — all of one shape — from one lock
// acquisition and one MVCC snapshot; result k belongs to plans[k].
func (t *Table) Execute(plans []exec.Plan) ([]exec.Result, error) {
	out := make([]exec.Result, len(plans))
	if len(plans) == 0 {
		return out, nil
	}
	shape := plans[0].Normalize().Shape()
	for _, p := range plans[1:] {
		if s := p.Normalize().Shape(); s != shape {
			return nil, fmt.Errorf("%w: %v batched with %v", exec.ErrBadPlan, s, shape)
		}
	}
	if err := shape.Check(t.s); err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if shape.Op == exec.KindGet {
		if len(plans) == 1 {
			// A lone get takes no snapshot unless the cache misses and
			// charges its one gather itself.
			rec, err := t.getLocked(plans[0].Row)
			out[0].Rec = rec
			return out, err
		}
		return out, t.gatherLocked(plans, out)
	}
	reader := t.deltas.Begin()
	defer reader.Abort()
	// The monitor sees K logical column scans: a batch changes the
	// execution cost, not the workload the adaptation layer reasons
	// about.
	cols := scanCols(shape)
	for range plans {
		t.mon.Observe(workload.Op{Kind: workload.ColumnScan, Cols: cols})
	}

	// Probe the cache per plan; todo are the plans still to execute (the
	// inputs themselves when nothing hit).
	todo := plans
	cache := t.eng.rescache
	var keys []rescache.Key
	var missIdx []int
	var st rescache.Stamp
	cacheable := false
	if cache != nil {
		if cacheable = t.deltas.Versions() == 0; cacheable {
			st, cacheable = t.stampLocked(cols...)
		}
		keys = make([]rescache.Key, len(plans))
		for i, p := range plans {
			if cacheable {
				keys[i] = t.cacheKey(p)
				if v, ok := cache.Lookup(keys[i], st); ok {
					out[i] = v
					continue
				}
			} else {
				cache.Bypass()
			}
			missIdx = append(missIdx, i)
		}
		if len(missIdx) == 0 {
			return out, nil
		}
		if len(missIdx) < len(plans) {
			todo = make([]exec.Plan, len(missIdx))
			for j, i := range missIdx {
				todo[j] = plans[i]
			}
		}
	}

	src := t.source(reader)
	res, err := engine.ScanCohort(src, t.cfg, t.env.DeviceExec(t.rel.Name()), todo)
	src.release()
	if err != nil || cache == nil {
		return res, err
	}
	// Publish only if the RLock section stayed delta-free end to end:
	// Versions only grows under the read lock, so 0 after execution proves
	// the scan patched nothing and its answers are a pure function of the
	// stamped base state.
	publish := cacheable && t.deltas.Versions() == 0
	for j, i := range missIdx {
		out[i] = res[j]
		if publish {
			cache.Put(keys[i], st, res[j])
		}
	}
	return out, nil
}

// Peek answers a plan from the result cache only — the serving layer's
// pre-admission fast path, which never executes a scan. A hit costs the
// read lock, an O(#fragments) stamp walk and a map probe; anything
// else — cache disabled, hot deltas, invalid column, miss — reports
// false and the caller proceeds to Execute, whose own cache Lookup
// records the miss.
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
	st, ok := t.stampLocked(scanCols(p)...)
	if !ok {
		return exec.Result{}, false
	}
	return cache.Peek(t.cacheKey(p), st)
}

// Scan executes a single plan: the named query methods are sugar over
// it.
func (t *Table) Scan(p exec.Plan) (exec.Result, error) {
	res, err := t.Execute([]exec.Plan{p})
	if err != nil {
		return exec.Result{}, err
	}
	return res[0], nil
}

// mPatchRows counts the rows patchRows handed to a callback: the work a
// scan (or Merge) does for live deltas, which follows the number of
// visible delta rows and not the table's size.
var mPatchRows = obs.NewCounter("core.patch.rows")

// patchRows is the one MVCC patch iterator: it calls fn, in ascending
// row order, with every table row that carries a delta version the
// reader's snapshot sees — that version's record and commit timestamp.
// It is tx.Store.RangeVisible clipped to the table's rows, so a walk
// costs the live chains, not the table's rows, and takes the store's
// lock once; fn inherits the iterator's contract: rec is read-only and
// not retained. reader must be a fresh read-only snapshot (the iterator
// does not see a transaction's own buffered writes).
func (t *Table) patchRows(reader *tx.Tx, fn func(row uint64, rec schema.Record, verTS uint64) error) error {
	if reader.Pending() != 0 {
		panic("core: patchRows over a transaction with buffered writes")
	}
	rows := t.rel.Rows()
	var err error
	var handed int64
	t.deltas.RangeVisible(reader.SnapshotTS(), func(row uint64, rec schema.Record, verTS uint64) bool {
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
// on row: its key and the stamp of just its chunk's fragments — the precise validity domain of a point read, so an insert
// or merge elsewhere in the table does not invalidate it. ok is false
// when the row is out of range or carries delta versions (LatestTS is
// monotone under RLock, so 0 here proves 0 for the rest of the
// section). Caller holds t.mu.
func (t *Table) rowStampLocked(row uint64) (rescache.Key, rescache.Stamp, bool) {
	if row >= t.rel.Rows() || t.deltas.LatestTS(row) != 0 {
		return rescache.Key{}, rescache.Stamp{}, false
	}
	c, err := t.chunkFor(row)
	if err != nil {
		return rescache.Key{}, rescache.Stamp{}, false
	}
	return rescache.Key{Table: t.rel.Name(), Op: exec.KindGet, Row: row}, t.chunkStampLocked(c), true
}

// pointLocked is the one point-read body. Under the caller's read lock
// it answers row from its result-cache entry while the row is delta-free
// and the entry current, else from reader's snapshot — the delta version
// it sees or the base fragments — and publishes what it read if the row
// stayed clean. A nil reader is a lone read: it begins its own snapshot,
// and only on a cache miss. c is the chunk whose base fragments were
// read (nil for a hit or a delta), left for the caller to charge.
func (t *Table) pointLocked(reader *tx.Tx, row uint64) (rec schema.Record, c *chunk, err error) {
	if rows := t.rel.Rows(); row >= rows {
		return nil, nil, fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, rows)
	}
	t.mon.Observe(workload.Op{Kind: workload.PointRead, Cols: layout.AllCols(t.s)})
	cache := t.eng.rescache
	var key rescache.Key
	var st rescache.Stamp
	cacheable := false
	if cache != nil {
		if key, st, cacheable = t.rowStampLocked(row); !cacheable {
			cache.Bypass()
		} else if v, ok := cache.Lookup(key, st); ok {
			return v.Rec, nil, nil
		}
	}
	if reader == nil {
		reader = t.deltas.Begin()
		defer reader.Abort()
	}
	if rec, c, err = t.readAt(reader, row); err != nil {
		return nil, nil, err
	}
	if cacheable && t.deltas.LatestTS(row) == 0 {
		cache.Put(key, st, rescache.Value{Rec: rec})
	}
	return rec, c, nil
}

// getLocked materializes the current record at row under the caller's
// read lock: the lone case of the point read, charged as one gather.
func (t *Table) getLocked(row uint64) (schema.Record, error) {
	rec, c, err := t.pointLocked(nil, row)
	t.chargeDeviceGather(c, 1)
	return rec, err
}

// gatherLocked materializes many rows from one snapshot — the storage
// half of the serving layer's gather fan-in. Results are bit-identical
// to one solo get per row against the same snapshot, but the pass
// charges device-resident gathers per CHUNK: k rows hitting one chunk's
// device fragments cost one bus transfer of k-fold bytes (one fixed
// transfer latency) instead of k separate transfers.
func (t *Table) gatherLocked(plans []exec.Plan, out []exec.Result) error {
	reader := t.deltas.Begin() // before the first probe: a hit must hold at the snapshot
	defer reader.Abort()
	gathers := make(map[*chunk]int64)
	for i, p := range plans {
		rec, c, err := t.pointLocked(reader, p.Row)
		if err != nil {
			return err
		}
		out[i].Rec = rec
		if c != nil {
			gathers[c]++
		}
	}
	for c, k := range gathers {
		t.chargeDeviceGather(c, k)
	}
	return nil
}
