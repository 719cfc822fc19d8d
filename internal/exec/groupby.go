package exec

import (
	"fmt"
	"slices"
	"time"

	"hybridstore/internal/agg"
	"hybridstore/internal/exec/pool"
	"hybridstore/internal/layout"
	"hybridstore/internal/obs"
)

// GroupResult is one group of a grouped aggregation: Key (int64-widened),
// Sum and Count. It is the group table's own entry type, so a table's
// rows are a result without a copy.
type GroupResult = agg.Group

// The grouped host body: SELECT key, SUM(val), COUNT(*) [WHERE p] GROUP
// BY key in one pass per piece. No selection vector is materialized —
// each element is tested and, on a match, folded straight into a
// per-worker group table (agg.Table); the tables merge at the end. Data
// skipping rides on the value column's zone map: fragments the predicate
// provably cannot match are pruned before any byte is touched (and the
// key column's bytes are saved along with the value column's). A
// fragment the zone proves all-matching still runs the filtered loop:
// its compare always passes, and agg.FoldWhere reads an aligned column
// through typed views, faster than the unfiltered byte loop. Without a
// predicate every range takes the unfiltered loop.
//
// The predicate is resolved to a closed interval [lo, hi] once per call
// (Pred.Closed), so the hot loop carries a single two-sided compare
// instead of a per-element Op switch — the same branch-light shape the
// device kernel consumes.

// Fused group-by observability: flat process-wide counters (the fused
// path is what the fusion panel and the adaptation layer watch, so the
// figures aggregate across policies) plus a 1-in-64 sampled latency
// histogram, mirroring the per-policy operator families' sampling.
var (
	mGroupFusedOps       = obs.NewCounter("exec.groupby.fused.ops")
	mGroupFusedGroups    = obs.NewCounter("exec.groupby.fused.groups")
	mGroupFusedFallbacks = obs.NewCounter("exec.groupby.fused.fallbacks")
	hGroupFusedNs        = obs.NewHistogram("exec.groupby.fused.ns")
)

// startGroupFused counts one fused grouped invocation and opens a
// latency sample every 64th call.
func startGroupFused() opTimer {
	if mGroupFusedOps.Inc()&latSampleMask != 0 {
		return opTimer{}
	}
	return opTimer{h: hGroupFusedNs, t0: time.Now()}
}

// checkGroupCols validates the key/value piece shapes of a grouped scan:
// both views cover identical position runs, the values are 8 bytes wide
// and the keys 8 or 4.
func checkGroupCols(keys, vals []Piece) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("%w: %d key pieces vs %d value pieces", ErrBadColumn, len(keys), len(vals))
	}
	for i := range keys {
		if keys[i].Rows != vals[i].Rows || keys[i].Vec.Len != vals[i].Vec.Len {
			return fmt.Errorf("%w: piece %d misaligned (%v vs %v)", ErrBadColumn, i, keys[i].Rows, vals[i].Rows)
		}
		if size := keys[i].Vec.Size; size != 8 && size != 4 {
			return fmt.Errorf("%w: group key of %d bytes", ErrBadColumn, size)
		}
	}
	return checkSize8(vals, "grouped float64 aggregate")
}

// eachAligned visits the sub-ranges of aligned pairs covering the
// global element positions [gFrom, gTo); fn receives the pair index and
// the local element range within it.
func eachAligned(keys []Piece, gFrom, gTo int, fn func(pi, from, to int)) {
	base := 0
	for pi := range keys {
		n := keys[pi].Vec.Len
		pFrom, pTo := gFrom-base, gTo-base
		base += n
		if pTo <= 0 {
			break
		}
		if pFrom < 0 {
			pFrom = 0
		}
		if pFrom >= n {
			continue
		}
		if pTo > n {
			pTo = n
		}
		fn(pi, pFrom, pTo)
	}
}

// groupTables runs fold over total global positions under the
// configured policy and returns the partial tables, one per range of
// the partition, so their merge in range order depends on the policy's
// grain, never on which worker claimed which morsel. Tables hold query
// results, so they are per-call (never pooled) — a stale table must not
// leak one query's groups into another.
func groupTables(cfg Config, total int, fold func(table *agg.Table, gFrom, gTo int)) []agg.Table {
	slots := cfg.slots()
	g := cfg.grain(slots, total)
	tables := make([]agg.Table, pool.Morsels(total, g))
	cfg.partition(slots, total, func(_, from, to int) {
		fold(&tables[from/g], from, to)
	})
	return tables
}

// mergeGroupTables folds partial tables in order into one table in key
// order.
func mergeGroupTables(tables []agg.Table) []GroupResult {
	if len(tables) == 1 {
		return tables[0].Drain(nil)
	}
	var merged agg.Table
	var part []GroupResult
	for i := range tables {
		part = tables[i].Drain(part[:0])
		merged.Merge(part)
	}
	return merged.Drain(nil)
}

// keyView returns a piece's group keys as the strided view the fused
// loops read: raw vectors in place, compressed keys bulk-decoded once
// into a scratch image (the sealed-key case is rare and the scratch is
// per-call).
func keyView(p Piece) (agg.Keys, error) {
	if p.Comp == nil {
		return keysOf(p.Vec), nil
	}
	size := p.Comp.ElementSize()
	if size != 8 && size != 4 {
		return agg.Keys{}, fmt.Errorf("%w: compressed group key of %d bytes", ErrBadColumn, size)
	}
	return agg.Keys{Data: p.Comp.Decompress(), Stride: size, Size: size}, nil
}

// keysOf views a raw key vector as group keys.
func keysOf(v layout.ColVector) agg.Keys {
	return agg.Keys{Data: v.Data[v.Base:], Stride: v.Stride, Size: v.Size}
}

// foldGroupRange is the fused float kernel over elements [from, to) of
// an uncompressed value column and its group keys: compare the value
// against the closed interval, fold the match into its key's group.
// all skips the compare when there is no predicate: every value, NaNs
// included.
func foldGroupRange(table *agg.Table, keys agg.Keys, vp layout.ColVector, from, to int, lo, hi float64, all bool) {
	if from >= to {
		return
	}
	keys.Data = keys.Data[from*keys.Stride:]
	vals := vp.Data[vp.Base+from*vp.Stride:]
	if all {
		table.FoldAll(keys, vals, vp.Stride, to-from)
	} else {
		table.FoldWhere(keys, vals, vp.Stride, to-from, lo, hi)
	}
}

// groupSum is the grouped host body, group_sum and group_sum_where
// alike: one fused pass with no selection vector, zone-pruned fragments
// never touched — and, unfiltered, nothing pruned and no compare. keys must be
// an int64 or int32 column view, vals a float64 one, both covering the
// same positions (compressed pieces execute in the compressed domain).
// Results come back sorted by key.
func groupSum(cfg Config, keys, vals []Piece, p Pred, filtered bool) ([]GroupResult, error) {
	if err := checkGroupCols(keys, vals); err != nil {
		return nil, err
	}
	var ot opTimer
	if filtered {
		ot = startGroupFused()
	} else {
		ot = obsGroupBy.start(cfg.Policy)
	}
	defer ot.end()
	var lo, hi float64
	if filtered {
		keys, vals, _ = pruneByZone(cfg, keys, vals, p)
		var ok bool
		if lo, hi, ok = p.Closed(); !ok {
			// Empty interval: provably no matches, nothing scanned.
			return nil, nil
		}
	}
	// The all-raw pairs fold partitioned over the slots; the pairs with a
	// compressed side fold, in piece order, into one more table behind
	// the slots'.
	rawPair := func(i int) bool { return !isComp(keys[i]) && !isComp(vals[i]) }
	rawKeys, rawVals := keys, vals
	comp := slices.ContainsFunc(keys, isComp) || slices.ContainsFunc(vals, isComp)
	if comp {
		rawKeys, rawVals = nil, nil
		for i := range keys {
			if rawPair(i) {
				rawKeys, rawVals = append(rawKeys, keys[i]), append(rawVals, vals[i])
			}
		}
	}
	tables := groupTables(cfg, totalLen(rawKeys), func(table *agg.Table, gFrom, gTo int) {
		eachAligned(rawKeys, gFrom, gTo, func(pi, from, to int) {
			foldGroupRange(table, keysOf(rawKeys[pi].Vec), rawVals[pi].Vec, from, to, lo, hi, !filtered)
		})
	})
	if comp {
		tables = append(tables, agg.Table{})
		ct := &tables[len(tables)-1]
		for i, vp := range vals {
			if rawPair(i) {
				continue
			}
			kv, err := keyView(keys[i])
			if err != nil {
				return nil, err
			}
			if vp.Comp != nil {
				if _, _, err := vp.Comp.Fold(filtered, lo, hi, kv, ct); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrBadColumn, err)
				}
				continue
			}
			// Raw values under a compressed key.
			if !kv.Covers(vp.Vec.Len) {
				return nil, fmt.Errorf("%w: group keys do not cover %d values", ErrBadColumn, vp.Vec.Len)
			}
			foldGroupRange(ct, kv, vp.Vec, 0, vp.Vec.Len, lo, hi, !filtered)
		}
	}
	out := mergeGroupTables(tables)
	if filtered {
		mGroupFusedGroups.Add(int64(len(out)))
	}
	cfg.chargeScan(keys)
	cfg.chargeScan(vals)
	return out, nil
}

// GroupSumFloat64Where computes SELECT key, SUM(val), COUNT(*) WHERE p
// GROUP BY key over two parallel column views ("mostly aggregations and
// groupings are executed on read-only data" is the paper's
// characterization of the OLAP side, Section II-A): a group_sum_where
// scan on the host.
func GroupSumFloat64Where(cfg Config, keys, vals []Piece, p Pred) ([]GroupResult, error) {
	var out [1]Result
	err := cfg.Scan(Scan{Plan: Plan{Op: KindGroupSumWhere, Pred: p}, Keys: keys, Vals: vals}, out[:])
	return out[0].Groups, err
}
