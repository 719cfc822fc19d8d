package exec

import (
	"fmt"
	"time"

	"hybridstore/internal/agg"
	"hybridstore/internal/layout"
	"hybridstore/internal/obs"
	"hybridstore/internal/stats"
)

// GroupResult is one group of a grouped aggregation: Key (int64-widened),
// Sum and Count. It is the group table's own entry type, so a table's
// rows are a result without a copy.
type GroupResult = agg.Group

// The grouped host body: SELECT key, SUM(val), COUNT(*) [WHERE p] GROUP
// BY key in one pass per piece. No selection vector is materialized —
// each element is tested and, on a match, folded straight into a
// per-worker group table (agg.Table); the tables merge at the end. Two
// layers of data skipping ride on the value column's zone map: fragments
// the predicate provably cannot match are pruned before any byte is
// touched (and the key column's bytes are saved along with the value
// column's), and fragments the zone proves all-matching take a dense
// accumulation loop with no per-element comparison at all. Without a
// predicate every range is dense.
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

// splitAlignedComp partitions aligned pairs into all-raw pairs (both
// columns carry bytes) and pairs where either side is compressed. The
// raw slices alias the inputs when nothing is compressed.
func splitAlignedComp(keys, vals []Piece) (rawKeys, rawVals, compKeys, compVals []Piece) {
	split := false
	for i := range keys {
		if keys[i].Comp == nil && vals[i].Comp == nil {
			if split {
				rawKeys = append(rawKeys, keys[i])
				rawVals = append(rawVals, vals[i])
			}
			continue
		}
		if !split {
			rawKeys = append(rawKeys, keys[:i]...)
			rawVals = append(rawVals, vals[:i]...)
			split = true
		}
		compKeys = append(compKeys, keys[i])
		compVals = append(compVals, vals[i])
	}
	if !split {
		return keys, vals, nil, nil
	}
	return rawKeys, rawVals, compKeys, compVals
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
// configured policy and returns the per-slot partial tables. Tables hold
// query results, so they are per-call (never pooled) — a stale table
// must not leak one query's groups into another.
func groupTables(cfg Config, total int, fold func(table *agg.Table, gFrom, gTo int)) []agg.Table {
	slots := cfg.slots()
	tables := make([]agg.Table, slots)
	cfg.partition(slots, total, func(slot, from, to int) {
		fold(&tables[slot], from, to)
	})
	return tables
}

// mergeGroupTables folds per-slot partial tables in slot order into one
// table in key order.
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
// dense skips the compare when the fragment's zone proved every element
// matches (the zone is NaN-poisoned into invalidity, so a dense proof
// implies no NaNs) or there is no predicate at all.
func foldGroupRange(table *agg.Table, keys agg.Keys, vp layout.ColVector, from, to int, lo, hi float64, dense bool) {
	if from >= to {
		return
	}
	keys.Data = keys.Data[from*keys.Stride:]
	vals := vp.Data[vp.Base+from*vp.Stride:]
	if dense {
		table.FoldAll(keys, vals, vp.Stride, to-from)
	} else {
		table.FoldWhere(keys, vals, vp.Stride, to-from, lo, hi)
	}
}

// allMatch reports whether the zone proves every element of its piece
// lies in [lo, hi] — the all-match fast path.
func allMatch(z *stats.Zone, lo, hi float64) bool {
	zmin, zmax, ok := z.Float64Bounds()
	return ok && lo <= zmin && zmax <= hi
}

// groupSum is the grouped host body, group_sum and group_sum_where
// alike: one fused pass with no selection vector, zone-pruned fragments
// never touched, zone-proven all-match fragments accumulated densely —
// and, unfiltered, nothing pruned and every fragment dense. keys must be
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
	rawKeys, rawVals, compKeys, compVals := splitAlignedComp(keys, vals)
	tables := groupTables(cfg, totalLen(rawKeys), func(table *agg.Table, gFrom, gTo int) {
		eachAligned(rawKeys, gFrom, gTo, func(pi, from, to int) {
			dense := !filtered || allMatch(rawVals[pi].Zone, lo, hi)
			foldGroupRange(table, keysOf(rawKeys[pi].Vec), rawVals[pi].Vec, from, to, lo, hi, dense)
		})
	})
	if len(compVals) > 0 {
		// The pairs with a compressed side fold, in piece order, into one
		// more table behind the slots'.
		tables = append(tables, agg.Table{})
		ct := &tables[len(tables)-1]
		for i, vp := range compVals {
			kv, err := keyView(compKeys[i])
			if err != nil {
				return nil, err
			}
			if vp.Comp != nil && filtered {
				if err := vp.Comp.GroupSumFloat64Where(p, kv, ct); err != nil {
					return nil, fmt.Errorf("%w: %v", ErrBadColumn, err)
				}
				continue
			}
			// Raw values under a compressed key — or compressed ones with
			// no test to run in their domain, decoded as keyView decodes a
			// sealed key column: a NaN is folded like any other element.
			vec := vp.Vec
			if vp.Comp != nil {
				vec = layout.ColVector{Data: vp.Comp.Decompress(), Stride: 8, Size: 8, Len: vp.Comp.Len()}
			}
			if !kv.Covers(vec.Len) {
				return nil, fmt.Errorf("%w: group keys do not cover %d values", ErrBadColumn, vec.Len)
			}
			foldGroupRange(ct, kv, vec, 0, vec.Len, lo, hi, !filtered)
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

// GroupSumFloat64 computes SELECT key, SUM(val), COUNT(*) GROUP BY key
// over two parallel column views ("mostly aggregations and groupings are
// executed on read-only data" is the paper's characterization of the
// OLAP side, Section II-A).
func GroupSumFloat64(cfg Config, keys, vals []Piece) ([]GroupResult, error) {
	return groupSum(cfg, keys, vals, Pred{}, false)
}

// GroupSumFloat64Where is GroupSumFloat64 WHERE p.
func GroupSumFloat64Where(cfg Config, keys, vals []Piece, p Pred) ([]GroupResult, error) {
	return groupSum(cfg, keys, vals, p, true)
}
