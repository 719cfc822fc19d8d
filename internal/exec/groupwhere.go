package exec

import (
	"fmt"
	"time"

	"hybridstore/internal/agg"
	"hybridstore/internal/layout"
	"hybridstore/internal/obs"
)

// Fused predicate→group-by operators: SELECT key, SUM(val), COUNT(*)
// WHERE p GROUP BY key in one pass per piece. No selection vector is
// materialized — each element is tested and, on a match, folded straight
// into a per-worker group table (agg.Table); the tables merge at the end
// exactly like GroupSumFloat64's. Two layers of data skipping ride on
// the value column's zone map: fragments the predicate provably cannot
// match are pruned before any byte is touched (and the key column's
// bytes are saved along with the value column's), and fragments the
// zone proves all-matching take a dense accumulation loop with no
// per-element comparison at all.
//
// Predicates are normalized to a closed interval [lo, hi] once per call
// (ClosedFloat64), so the hot loop carries a single
// two-sided compare instead of a per-element Op switch — the same
// branch-light shape the device kernel consumes.

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

// checkGroupCols validates the key/value piece shapes shared by the
// fused grouped operators.
func checkGroupCols(keys, vals []Piece) error {
	if err := checkAligned(keys, vals); err != nil {
		return err
	}
	if err := checkSize8(vals, "fused grouped aggregate"); err != nil {
		return err
	}
	for _, p := range keys {
		if p.Vec.Size != 8 && p.Vec.Size != 4 {
			return fmt.Errorf("%w: group key of %d bytes", ErrBadColumn, p.Vec.Size)
		}
	}
	return nil
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

// denseFlagsF64 marks the raw pieces whose zone proves every element
// matches the closed interval — the all-match fast path.
func denseFlagsF64(vals []Piece, lo, hi float64) []bool {
	dense := make([]bool, len(vals))
	for i, p := range vals {
		if zmin, zmax, ok := p.Zone.Float64Bounds(); ok && lo <= zmin && zmax <= hi {
			dense[i] = true
		}
	}
	return dense
}

// GroupSumFloat64Where computes SELECT key, SUM(val), COUNT(*) WHERE p
// GROUP BY key in one fused pass: no selection vector, zone-pruned
// fragments never touched, zone-proven all-match fragments accumulated
// densely. keys must be an int64 or int32 column view, vals a float64
// one, both covering the same positions (compressed pieces execute in
// the compressed domain). Results come back sorted by key.
func GroupSumFloat64Where(cfg Config, keys, vals []Piece, p Pred[float64]) ([]GroupResult, error) {
	if err := checkGroupCols(keys, vals); err != nil {
		return nil, err
	}
	ft := startGroupFused()
	defer ft.end()
	kKeys, kVals, _ := pruneByZone(cfg, keys, vals, p)
	lo, hi, ok := ClosedFloat64(p)
	if !ok {
		// Empty interval: provably no matches, nothing scanned.
		return nil, nil
	}
	rawKeys, rawVals, compKeys, compVals := splitAlignedComp(kKeys, kVals)
	dense := denseFlagsF64(rawVals, lo, hi)
	tables := groupTables(cfg, totalLen(rawKeys), func(table *agg.Table, gFrom, gTo int) {
		eachAligned(rawKeys, gFrom, gTo, func(pi, from, to int) {
			foldGroupRange(table, keysOf(rawKeys[pi].Vec), rawVals[pi].Vec, from, to, lo, hi, dense[pi])
		})
	})
	if len(compVals) > 0 {
		// The pairs with a compressed side fold, in piece order, into one
		// more table behind the slots'.
		tables = append(tables, agg.Table{})
		ct := &tables[len(tables)-1]
		cp := compPred(p)
		for i, vp := range compVals {
			keys, err := keyView(compKeys[i])
			if err != nil {
				return nil, err
			}
			if vp.Comp == nil {
				// Raw value column under a compressed key.
				foldGroupRange(ct, keys, vp.Vec, 0, vp.Vec.Len, lo, hi, false)
			} else if err := vp.Comp.GroupSumFloat64Where(cp, keys, ct); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadColumn, err)
			}
		}
	}
	out := mergeGroupTables(tables)
	mGroupFusedGroups.Add(int64(len(out)))
	cfg.chargeScan(kKeys)
	cfg.chargeScan(kVals)
	return out, nil
}
