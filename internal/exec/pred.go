package exec

import (
	"encoding/binary"
	"fmt"
	"math"

	"hybridstore/internal/agg"
	"hybridstore/internal/compress"
	"hybridstore/internal/exec/pool"
	"hybridstore/internal/layout"
	"hybridstore/internal/obs"
	"hybridstore/internal/stats"
)

// This file is the data-skipping and kernel-specialization layer: a
// small sargable predicate vocabulary (Pred), per-operator zone-map
// pruning over the fragment statistics of internal/stats, and fused
// scan kernels whose inner loops decode aligned 8-byte strides directly
// — no per-row closure, one comparison branch per element. The generic
// closure-based Select*/Count* operators in filter.go remain the
// fallback for predicates this vocabulary cannot express.

// Zone-map observability. Counters track pruned/scanned pieces
// process-wide; the span family records prune decisions for the
// adaptation layer's diagnostics.
var (
	mZonePruned      = obs.NewCounter("exec.zonemap.pruned")
	mZoneScanned     = obs.NewCounter("exec.zonemap.scanned")
	mZonePrunedBytes = obs.NewCounter("exec.zonemap.pruned_bytes_total")
	sfPrune          = obs.NewSpanFamily("exec.zonemap.prune")
)

// Fused-operator families (registered per policy like the others).
var (
	obsSumWhere   = newOpObs("sumwhere")
	obsSelectPred = newOpObs("selectpred")
)

// Pred is a sargable predicate over a float64 column — the system's
// one predicate type, declared beside the operators that close it
// (compress.Pred: Match, Closed, String). Lo carries the bound of
// OpEQ/OpGT and the lower bound of OpBetween; Hi carries the bound of
// OpLT and the upper bound of OpBetween.
type Pred = compress.Pred[float64]

// Op is the comparison of a Pred.
type Op = compress.Op

// Predicate comparisons.
const (
	// OpEQ selects x == Lo.
	OpEQ = compress.OpEQ
	// OpLT selects x < Hi (strict).
	OpLT = compress.OpLT
	// OpGT selects x > Lo (strict).
	OpGT = compress.OpGT
	// OpBetween selects Lo <= x <= Hi (inclusive).
	OpBetween = compress.OpBetween
)

// Eq returns the predicate x == v.
func Eq(v float64) Pred { return Pred{Op: OpEQ, Lo: v, Hi: v} }

// Lt returns the predicate x < v.
func Lt(v float64) Pred { return Pred{Op: OpLT, Hi: v} }

// Gt returns the predicate x > v.
func Gt(v float64) Pred { return Pred{Op: OpGT, Lo: v} }

// Between returns the predicate lo <= x <= hi (inclusive both sides).
func Between(lo, hi float64) Pred { return Pred{Op: OpBetween, Lo: lo, Hi: hi} }

// Normalize canonicalizes a predicate so that semantically identical
// spellings compare equal as values: a between with equal bounds is an
// equality, and bound fields the operator never reads are zeroed (a
// wire-level `{"kind":"lt","lo":7,"hi":9}` matches the same rows as
// Lt(9) and must share its cohort and cache key). A degenerate NaN
// between stays a between: NaN == NaN is false, so the eq collapse
// does not fire and the (unmatchable) predicate keeps its shape.
func Normalize(p Pred) Pred {
	// canon scrubs negative zero to positive zero: the two compare equal
	// and match the same rows, but carry different bit patterns, which
	// would split hash-sharded cohorts.
	canon := func(v float64) float64 {
		if v == 0 {
			return 0
		}
		return v
	}
	switch p.Op {
	case OpEQ:
		return Eq(canon(p.Lo))
	case OpLT:
		return Lt(canon(p.Hi))
	case OpGT:
		return Gt(canon(p.Lo))
	case OpBetween:
		if p.Lo == p.Hi {
			return Eq(canon(p.Lo))
		}
		return Between(canon(p.Lo), canon(p.Hi))
	default:
		return p
	}
}

// admits reports whether a column whose values all lie in [min, max]
// can contain a match. This is the zone-map overlap test: false means
// the fragment is provably match-free and can be skipped — always, for
// a predicate nothing can match.
func admits(p Pred, min, max float64) bool {
	lo, hi, ok := p.Closed()
	return ok && hi >= min && lo <= max
}

// ZoneAdmits reports whether the zone map allows a match — the overlap
// test the host operators prune with, exported for engine code that
// decides outside them (the device paths check before paying the
// transfer or the kernel launch). A nil, invalid or foreign-kind zone
// admits everything: the scan falls back to touching the bytes.
func ZoneAdmits(z *stats.Zone, p Pred) bool {
	min, max, ok := z.Float64Bounds()
	return !ok || admits(p, min, max)
}

// NoteZoneDecisions records zone consultations made outside the host
// operators — scanned admitted pieces, pruned skipped ones, the bytes
// the skipped pieces cover — keeping the pruned/scanned counters
// whole-system figures.
func NoteZoneDecisions(scanned, pruned, prunedBytes int64) {
	mZoneScanned.Add(scanned)
	mZonePruned.Add(pruned)
	mZonePrunedBytes.Add(prunedBytes)
}

// zoneKept is where pruneByZone lists a zone test's survivors: value
// pieces and, for a grouped scan, their key pieces. A caller that keeps
// one across scans reuses the lists' storage.
type zoneKept struct{ keys, vals []Piece }

// pruneByZone partitions pieces into the survivors of p's zone test and
// accounts the decision: counters for pruned/scanned pieces, a
// prune-decision span when anything was skipped, and — when the config
// carries a clock — the (tiny) cost of consulting one zone per piece.
// keys, when non-nil, is a column aligned with pieces (the fused
// group-by's key view): pieces' zones drive the decision, surviving
// pairs keep their index alignment, and a skipped fragment saves both
// columns' bytes. Only with a keep are the survivors listed, in its
// lists — a pass that reads no list is accounted without building one —
// and they alias the inputs when nothing was pruned, so the common
// all-survive case writes no list.
func pruneByZone(cfg Config, keys, pieces []Piece, p Pred, keep *zoneKept) (kKeys, kept []Piece, prunedBytes int64) {
	if keep != nil {
		keep.keys, keep.vals = keep.keys[:0], keep.vals[:0]
	}
	pruned := 0
	for i := range pieces {
		pc := &pieces[i]
		admit := ZoneAdmits(pc.Zone, p)
		if keep != nil && admit && pruned > 0 {
			keep.vals = append(keep.vals, *pc)
			if keys != nil {
				keep.keys = append(keep.keys, keys[i])
			}
		} else if keep != nil && !admit && pruned == 0 {
			keep.vals = append(keep.vals, pieces[:i]...)
			if keys != nil {
				keep.keys = append(keep.keys, keys[:i]...)
			}
		}
		if admit {
			continue
		}
		pruned++
		prunedBytes += int64(pc.Vec.Len) * int64(pc.Vec.Size)
		if keys != nil {
			prunedBytes += int64(keys[i].Vec.Len) * int64(keys[i].Vec.Size)
		}
	}
	switch {
	case pruned == 0:
		kKeys, kept = keys, pieces
	case keep != nil && keys != nil:
		kKeys, kept = keep.keys, keep.vals
	case keep != nil:
		kept = keep.vals
	}
	mZoneScanned.Add(int64(len(pieces) - pruned))
	if pruned > 0 {
		sp := sfPrune.Start()
		mZonePruned.Add(int64(pruned))
		mZonePrunedBytes.Add(prunedBytes)
		sp.EndWithCounts("pruned %d/%d pieces, %d bytes", int64(pruned), int64(len(pieces)), prunedBytes)
	}
	if cfg.Clock != nil && len(pieces) > 0 {
		cfg.Clock.Advance(cfg.Host.ZoneCheckNs(len(pieces)))
	}
	return kKeys, kept, prunedBytes
}

// checkSize8 rejects views whose fields are not 8 bytes wide.
func checkSize8(pieces []Piece, what string) error {
	for i := range pieces {
		if size := pieces[i].Vec.Size; size != 8 {
			return fmt.Errorf("%w: %s over %d-byte fields", ErrBadColumn, what, size)
		}
	}
	return nil
}

// --- Specialized kernels -------------------------------------------------
//
// The operators resolve their predicate once, to the closed interval
// [lo, hi] it matches (Pred.Closed), and each kernel is two loops (the
// sums are agg.SumWhere and agg.SumAll, shared with the device;
// SumWhere reads an aligned dense run as a []float64). Here the contiguous
// stride-8 case re-slices the vector to a dense byte run so the element
// load is a single bounds-check-friendly 8-byte decode; the strided
// (NSM) case steps by the tuplet width. Both compare against the two
// bounds inline — the branch predictor sees one well-behaved branch per
// element.

// f64 decodes the little-endian float64 at b[0:8].
func f64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// appendWhere appends the global positions of the elements of v[from:to)
// in [lo, hi] (the global position of v[0] is rowBase) to buf.
func appendWhere(buf []uint64, rowBase uint64, v layout.ColVector, from, to int, lo, hi float64) []uint64 {
	if v.Stride == 8 {
		data := v.Data[v.Base+from*8 : v.Base+to*8]
		base := rowBase + uint64(from)
		for i := 0; i+8 <= len(data); i += 8 {
			if x := f64(data[i:]); lo <= x && x <= hi {
				buf = append(buf, base+uint64(i>>3))
			}
		}
		return buf
	}
	off := v.Base + from*v.Stride
	for i := from; i < to; i++ {
		if x := f64(v.Data[off:]); lo <= x && x <= hi {
			buf = append(buf, rowBase+uint64(i))
		}
		off += v.Stride
	}
	return buf
}

// --- Fused operators -----------------------------------------------------

// Shared-pass observability: preds counts the predicates folded into
// shared passes, saved_passes the passes over the data the sharing
// avoided (preds - passes), saved_bytes_total the traffic.
var (
	mSharedPreds      = obs.NewCounter("exec.sharedscan.preds")
	mSharedSaved      = obs.NewCounter("exec.sharedscan.saved_passes")
	mSharedBytesSaved = obs.NewCounter("exec.sharedscan.saved_bytes_total")
)

// scanSum is the scalar host body, sum and sum_where alike: SUM(col),
// COUNT(*) WHERE p for every predicate of the scan in one pass over the
// data, with no position list materialized, pieces whose zone maps
// exclude a predicate never touched for it, compressed pieces evaluated
// in the compressed domain, and only scanned bytes charged to the
// platform model. Unfiltered, the test is switched off: nothing is
// pruned, every element is added (a NaN included) and nothing counted.
//
// Piece by piece, in piece order, each piece — its bytes folded by agg,
// or its sealed image by compress.Column.Fold, each in ascending element
// order — is added to out[k] for every predicate k whose zone test
// admits it: per predicate, the solo fold, and raw and encoded pieces
// share the one order, so a column whose chunks mix both sums to the
// plain store's bits. With more than one slot, predicate k's raw
// survivors instead fold partitioned over the slots (parallelFold) and
// add to its compressed ones — again its solo order. The zone decisions
// are accounted per predicate, as K solo scans would, but the platform
// model is charged for the union of surviving pieces once. A scan whose
// every predicate matches nothing returns before it counts as an
// invocation.
func scanSum(cfg Config, sc Scan, out []Result) error {
	if err := checkSize8(sc.Vals, "float64 sum"); err != nil {
		return err
	}
	clear(out)
	filtered, pieces := sc.Op.Filtered(), sc.Vals
	live := !filtered
	for k := 0; k < len(out) && !live; k++ {
		_, _, live = sc.pred(k).Closed()
	}
	if !live {
		return nil
	}
	o := &obsSum
	if filtered {
		o = &obsSumWhere
	}
	defer o.start(cfg.Policy).end()
	parallel := cfg.slots() > 1
	var ns float64
	var elems, perPred, union int
	for i := range pieces {
		pc, seen := &pieces[i], false
		for k := range out {
			lo, hi, ok := sc.pred(k).Closed()
			if filtered && (!ok || !ZoneAdmits(pc.Zone, sc.pred(k))) {
				continue
			}
			perPred += pc.Vec.Len * pc.Vec.Size
			seen = true
			if parallel && pc.Comp == nil {
				continue // folded partitioned, below
			}
			var s float64
			var n int64
			var err error
			if pc.Comp != nil {
				s, n, err = pc.Comp.Fold(filtered, lo, hi, agg.Keys{}, nil)
			} else {
				s, n = sumRange(pc.Vec, 0, pc.Vec.Len, filtered, lo, hi)
			}
			if err != nil {
				return fmt.Errorf("%w: %v", ErrBadColumn, err)
			}
			out[k].Sum += s
			out[k].Count += n
		}
		if seen {
			union += pc.Vec.Len * pc.Vec.Size
			elems += pc.Vec.Len
			if cfg.Clock != nil {
				ns += scanPieceNs(cfg.Host, *pc, 1)
			}
		}
	}
	for k := range out {
		lo, hi, ok := sc.pred(k).Closed()
		if filtered && !ok {
			continue
		}
		kept := pieces
		if filtered {
			var keep *zoneKept
			if parallel {
				keep = new(zoneKept)
			}
			_, kept, _ = pruneByZone(cfg, nil, pieces, sc.pred(k), keep)
		}
		if parallel {
			s, n := parallelFold(cfg, rawOf(kept), func(v layout.ColVector, from, to int) (float64, int64) {
				return sumRange(v, from, to, filtered, lo, hi)
			})
			out[k].Sum, out[k].Count = s+out[k].Sum, n+out[k].Count
		}
	}
	cfg.charge(ns, elems)
	if len(out) > 1 {
		mSharedPreds.Add(int64(len(out)))
		mSharedSaved.Add(int64(len(out) - 1))
		mSharedBytesSaved.Add(int64(perPred - union))
	}
	return nil
}

// sumRange folds elements [from, to) of a raw vector: the elements in
// [lo, hi] and their count, or unfiltered every element and no count.
func sumRange(v layout.ColVector, from, to int, filtered bool, lo, hi float64) (float64, int64) {
	vals := v.Data[v.Base+from*v.Stride:]
	if !filtered {
		return agg.SumAll(vals, v.Stride, to-from), 0
	}
	return agg.SumWhere(vals, v.Stride, to-from, lo, hi)
}

// SumFloat64Where computes SUM(col), COUNT(*) WHERE p in one fused scan.
func SumFloat64Where(cfg Config, pieces []Piece, p Pred) (float64, int64, error) {
	var out [1]Result
	err := cfg.Scan(Scan{Plan: Plan{Op: KindSumWhere, Pred: p}, Vals: pieces}, out[:])
	return out[0].Sum, out[0].Count, err
}

// SelVec is a compact selection vector: the sorted global row positions
// a selection produced, backed by a pooled buffer. Callers that are done
// with the positions should Release the vector so high-selectivity
// results recycle instead of stranding their allocation.
type SelVec struct {
	pos []uint64
}

// Positions returns the sorted matching positions. The slice is invalid
// after Release.
func (s *SelVec) Positions() []uint64 {
	if s == nil {
		return nil
	}
	return s.pos
}

// Release returns the backing buffer to the shared pool. The vector is
// empty afterwards; Release is idempotent.
func (s *SelVec) Release() {
	if s == nil || s.pos == nil {
		return
	}
	pool.PutPositions(s.pos)
	s.pos = nil
}

// SelectFloat64Pred scans a float64 column view with a specialized
// predicate kernel and returns the selection vector of matching global
// positions. Pieces excluded by their zone maps are skipped entirely.
func SelectFloat64Pred(cfg Config, pieces []Piece, p Pred) (*SelVec, error) {
	if err := checkSize8(pieces, "float64 predicate selection"); err != nil {
		return nil, err
	}
	if err := rejectComp(pieces, "predicate selection"); err != nil {
		return nil, err
	}
	lo, hi, ok := p.Closed()
	if !ok {
		return &SelVec{}, nil
	}
	ot := obsSelectPred.start(cfg.Policy)
	_, kept, _ := pruneByZone(cfg, nil, pieces, p, new(zoneKept))
	out := selectPositionsInto(cfg, kept, func(buf []uint64, gFrom, gTo int) []uint64 {
		eachRange(kept, gFrom, gTo, func(pc Piece, from, to int) {
			buf = appendWhere(buf, pc.Rows.Begin, pc.Vec, from, to, lo, hi)
		})
		return buf
	})
	cfg.chargeScan(kept)
	ot.end()
	return &SelVec{pos: out}, nil
}
