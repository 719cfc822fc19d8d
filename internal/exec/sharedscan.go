package exec

import (
	"hybridstore/internal/compress"
	"hybridstore/internal/obs"
)

// This file is the shared-scan operator behind the serving layer's
// batching scheduler (Crescando/SharedDB-style): K sargable predicates
// over the same column evaluated in ONE pass over the data instead of K.
// Concurrent dashboard-style queries that collect into one cohort
// differ only in their predicate bounds; streaming each fragment
// once and testing all predicates against the resident cache line
// amortizes the memory traffic that dominates fused aggregation.
//
// Contract: result k carries the (Sum, Count) SumFloat64Where(cfg,
// pieces, preds[k]) would have produced. Under SingleThreaded the fold order per
// predicate is piece-major exactly like the solo operator's sequential
// fold, so results are bit-identical; under the parallel host policies
// the solo operator folds worker partials in slot order, so shared and
// solo agree exactly whenever the sums are fold-order insensitive
// (integer-valued data, or any count). The serving layer runs requests
// SingleThreaded — inter-query parallelism comes from the batch of
// clients, not from intra-query threads — which keeps the bit-identity
// guarantee end to end.

// Shared-scan observability: ops counts operator invocations, preds the
// predicates folded into them, and saved_passes the passes over the data
// the sharing avoided (preds - ops), saved_bytes_total the traffic.
var (
	obsSharedSum      = newOpObs("sharedsumwhere")
	mSharedPreds      = obs.NewCounter("exec.sharedscan.preds")
	mSharedSaved      = obs.NewCounter("exec.sharedscan.saved_passes")
	mSharedBytesSaved = obs.NewCounter("exec.sharedscan.saved_bytes_total")
)

// SumFloat64WhereMulti computes SUM(col), COUNT(*) WHERE preds[k] for
// every k in one shared scan. Zone maps are consulted per predicate —
// a piece is streamed when at least one predicate admits it and each
// predicate only sees the pieces its own zone test admits, exactly as in
// K solo scans — but the platform model is charged for the union of
// surviving pieces once, not K times: that is the batching win.
func SumFloat64WhereMulti(cfg Config, pieces []Piece, preds []Pred) ([]Result, error) {
	out := make([]Result, len(preds))
	if len(preds) == 0 {
		return out, nil
	}
	if len(preds) == 1 {
		var err error
		out[0].Sum, out[0].Count, err = SumFloat64Where(cfg, pieces, preds[0])
		return out, err
	}
	if err := checkSize8(pieces, "shared fused float64 sum"); err != nil {
		return nil, err
	}
	ot := obsSharedSum.start(cfg.Policy)
	mSharedPreds.Add(int64(len(preds)))
	mSharedSaved.Add(int64(len(preds) - 1))

	// Per-predicate zone decisions, with the same counter/span/clock
	// accounting K solo scans would have produced. The admit matrix
	// drives the shared pass; kept[k] feeds the compressed-domain path.
	admit := make([]bool, len(preds)*len(pieces))
	kept := make([][]Piece, len(preds))
	bounds := make([][2]float64, len(preds)) // each predicate's closed interval, resolved once
	var perPredBytes int64
	for k, p := range preds {
		lo, hi, ok := p.Closed()
		if !ok {
			continue // nothing can match: no piece admitted, the zero result
		}
		bounds[k] = [2]float64{lo, hi}
		_, kept[k], _ = pruneByZone(cfg, nil, pieces, p)
		row := admit[k*len(pieces) : (k+1)*len(pieces)]
		for i := range pieces {
			row[i] = ZoneAdmits(pieces[i].Zone, p)
			if row[i] {
				perPredBytes += int64(pieces[i].Vec.Len) * int64(pieces[i].Vec.Size)
			}
		}
	}

	// Shared raw pass, piece-major: each surviving raw piece is streamed
	// once and every admitting predicate folds it in original piece
	// order — the solo sequential fold order per predicate.
	for i := range pieces {
		pc := &pieces[i]
		if pc.Comp != nil {
			continue
		}
		for k := range preds {
			if !admit[k*len(pieces)+i] {
				continue
			}
			s, n := sumWhere(pc.Vec, 0, pc.Vec.Len, bounds[k][0], bounds[k][1])
			out[k].Sum += s
			out[k].Count += n
		}
	}

	// Compressed pieces fold after the raw ones per predicate, matching
	// the solo operator's raw-then-compressed order. Encoded images are
	// evaluated per predicate at encoding granularity; the encoded bytes
	// are typically a small fraction of the raw union.
	for k := range preds {
		var comp []Piece
		for _, pc := range kept[k] {
			if pc.Comp != nil {
				comp = append(comp, pc)
			}
		}
		if len(comp) == 0 {
			continue
		}
		cs, cn, err := compFold(cfg, comp, func(c *compress.Column) (float64, int64, error) {
			return c.SumFloat64Where(preds[k])
		})
		if err != nil {
			ot.end()
			return nil, err
		}
		out[k].Sum += cs
		out[k].Count += cn
	}

	// Charge the union of surviving pieces once. K solo scans would have
	// streamed perPredBytes in total; the difference is the traffic the
	// shared pass saved.
	var union []Piece
	var unionBytes int64
	for i := range pieces {
		for k := range preds {
			if admit[k*len(pieces)+i] {
				union = append(union, pieces[i])
				unionBytes += int64(pieces[i].Vec.Len) * int64(pieces[i].Vec.Size)
				break
			}
		}
	}
	cfg.chargeScan(union)
	if saved := perPredBytes - unionBytes; saved > 0 {
		mSharedBytesSaved.Add(saved)
	}
	ot.end()
	return out, nil
}
