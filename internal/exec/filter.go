package exec

import (
	"hybridstore/internal/exec/pool"
	"hybridstore/internal/layout"
)

// selectPositionsInto runs a selection under the configured policy and
// returns the matches in a pooled buffer (the caller owns it and must
// eventually PutPositions or wrap it in a SelVec). An input of more than
// one range collects each range's matches into a recycled buffer and
// merges them in global order, so the concatenation is already sorted.
func selectPositionsInto(cfg Config, pieces []Piece, scan func(buf []uint64, gFrom, gTo int) []uint64) []uint64 {
	total := totalLen(pieces)
	if total == 0 {
		return nil
	}
	slots := cfg.slots()
	grain := cfg.grain(slots, total)
	if total <= grain {
		return scan(pool.GetPositions(), 0, total)
	}
	parts := make([][]uint64, pool.Morsels(total, grain))
	cfg.partition(slots, total, func(_, from, to int) {
		parts[from/grain] = scan(pool.GetPositions(), from, to)
	})
	return mergeParts(parts)
}

// mergeParts concatenates ordered per-partition position lists into one
// pooled buffer and recycles the partition buffers.
func mergeParts(parts [][]uint64) []uint64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		for _, p := range parts {
			pool.PutPositions(p)
		}
		return nil
	}
	out := pool.GetPositionsCap(n)
	for _, p := range parts {
		out = append(out, p...)
		pool.PutPositions(p)
	}
	return out
}

// CountFloat64 counts the elements satisfying pred without building a
// position list.
func CountFloat64(cfg Config, pieces []Piece, pred func(float64) bool) (int64, error) {
	if err := checkSize8(pieces, "float64 count"); err != nil {
		return 0, err
	}
	if err := rejectComp(pieces, "float64 count"); err != nil {
		return 0, err
	}
	ot := obsCount.start(cfg.Policy)
	_, n := parallelFold(cfg, pieces, func(v layout.ColVector, from, to int) (float64, int64) {
		var c int64
		off := v.Base + from*v.Stride
		for i := from; i < to; i++ {
			if pred(f64(v.Data[off:])) {
				c++
			}
			off += v.Stride
		}
		return 0, c
	})
	cfg.chargeScan(pieces)
	ot.end()
	return n, nil
}
