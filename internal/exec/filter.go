package exec

import (
	"sync"

	"hybridstore/internal/exec/pool"
	"hybridstore/internal/layout"
)

// SelectFloat64 scans a float64 column view and returns the sorted global
// positions whose value satisfies pred. Selections feed the position
// lists that record-centric operators consume (the paper measures
// materialization "right after the output — sorted position lists — of
// the last preceding join operator is available"; selection is the
// equivalent producer in this library).
func SelectFloat64(cfg Config, pieces []Piece, pred func(float64) bool) ([]uint64, error) {
	if err := checkSize8(pieces, "float64 selection"); err != nil {
		return nil, err
	}
	if err := rejectComp(pieces, "float64 selection"); err != nil {
		return nil, err
	}
	ot := obsSelect.start(cfg.Policy)
	out := selectPositions(cfg, pieces, func(buf []uint64, gFrom, gTo int) []uint64 {
		return scanMatches(buf, pieces, gFrom, gTo, pred)
	})
	cfg.chargeScan(pieces)
	ot.end()
	return out, nil
}

// scanMatches appends the global positions in pieces' local range
// [gFrom, gTo) whose field satisfies pred, reusing buf's capacity. The
// contiguous stride-8 case re-slices to a dense byte run and decodes
// inline, so only the caller's predicate — not an additional per-row
// decode closure — runs per element.
func scanMatches(buf []uint64, pieces []Piece, gFrom, gTo int, pred func(float64) bool) []uint64 {
	eachRange(pieces, gFrom, gTo, func(p Piece, from, to int) {
		v := p.Vec
		if v.Stride == 8 {
			data := v.Data[v.Base+from*8 : v.Base+to*8]
			base := p.Rows.Begin + uint64(from)
			for i := 0; i+8 <= len(data); i += 8 {
				if pred(f64(data[i:])) {
					buf = append(buf, base+uint64(i>>3))
				}
			}
			return
		}
		off := v.Base + from*v.Stride
		for i := from; i < to; i++ {
			if pred(f64(v.Data[off:])) {
				buf = append(buf, p.Rows.Begin+uint64(i))
			}
			off += v.Stride
		}
	})
	return buf
}

// selectPositionsInto runs a selection under the configured policy and
// returns the matches in a pooled buffer (the caller owns it and must
// eventually PutPositions or wrap it in a SelVec). The parallel paths
// partition the global position space (blockwise or in morsels),
// collect per-partition matches into recycled buffers, and merge them
// in global order, so the concatenation is already sorted.
func selectPositionsInto(cfg Config, pieces []Piece, scan func(buf []uint64, gFrom, gTo int) []uint64) []uint64 {
	total := totalLen(pieces)
	if total == 0 {
		return nil
	}
	switch cfg.Policy {
	case MorselDriven:
		msize := pool.MorselSize()
		if total <= msize {
			return scan(pool.GetPositions(), 0, total)
		}
		slots := pool.Slots()
		parts := make([][]uint64, pool.Morsels(total, msize))
		pool.Run(total, msize, slots, func(_, from, to int) {
			parts[from/msize] = scan(pool.GetPositions(), from, to)
		})
		return mergeParts(parts)
	case MultiThreaded:
		th := cfg.threads()
		if th == 1 {
			return scan(pool.GetPositions(), 0, total)
		}
		parts := make([][]uint64, th)
		var wg sync.WaitGroup
		for w := 0; w < th; w++ {
			gFrom, gTo := blockRange(w, th, total)
			if gFrom >= gTo {
				break
			}
			wg.Add(1)
			go func(w, gFrom, gTo int) {
				defer wg.Done()
				parts[w] = scan(pool.GetPositions(), gFrom, gTo)
			}(w, gFrom, gTo)
		}
		wg.Wait()
		return mergeParts(parts)
	default:
		return scan(pool.GetPositions(), 0, total)
	}
}

// selectPositions is selectPositionsInto for callers that hand the
// position list to the user: the result is an exactly-sized private
// slice and the (possibly append-grown, oversized) scan buffer goes
// back to the pool. Previously the single-threaded path returned the
// scan buffer itself, so a high-selectivity scan stranded up to 2× its
// match count in unreachable capacity and the pool never saw the grown
// buffer again.
func selectPositions(cfg Config, pieces []Piece, scan func(buf []uint64, gFrom, gTo int) []uint64) []uint64 {
	buf := selectPositionsInto(cfg, pieces, scan)
	if len(buf) == 0 {
		pool.PutPositions(buf)
		return nil
	}
	out := make([]uint64, len(buf))
	copy(out, buf)
	pool.PutPositions(buf)
	return out
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
