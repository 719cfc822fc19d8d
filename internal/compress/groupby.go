package compress

import (
	"fmt"
	"math"

	"hybridstore/internal/agg"
)

// Compressed-domain grouped aggregation: the fused predicate→group-by
// pipeline's leaf kernels over encoded payloads. Each encoding keeps the
// short-cut its sargable scan uses —
//
//   - RLE compares and decodes the value once per run, then streams the
//     run's elements through the key column,
//   - Dict pre-filters the ≤256-entry dictionary into a code bitset and
//     a decoded value table, then tests one bit per element,
//   - Raw is the plain fused loop (agg.Table.FoldWhere, the one the
//     device and the host run over uncompressed values).
//
// The value column is the compressed one; the group keys are a strided
// view over the same element positions (the key column raw, or
// decompressed by the caller), and matches fold straight into the
// caller's group table. Float64 adds stay element-ordered so per-group
// sums are bit-identical to decompressing and running the fused grouped
// kernel.

// GroupSumFloat64Where folds SUM, COUNT per group over an 8-byte
// IEEE-754 column into t: each element matching p, in element order,
// under the key at its position.
func (c *Column) GroupSumFloat64Where(p Pred[float64], keys agg.Keys, t *agg.Table) error {
	if err := c.errNot8("float64 group-sum-where"); err != nil {
		return err
	}
	if !keys.Covers(c.n) {
		return fmt.Errorf("%w: group keys do not cover %d elements", ErrBadInput, c.n)
	}
	lo, hi, ok := p.Closed()
	if !ok {
		return nil
	}
	switch c.enc {
	case RLE:
		start := 0
		for k := 0; k < c.Runs(); k++ {
			end := c.runEnd(k)
			if v := float64At(c.runVals[k*8:]); lo <= v && v <= hi {
				for i := start; i < end; i++ {
					g := t.At(keys.At(i))
					g.Sum += v
					g.Count++
				}
			}
			start = end
		}
	case Dict:
		var vals [256]float64
		bits := filterDict(c, lo, hi, &vals)
		for i, code := range c.codes {
			if bits.has(code) {
				g := t.At(keys.At(i))
				g.Sum += vals[code]
				g.Count++
			}
		}
	case FOR:
		var buf [forBlock]uint64
		for from := 0; from < c.n; from += forBlock {
			for j, d := range c.widen(buf[:], from) {
				if x := math.Float64frombits(uint64(c.base) + d); lo <= x && x <= hi {
					g := t.At(keys.At(from + j))
					g.Sum += x
					g.Count++
				}
			}
		}
	default:
		t.FoldWhere(keys, c.raw, 8, c.n, lo, hi)
	}
	return nil
}
