package compress

import (
	"encoding/binary"
	"math"
)

// Compressed-domain grouped aggregation: the fused predicate→group-by
// pipeline's leaf kernels over encoded payloads. Each encoding keeps the
// short-cut its sargable scan uses —
//
//   - RLE evaluates the predicate and decodes the value once per run,
//     then streams the run's elements through the key column,
//   - Dict pre-filters the ≤256-entry dictionary into a code bitset and
//     a decoded value table, then tests one bit per element,
//   - Raw degenerates to the plain fused loop.
//
// The value column is the compressed one; group keys come from the
// caller through keyAt (the executor aligns the key column — raw or
// decompressed — to the same element positions). Float64 adds stay
// element-ordered so per-group sums are bit-identical to decompressing
// and running the executor's fused grouped kernel.

// GroupSumFloat64Where streams SUM partials per group over an 8-byte
// IEEE-754 column: add is invoked once per matching element, in element
// order, with the element's group key and decoded value.
func (c *Column) GroupSumFloat64Where(p Pred[float64], keyAt func(i int) int64, add func(key int64, v float64)) error {
	if err := c.errNot8("float64 group-sum-where"); err != nil {
		return err
	}
	switch c.enc {
	case RLE:
		start := uint32(0)
		for k, end := range c.runEnds {
			v := math.Float64frombits(binary.LittleEndian.Uint64(c.runVals[k*8:]))
			if p.Match(v) {
				for i := start; i < end; i++ {
					add(keyAt(int(i)), v)
				}
			}
			start = end
		}
	case Dict:
		var bits codeBits
		var vals [256]float64
		for code := 0; code < len(c.dict)/8; code++ {
			v := elem[float64](c.dict[code*8:])
			vals[code] = v
			if p.Match(v) {
				bits.set(code)
			}
		}
		for i, code := range c.codes {
			if bits.has(code) {
				add(keyAt(i), vals[code])
			}
		}
	case FOR:
		for i := 0; i < c.n; i++ {
			if x := math.Float64frombits(uint64(c.base + int64(c.delta(i)))); p.Match(x) {
				add(keyAt(i), x)
			}
		}
	default:
		for i := 0; i < c.n; i++ {
			if x := math.Float64frombits(binary.LittleEndian.Uint64(c.raw[i*8:])); p.Match(x) {
				add(keyAt(i), x)
			}
		}
	}
	return nil
}
