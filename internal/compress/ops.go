package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"hybridstore/internal/agg"
)

// This file holds the compressed-domain aggregate, Fold: sum and
// sum_where, grouped or not, run directly on the encoded payload
// instead of decompressing first. Each encoding keeps its natural
// short-cut —
//
//   - RLE evaluates the predicate once per run,
//   - Dict pre-filters the ≤256-entry dictionary into a code bitset and
//     a decoded value table, then tests one bit per element (none when
//     unfiltered),
//   - FOR frames a double's bit pattern, and IEEE ordering is unrelated
//     to delta ordering, so it widens a block of deltas at a time and
//     compares elementwise,
//   - Raw is agg's typed loops, the ones the host and the device run
//     over uncompressed values.
//
// The caller resolves its predicate ONCE, to the closed interval
// [lo, hi] it matches (Pred.Closed), and every loop below compares
// against the two bounds directly: between a payload byte and the
// accumulator there is no comparison-mode switch, no closure and no
// boxed value. The group keys are a strided view over the same element
// positions, and matches fold straight into the caller's group table.
// Accumulation deliberately stays element-ordered (a run value is added
// run-length times, not multiplied) so results are bit-identical to
// decompressing and running the executor's fused kernels.

// Op is the comparison of a Pred.
type Op uint8

// Predicate comparisons.
const (
	// OpEQ selects x == Lo.
	OpEQ Op = iota
	// OpLT selects x < Hi (strict).
	OpLT
	// OpGT selects x > Lo (strict).
	OpGT
	// OpBetween selects Lo <= x <= Hi (inclusive).
	OpBetween
)

// String names the comparison.
func (o Op) String() string {
	switch o {
	case OpEQ:
		return "eq"
	case OpLT:
		return "lt"
	case OpGT:
		return "gt"
	case OpBetween:
		return "between"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// float64At decodes the little-endian IEEE-754 field at b[0:8].
func float64At(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// Pred is a sargable predicate over one 8-byte numeric column: an
// equality or range comparison the operators can both specialize (tight
// decode-and-compare loops) and prune by (zone-map overlap tests). It is
// the system's one predicate type — exec.Pred is Pred[float64]. Float64
// is its only element type; the type parameter stays because bench/
// spells Pred[float64].
type Pred[T float64] struct {
	// Op is the comparison.
	Op Op
	// Lo is the lower/equality bound (OpEQ, OpGT, OpBetween).
	Lo T
	// Hi is the upper bound (OpLT, OpBetween).
	Hi T
}

// Match evaluates the predicate on one value: what a predicate means,
// the definition Closed must be an exact rewriting of and the only place
// the comparison is spelled per Op.
func (p Pred[T]) Match(x T) bool {
	switch p.Op {
	case OpEQ:
		return x == p.Lo
	case OpLT:
		return x < p.Hi
	case OpGT:
		return x > p.Lo
	case OpBetween:
		return p.Lo <= x && x <= p.Hi
	default:
		return false
	}
}

// String renders the predicate.
func (p Pred[T]) String() string {
	switch p.Op {
	case OpEQ:
		return fmt.Sprintf("x == %v", p.Lo)
	case OpLT:
		return fmt.Sprintf("x < %v", p.Hi)
	case OpGT:
		return fmt.Sprintf("x > %v", p.Lo)
	case OpBetween:
		return fmt.Sprintf("%v <= x <= %v", p.Lo, p.Hi)
	default:
		return p.Op.String()
	}
}

// Closed resolves the predicate to a closed interval with identical
// match semantics: x satisfies the comparison Op names if and only if
// lo <= x && x <= hi, for every x. A strict bound steps to the adjacent
// double. ok is false when nothing can match — an inverted or
// NaN-bounded between, x < -Inf, x > +Inf, an unknown Op; a NaN
// equality or strict bound keeps ok and yields a NaN bound, which no x
// compares inside either.
func (p Pred[T]) Closed() (lo, hi T, ok bool) {
	switch p.Op {
	case OpEQ:
		return p.Lo, p.Lo, true
	case OpLT:
		return T(math.Inf(-1)), T(math.Nextafter(float64(p.Hi), math.Inf(-1))), !math.IsInf(float64(p.Hi), -1)
	case OpGT:
		return T(math.Nextafter(float64(p.Lo), math.Inf(1))), T(math.Inf(1)), !math.IsInf(float64(p.Lo), 1)
	case OpBetween:
		return p.Lo, p.Hi, p.Lo <= p.Hi
	default:
		return 0, 0, false
	}
}

// codeBits is a 256-way bitset over dictionary codes.
type codeBits [4]uint64

func (b *codeBits) set(code int)       { b[code>>6] |= 1 << (code & 63) }
func (b *codeBits) has(code byte) bool { return b[code>>6]&(1<<(code&63)) != 0 }

// errNot8 rejects non-8-byte columns from the numeric operators.
func (c *Column) errNot8(what string) error {
	if c.size != 8 {
		return fmt.Errorf("%w: %s over %d-byte elements", ErrBadInput, what, c.size)
	}
	return nil
}

// filterDict decodes the dictionary of an 8-byte Dict column into vals
// and marks the codes whose value lies in [lo, hi].
func filterDict(c *Column, lo, hi float64, vals *[256]float64) (bits codeBits) {
	for code := 0; code < len(c.dict)/8; code++ {
		v := float64At(c.dict[code*8:])
		vals[code] = v
		if lo <= v && v <= hi {
			bits.set(code)
		}
	}
	return bits
}

// Fold is the one aggregate body over an 8-byte IEEE-754 column image,
// sum and sum_where, grouped or not, in the compressed domain. With
// where it folds the elements inside the closed interval [lo, hi] (a
// NaN is inside none) and counts them; without it it folds every
// element, a NaN included (through agg.Add), and counts nothing. With a
// table t each folded element goes into the group of keys.At(i), and
// sum and count stay zero. Either way the result is bit-identical to
// decompressing and running agg's loops over the bytes.
func (c *Column) Fold(where bool, lo, hi float64, keys agg.Keys, t *agg.Table) (sum float64, count int64, err error) {
	if err := c.errNot8("fold"); err != nil {
		return 0, 0, err
	}
	if t != nil && !keys.Covers(c.n) {
		return 0, 0, fmt.Errorf("%w: group keys do not cover %d elements", ErrBadInput, c.n)
	}
	switch c.enc {
	case RLE:
		// One comparison per run.
		start := 0
		for k := 0; k < c.Runs(); k++ {
			end := c.runEnd(k)
			v := float64At(c.runVals[k*8:])
			switch {
			case where && !(lo <= v && v <= hi):
			case t == nil:
				for i := start; i < end; i++ {
					sum = agg.Add(sum, v)
				}
				if where {
					count += int64(end - start)
				}
			default:
				for i := start; i < end; i++ {
					g := t.At(keys.At(i))
					g.Sum = agg.Add(g.Sum, v)
					g.Count++
				}
			}
			start = end
		}
	case Dict:
		// One comparison per dictionary entry, one bit test per element.
		var vals [256]float64
		bits := filterDict(c, lo, hi, &vals)
		switch {
		case t != nil:
			for i, code := range c.codes {
				if !where || bits.has(code) {
					g := t.At(keys.At(i))
					g.Sum = agg.Add(g.Sum, vals[code])
					g.Count++
				}
			}
		case where:
			for _, code := range c.codes {
				if bits.has(code) {
					sum += vals[code]
					count++
				}
			}
		default:
			for _, code := range c.codes {
				sum = agg.Add(sum, vals[code])
			}
		}
	case FOR:
		var buf [forBlock]uint64
		for from := 0; from < c.n; from += forBlock {
			for j, d := range c.widen(buf[:], from) {
				x := math.Float64frombits(uint64(c.base) + d)
				switch {
				case where && !(lo <= x && x <= hi):
				case t != nil:
					g := t.At(keys.At(from + j))
					g.Sum = agg.Add(g.Sum, x)
					g.Count++
				case where:
					sum += x
					count++
				default:
					sum = agg.Add(sum, x)
				}
			}
		}
	default:
		switch {
		case t != nil && where:
			t.FoldWhere(keys, c.raw, 8, c.n, lo, hi)
		case t != nil:
			t.FoldAll(keys, c.raw, 8, c.n)
		case where:
			sum, count = agg.SumWhere(c.raw, 8, c.n, lo, hi)
		default:
			sum = agg.SumAll(c.raw, 8, c.n)
		}
	}
	return sum, count, nil
}

// SumFloat64Where computes SUM(x), COUNT(*) WHERE p: Fold over p's
// closed interval.
func (c *Column) SumFloat64Where(p Pred[float64]) (float64, int64, error) {
	lo, hi, ok := p.Closed()
	if !ok {
		lo, hi = math.Inf(1), math.Inf(-1) // nothing is inside
	}
	return c.Fold(true, lo, hi, agg.Keys{}, nil)
}
