package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// This file holds the compressed-domain operators: sargable predicate
// scans that run directly on the encoded payload instead of
// decompressing first. Each encoding gets its natural short-cut —
//
//   - RLE evaluates the predicate once per run,
//   - Dict pre-filters the ≤256-entry dictionary into a code bitset and
//     then only tests one bit per element,
//   - FOR (integers) rewrites the predicate bounds into the delta
//     domain and compares narrow deltas without reconstructing values,
//   - Raw degenerates to the plain fused scan.
//
// An operator resolves its predicate ONCE, to the closed interval
// [lo, hi] it matches (Pred.Closed), and every loop below compares
// against the two bounds directly: between a payload byte and the
// accumulator there is no comparison-mode switch, no closure and no
// boxed value. Each operator body is written once over Number. Float64
// accumulation deliberately stays element-ordered (a run value is added
// run-length times, not multiplied) so results are bit-identical to
// decompressing and running the executor's fused kernels; int64
// arithmetic is exact mod 2^64, so the closed forms that pay — a run's
// value times its length, FOR delta sums against the frame base — are
// used there.

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

// Number is the element domain of the numeric operators.
type Number interface {
	int64 | float64
}

// elem decodes the little-endian 8-byte field at b[0:8] as T.
func elem[T Number](b []byte) T { return fromBits[T](binary.LittleEndian.Uint64(b)) }

// fromBits reinterprets an 8-byte pattern as T. Both members of Number
// are 8 bytes wide, so this is a plain register move (a type switch here
// costs a dictionary lookup per element).
func fromBits[T Number](u uint64) T { return *(*T)(unsafe.Pointer(&u)) }

// Pred is a sargable predicate over one 8-byte numeric column: an
// equality or range comparison the operators can both specialize (tight
// decode-and-compare loops) and prune by (zone-map overlap tests). It is
// the system's one predicate type — exec.Pred is Pred[float64]. The type
// parameter and the int64 arm behind it stay because bench/ spells them.
type Pred[T Number] struct {
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
// representable value (the next double, the next integer). ok is false
// when nothing can match — an inverted or NaN-bounded between, x < the
// least value, x > the greatest, an unknown Op; a NaN equality or strict
// bound keeps ok and yields a NaN bound, which no x compares inside
// either.
func (p Pred[T]) Closed() (lo, hi T, ok bool) {
	switch q := any(p).(type) {
	case Pred[float64]:
		l, h, ok := closedFloat64(q)
		return fromBits[T](math.Float64bits(l)), fromBits[T](math.Float64bits(h)), ok
	case Pred[int64]:
		l, h, ok := closedInt64(q)
		return fromBits[T](uint64(l)), fromBits[T](uint64(h)), ok
	}
	return 0, 0, false
}

func closedFloat64(p Pred[float64]) (lo, hi float64, ok bool) {
	switch p.Op {
	case OpEQ:
		return p.Lo, p.Lo, true
	case OpLT:
		return math.Inf(-1), math.Nextafter(p.Hi, math.Inf(-1)), !math.IsInf(p.Hi, -1)
	case OpGT:
		return math.Nextafter(p.Lo, math.Inf(1)), math.Inf(1), !math.IsInf(p.Lo, 1)
	case OpBetween:
		return p.Lo, p.Hi, p.Lo <= p.Hi
	default:
		return 0, 0, false
	}
}

func closedInt64(p Pred[int64]) (lo, hi int64, ok bool) {
	switch p.Op {
	case OpEQ:
		return p.Lo, p.Lo, true
	case OpLT:
		return math.MinInt64, p.Hi - 1, p.Hi != math.MinInt64
	case OpGT:
		return p.Lo + 1, math.MaxInt64, p.Lo != math.MaxInt64
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
func filterDict[T Number](c *Column, lo, hi T, vals *[256]T) (bits codeBits) {
	for code := 0; code < len(c.dict)/8; code++ {
		v := elem[T](c.dict[code*8:])
		vals[code] = v
		if lo <= v && v <= hi {
			bits.set(code)
		}
	}
	return bits
}

// SumWhere computes SUM(x), COUNT(*) WHERE p over an 8-byte column in
// the compressed domain. Float64 results are bit-identical to
// decompressing and summing elementwise in order; int64 results are
// exact mod 2^64.
func SumWhere[T Number](c *Column, p Pred[T]) (T, int64, error) {
	if err := c.errNot8("sum-where"); err != nil {
		return 0, 0, err
	}
	lo, hi, ok := p.Closed()
	if !ok {
		return 0, 0, nil
	}
	var sum T
	var n int64
	switch c.enc {
	case RLE:
		// One comparison per run.
		start := 0
		for k := 0; k < c.Runs(); k++ {
			end := c.runEnd(k)
			if v := elem[T](c.runVals[k*8:]); lo <= v && v <= hi {
				sum = addRun(sum, v, end-start)
				n += int64(end - start)
			}
			start = end
		}
	case Dict:
		var vals [256]T
		bits := filterDict(c, lo, hi, &vals)
		for _, code := range c.codes {
			if bits.has(code) {
				sum += vals[code]
				n++
			}
		}
	case FOR:
		var buf [forBlock]uint64
		if ilo, isInt := any(lo).(int64); isInt {
			// Integers compare narrow deltas against the bounds rewritten
			// into the delta domain, without reconstructing values.
			dLo, dHi, ok := c.forDeltaBounds(ilo, any(hi).(int64))
			if !ok {
				return 0, 0, nil
			}
			var ds uint64
			for from := 0; from < c.n; from += forBlock {
				for _, d := range c.widen(buf[:], from) {
					if dLo <= d && d <= dHi {
						ds += d
						n++
					}
				}
			}
			return fromBits[T](uint64(c.base)*uint64(n) + ds), n, nil
		}
		// FOR frames a float's bit pattern; IEEE ordering is unrelated
		// to delta ordering, so floats decode elementwise.
		for from := 0; from < c.n; from += forBlock {
			for _, d := range c.widen(buf[:], from) {
				if x := fromBits[T](uint64(c.base) + d); lo <= x && x <= hi {
					sum += x
					n++
				}
			}
		}
	default:
		for i := 0; i+8 <= len(c.raw); i += 8 {
			if x := elem[T](c.raw[i:]); lo <= x && x <= hi {
				sum += x
				n++
			}
		}
	}
	return sum, n, nil
}

// addRun folds a run of k copies of v into sum: integers multiply
// (exact mod 2^64), floats add once per element so ordering matches the
// dense scan.
func addRun[T Number](sum, v T, k int) T {
	if _, ok := any(v).(int64); ok {
		return sum + v*T(k)
	}
	for ; k > 0; k-- {
		sum += v
	}
	return sum
}

// SumFloat64Where is SumWhere over an 8-byte IEEE-754 column (out of
// line for the reason SumFloat64 gives).
//
//go:noinline
func (c *Column) SumFloat64Where(p Pred[float64]) (float64, int64, error) { return SumWhere(c, p) }

// forDeltaBounds rewrites the closed int64 interval [lo, hi] into the
// FOR delta domain: x = base + d with d in [0, 2^(8·width)), so it
// becomes the closed delta interval [dLo, dHi]. ok is false when no
// delta can match.
func (c *Column) forDeltaBounds(lo, hi int64) (dLo, dHi uint64, ok bool) {
	if c.n == 0 || hi < c.base {
		return 0, 0, false
	}
	maxDelta := uint64(1)<<(8*c.width) - 1
	if lo > c.base {
		// Unsigned subtraction yields the exact non-negative difference
		// even when the signed difference would overflow.
		dLo = uint64(lo) - uint64(c.base)
		if dLo > maxDelta {
			return 0, 0, false
		}
	}
	dHi = uint64(hi) - uint64(c.base)
	if dHi > maxDelta {
		dHi = maxDelta
	}
	return dLo, dHi, true
}
