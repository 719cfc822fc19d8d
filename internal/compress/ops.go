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
// Each operator body is written once over Number. Float64 accumulation
// deliberately stays element-ordered (a run value is added run-length
// times, not multiplied) so results are bit-identical to decompressing
// and running the executor's fused kernels; int64 arithmetic is exact
// mod 2^64, so the closed forms that pay — a run's value times its
// length, FOR delta sums against the frame base — are used there.

// Op mirrors the executor's sargable comparison vocabulary. The package
// cannot import internal/exec (exec imports compress), so the enum
// lives here with identical ordering and semantics; bridging is a field
// copy.
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

// Number is the element domain of the numeric operators (exec.Number's
// twin).
type Number interface {
	int64 | float64
}

// elem decodes the little-endian 8-byte field at b[0:8] as T.
func elem[T Number](b []byte) T { return fromBits[T](binary.LittleEndian.Uint64(b)) }

// fromBits reinterprets an 8-byte pattern as T. Both members of Number
// are 8 bytes wide, so this is a plain register move (a type switch here
// costs a dictionary lookup per element).
func fromBits[T Number](u uint64) T { return *(*T)(unsafe.Pointer(&u)) }

// Pred is a sargable predicate over one 8-byte numeric column, the
// compressed-domain twin of exec.Pred.
type Pred[T Number] struct {
	// Op is the comparison.
	Op Op
	// Lo is the lower/equality bound (OpEQ, OpGT, OpBetween).
	Lo T
	// Hi is the upper bound (OpLT, OpBetween).
	Hi T
}

// Match evaluates the predicate on one value.
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

// SumWhere computes SUM(x), COUNT(*) WHERE p over an 8-byte column in
// the compressed domain. Float64 results are bit-identical to
// decompressing and summing elementwise in order; int64 results are
// exact mod 2^64.
func SumWhere[T Number](c *Column, p Pred[T]) (T, int64, error) {
	if err := c.errNot8("sum-where"); err != nil {
		return 0, 0, err
	}
	var sum T
	var n int64
	switch c.enc {
	case RLE:
		// One predicate evaluation per run.
		start := uint32(0)
		for k, end := range c.runEnds {
			if v := elem[T](c.runVals[k*8:]); p.Match(v) {
				sum = addRun(sum, v, end-start)
				n += int64(end - start)
			}
			start = end
		}
	case Dict:
		var bits codeBits
		var vals [256]T
		for code := 0; code < len(c.dict)/8; code++ {
			vals[code] = elem[T](c.dict[code*8:])
			if p.Match(vals[code]) {
				bits.set(code)
			}
		}
		for _, code := range c.codes {
			if bits.has(code) {
				sum += vals[code]
				n++
			}
		}
	case FOR:
		if ip, ok := any(p).(Pred[int64]); ok {
			// Integers compare narrow deltas against the bounds rewritten
			// into the delta domain, without reconstructing values.
			dLo, dHi, ok := c.forDeltaBounds(ip)
			if !ok {
				return 0, 0, nil
			}
			var ds uint64
			for i := 0; i < c.n; i++ {
				if d := c.delta(i); dLo <= d && d <= dHi {
					ds += d
					n++
				}
			}
			return T(c.base*n + int64(ds)), n, nil
		}
		// FOR frames a float's bit pattern; IEEE ordering is unrelated
		// to delta ordering, so floats decode elementwise.
		for i := 0; i < c.n; i++ {
			if x := fromBits[T](uint64(c.base + int64(c.delta(i)))); p.Match(x) {
				sum += x
				n++
			}
		}
	default:
		for i := 0; i < c.n; i++ {
			if x := elem[T](c.raw[i*8:]); p.Match(x) {
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
func addRun[T Number](sum, v T, k uint32) T {
	if _, ok := any(v).(int64); ok {
		return sum + v*T(k)
	}
	for ; k > 0; k-- {
		sum += v
	}
	return sum
}

// SumFloat64Where is SumWhere over an 8-byte IEEE-754 column.
func (c *Column) SumFloat64Where(p Pred[float64]) (float64, int64, error) { return SumWhere(c, p) }

// forDeltaBounds rewrites an int64 predicate into the FOR delta domain:
// x = base + d with d in [0, 2^(8·width)), so p over x becomes the
// closed delta interval [dLo, dHi]. ok is false when no delta can
// match.
func (c *Column) forDeltaBounds(p Pred[int64]) (dLo, dHi uint64, ok bool) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	switch p.Op {
	case OpEQ:
		lo, hi = p.Lo, p.Lo
	case OpLT:
		if p.Hi == math.MinInt64 {
			return 0, 0, false
		}
		hi = p.Hi - 1
	case OpGT:
		if p.Lo == math.MaxInt64 {
			return 0, 0, false
		}
		lo = p.Lo + 1
	case OpBetween:
		if p.Lo > p.Hi {
			return 0, 0, false
		}
		lo, hi = p.Lo, p.Hi
	default:
		return 0, 0, false
	}
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
