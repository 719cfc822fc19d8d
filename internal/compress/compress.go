// Package compress implements the lightweight column-compression schemes
// main-memory column stores rely on (the paper cites improved compression
// rates as a core DSM benefit in Section II-A, and L-Store's base pages
// are "read-only (and compressed)", Section IV-B.4):
//
//   - run-length encoding (RLE) for repetitive columns,
//   - dictionary encoding for low-cardinality columns,
//   - frame-of-reference (FOR) for integer columns with a narrow range,
//   - raw storage as the universal fallback.
//
// Compress tries every applicable scheme and keeps the smallest. Encoded
// columns support random access (At), full decompression, and fast-path
// aggregation without materializing.
package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Encoding enumerates the schemes.
type Encoding uint8

// The encodings.
const (
	// Raw stores elements unencoded.
	Raw Encoding = iota
	// RLE stores (count, value) runs.
	RLE
	// Dict stores one byte per element indexing a value dictionary of up
	// to 256 distinct values.
	Dict
	// FOR stores int64 elements as fixed-width unsigned deltas from the
	// column minimum.
	FOR
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case Raw:
		return "raw"
	case RLE:
		return "rle"
	case Dict:
		return "dict"
	case FOR:
		return "for"
	default:
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
}

// Compression errors.
var (
	// ErrBadInput is returned for inconsistent length/size arguments.
	ErrBadInput = errors.New("compress: bad input")
	// ErrNotApplicable is returned when a requested scheme cannot encode
	// the column (e.g. dictionary over 256 distinct values).
	ErrNotApplicable = errors.New("compress: encoding not applicable")
	// ErrOutOfRange is returned for element indexes out of range.
	ErrOutOfRange = errors.New("compress: index out of range")
)

// Column is one encoded column region: n fixed-width elements.
type Column struct {
	enc  Encoding
	n    int
	size int
	// raw/dict/rle/for payloads; only the active encoding's fields are set.
	raw     []byte
	runVals []byte // RLE: run values, size bytes each
	runEnds []byte // RLE: cumulative element counts (exclusive end), uint32 LE each
	dict    []byte // Dict: value table, size bytes each
	codes   []byte // Dict: one code per element
	base    int64  // FOR: frame base
	width   int    // FOR: delta bytes (1, 2, 4)
	deltas  []byte // FOR: packed deltas
	// lastRun memoizes the most recent findRun hit so sequential access
	// patterns skip the binary search; atomic so concurrent readers stay
	// race-free (the memo is advisory — any stale value only costs the
	// search).
	lastRun atomic.Int32
}

// Encoding returns the scheme in use.
func (c *Column) Encoding() Encoding { return c.enc }

// Len returns the element count.
func (c *Column) Len() int { return c.n }

// ElementSize returns the element width in bytes.
func (c *Column) ElementSize() int { return c.size }

// Runs returns the run count of an RLE column (0 for other encodings),
// the granularity its compressed-domain predicate evaluation works at.
func (c *Column) Runs() int { return len(c.runEnds) / 4 }

// runEnd returns the exclusive end of run k.
func (c *Column) runEnd(k int) int { return int(binary.LittleEndian.Uint32(c.runEnds[k*4:])) }

// CompressedBytes returns the encoded payload size.
func (c *Column) CompressedBytes() int {
	switch c.enc {
	case Raw:
		return len(c.raw)
	case RLE:
		return len(c.runVals) + len(c.runEnds)
	case Dict:
		return len(c.dict) + len(c.codes)
	case FOR:
		return 8 + len(c.deltas)
	default:
		return 0
	}
}

// Ratio returns uncompressed/compressed size (higher is better).
func (c *Column) Ratio() float64 {
	cb := c.CompressedBytes()
	if cb == 0 {
		return 1
	}
	return float64(c.n*c.size) / float64(cb)
}

// Compress encodes n elements of size bytes each from data, choosing the
// smallest applicable scheme.
func Compress(data []byte, n, size int) (*Column, error) {
	if size <= 0 || n < 0 || len(data) < n*size {
		return nil, fmt.Errorf("%w: %d elements of %d bytes in %d-byte buffer", ErrBadInput, n, size, len(data))
	}
	best, err := CompressAs(Raw, data, n, size)
	if err != nil {
		return nil, err
	}
	for _, enc := range []Encoding{RLE, Dict, FOR} {
		c, err := CompressAs(enc, data, n, size)
		if errors.Is(err, ErrNotApplicable) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if c.CompressedBytes() < best.CompressedBytes() {
			best = c
		}
	}
	return best, nil
}

// CompressAs encodes with a specific scheme.
func CompressAs(enc Encoding, data []byte, n, size int) (*Column, error) {
	if size <= 0 || n < 0 || len(data) < n*size {
		return nil, fmt.Errorf("%w: %d elements of %d bytes in %d-byte buffer", ErrBadInput, n, size, len(data))
	}
	c := &Column{enc: enc, n: n, size: size}
	switch enc {
	case Raw:
		c.raw = append([]byte(nil), data[:n*size]...)
		return c, nil
	case RLE:
		return c, c.encodeRLE(data)
	case Dict:
		return c, c.encodeDict(data)
	case FOR:
		return c, c.encodeFOR(data)
	default:
		return nil, fmt.Errorf("%w: unknown encoding %d", ErrNotApplicable, enc)
	}
}

// encodeRLE builds (value, cumulative-end) runs.
func (c *Column) encodeRLE(data []byte) error {
	for i := 0; i < c.n; i++ {
		el := data[i*c.size : (i+1)*c.size]
		last := c.Runs() - 1
		if last >= 0 && bytes.Equal(el, c.runVals[last*c.size:(last+1)*c.size]) {
			binary.LittleEndian.PutUint32(c.runEnds[last*4:], uint32(i+1))
			continue
		}
		c.runVals = append(c.runVals, el...)
		// Ends are cumulative-exclusive element indexes; extending a run
		// above moves the last end up by one, so they stay strictly
		// increasing.
		c.runEnds = binary.LittleEndian.AppendUint32(c.runEnds, uint32(i+1))
	}
	return nil
}

// encodeDict builds a ≤256-entry dictionary.
func (c *Column) encodeDict(data []byte) error {
	index := make(map[string]int)
	c.codes = make([]byte, c.n)
	for i := 0; i < c.n; i++ {
		el := string(data[i*c.size : (i+1)*c.size])
		code, ok := index[el]
		if !ok {
			if len(index) == 256 {
				return fmt.Errorf("%w: more than 256 distinct values", ErrNotApplicable)
			}
			code = len(index)
			index[el] = code
			c.dict = append(c.dict, el...)
		}
		c.codes[i] = byte(code)
	}
	return nil
}

// encodeFOR frames 8-byte little-endian integers.
func (c *Column) encodeFOR(data []byte) error {
	if c.size != 8 {
		return fmt.Errorf("%w: FOR requires 8-byte integers", ErrNotApplicable)
	}
	if c.n == 0 {
		return nil
	}
	min, max := int64(math.MaxInt64), int64(math.MinInt64)
	for i := 0; i < c.n; i++ {
		v := int64(binary.LittleEndian.Uint64(data[i*8:]))
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	span := uint64(max - min)
	switch {
	case span < 1<<8:
		c.width = 1
	case span < 1<<16:
		c.width = 2
	case span < 1<<32:
		c.width = 4
	default:
		return fmt.Errorf("%w: value span %d exceeds 32-bit frame", ErrNotApplicable, span)
	}
	c.base = min
	c.deltas = make([]byte, c.n*c.width)
	for i := 0; i < c.n; i++ {
		v := int64(binary.LittleEndian.Uint64(data[i*8:]))
		d := uint64(v - min)
		switch c.width {
		case 1:
			c.deltas[i] = byte(d)
		case 2:
			binary.LittleEndian.PutUint16(c.deltas[i*2:], uint16(d))
		case 4:
			binary.LittleEndian.PutUint32(c.deltas[i*4:], uint32(d))
		}
	}
	return nil
}

// At decodes element i into dst (which must be at least ElementSize
// bytes) and returns dst[:size].
func (c *Column) At(i int, dst []byte) ([]byte, error) {
	if i < 0 || i >= c.n {
		return nil, fmt.Errorf("%w: element %d of %d", ErrOutOfRange, i, c.n)
	}
	if len(dst) < c.size {
		return nil, fmt.Errorf("%w: %d-byte buffer for %d-byte element", ErrBadInput, len(dst), c.size)
	}
	switch c.enc {
	case Raw:
		copy(dst, c.raw[i*c.size:(i+1)*c.size])
	case RLE:
		k := c.findRun(i)
		copy(dst, c.runVals[k*c.size:(k+1)*c.size])
	case Dict:
		code := int(c.codes[i])
		copy(dst, c.dict[code*c.size:(code+1)*c.size])
	case FOR:
		binary.LittleEndian.PutUint64(dst, uint64(c.base+int64(c.delta(i))))
	}
	return dst[:c.size], nil
}

// findRun locates the run containing element i: first against the
// memoized last hit (and its successor, the sequential-access case),
// then by binary search.
func (c *Column) findRun(i int) int {
	if m := int(c.lastRun.Load()); m >= 0 && m < c.Runs() {
		if i < c.runEnd(m) && (m == 0 || i >= c.runEnd(m-1)) {
			return m
		}
		if m+1 < c.Runs() && i >= c.runEnd(m) && i < c.runEnd(m+1) {
			c.lastRun.Store(int32(m + 1))
			return m + 1
		}
	}
	lo, hi := 0, c.Runs()-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.runEnd(mid) <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.lastRun.Store(int32(lo))
	return lo
}

// Decompress materializes the full column.
func (c *Column) Decompress() []byte {
	out := make([]byte, c.n*c.size)
	c.DecompressInto(out)
	return out
}

// DecompressInto bulk-decodes the column into dst, which must hold at
// least Len()*ElementSize() bytes, and returns the filled prefix. Each
// encoding takes its natural bulk path — straight copy for Raw, run
// fills for RLE, dictionary gathers for Dict and delta widening for FOR
// — instead of the per-element At loop.
func (c *Column) DecompressInto(dst []byte) ([]byte, error) {
	total := c.n * c.size
	if len(dst) < total {
		return nil, fmt.Errorf("%w: %d-byte buffer for %d-byte column", ErrBadInput, len(dst), total)
	}
	dst = dst[:total]
	switch c.enc {
	case Raw:
		copy(dst, c.raw)
	case RLE:
		start := 0
		for k := 0; k < c.Runs(); k++ {
			end := c.runEnd(k)
			val := c.runVals[k*c.size : (k+1)*c.size]
			for i := start; i < end; i++ {
				copy(dst[i*c.size:], val)
			}
			start = end
		}
	case Dict:
		for i, code := range c.codes {
			copy(dst[i*c.size:], c.dict[int(code)*c.size:(int(code)+1)*c.size])
		}
	case FOR:
		var buf [forBlock]uint64
		for from := 0; from < c.n; from += forBlock {
			for j, d := range c.widen(buf[:], from) {
				binary.LittleEndian.PutUint64(dst[(from+j)*8:], uint64(c.base)+d)
			}
		}
	}
	// A bulk decode typically precedes a fresh access pattern over the
	// same Column (merge-then-reread, cache refill); park the run memo at
	// the first run so the sequential fast path re-engages from the start
	// instead of binary-searching away from wherever the previous reader
	// left it.
	c.lastRun.Store(0)
	return dst, nil
}

// delta returns FOR delta i widened to uint64.
func (c *Column) delta(i int) uint64 {
	switch c.width {
	case 1:
		return uint64(c.deltas[i])
	case 2:
		return uint64(binary.LittleEndian.Uint16(c.deltas[i*2:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(c.deltas[i*4:]))
	}
	return 0
}

// forBlock is how many FOR deltas the bulk loops widen at a time: the
// delta width is switched on once per block, and the loop over the
// widened block is the same typed loop whatever the width.
const forBlock = 256

// widen decodes the FOR deltas of elements [from, from+len(buf)), cut
// at the column's end, into buf and returns the filled prefix.
func (c *Column) widen(buf []uint64, from int) []uint64 {
	buf = buf[:min(len(buf), c.n-from)]
	switch c.width {
	case 1:
		for j, d := range c.deltas[from : from+len(buf)] {
			buf[j] = uint64(d)
		}
	case 2:
		for j := range buf {
			buf[j] = uint64(binary.LittleEndian.Uint16(c.deltas[(from+j)*2:]))
		}
	case 4:
		for j := range buf {
			buf[j] = uint64(binary.LittleEndian.Uint32(c.deltas[(from+j)*4:]))
		}
	}
	return buf
}

// Sum aggregates an 8-byte column without materializing, every element
// folded (a NaN included). Floats add element by element in storage
// order — bit-identical to the dense sum and to SumWhere over every
// value; int64 is exact mod 2^64, so there a run is its value times its
// length and a Dict column weights each entry by its code frequency.
func Sum[T Number](c *Column) (T, error) {
	if err := c.errNot8("sum"); err != nil {
		return 0, err
	}
	var sum T
	_, exact := any(sum).(int64)
	switch c.enc {
	case RLE:
		start := 0
		for k := 0; k < c.Runs(); k++ {
			end := c.runEnd(k)
			sum = addRun(sum, elem[T](c.runVals[k*8:]), end-start)
			start = end
		}
	case Dict:
		if exact {
			counts := make([]int, len(c.dict)/8)
			for _, code := range c.codes {
				counts[code]++
			}
			for code, n := range counts {
				sum += elem[T](c.dict[code*8:]) * T(n)
			}
		} else {
			for _, code := range c.codes {
				sum += elem[T](c.dict[int(code)*8:])
			}
		}
	case FOR:
		var buf [forBlock]uint64
		for from := 0; from < c.n; from += forBlock {
			for _, d := range c.widen(buf[:], from) {
				sum += fromBits[T](uint64(c.base) + d)
			}
		}
	default:
		for i := 0; i+8 <= len(c.raw); i += 8 {
			sum += elem[T](c.raw[i:])
		}
	}
	return sum, nil
}

// SumFloat64 is Sum over an 8-byte IEEE-754 column. Like
// SumFloat64Where it stays out of line: inlined into another package it
// leaves a call to a generic function there, across which escape
// analysis gives c up for lost — and the caller's Decode moves from its
// stack to the heap.
//
//go:noinline
func (c *Column) SumFloat64() (float64, error) { return Sum[float64](c) }

// SumInt64 is Sum over an 8-byte integer column (exact mod 2^64).
func (c *Column) SumInt64() (int64, error) { return Sum[int64](c) }

// String summarizes the column.
func (c *Column) String() string {
	return fmt.Sprintf("compressed{%s, %d×%dB, %.2fx}", c.enc, c.n, c.size, c.Ratio())
}
