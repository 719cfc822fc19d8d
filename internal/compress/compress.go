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
// Compress sizes every applicable scheme and encodes only the smallest.
// Encoded columns support random access (At), full decompression, and
// fast-path aggregation without materializing.
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
// smallest applicable scheme: Raw is the incumbent, and RLE, Dict and FOR
// in turn replace it only when strictly smaller. Each scheme is sized
// without allocating; only the winner is encoded.
func Compress(data []byte, n, size int) (*Column, error) {
	if size <= 0 || n < 0 || len(data) < n*size {
		return nil, fmt.Errorf("%w: %d elements of %d bytes in %d-byte buffer", ErrBadInput, n, size, len(data))
	}
	best, _ := sizeAs(Raw, data, n, size)
	for _, enc := range []Encoding{RLE, Dict, FOR} {
		if p, why := sizeAs(enc, data, n, size); why == "" && p.bytes < best.bytes {
			best = p
		}
	}
	return best.encode(data, n, size), nil
}

// CompressAs encodes with a specific scheme.
func CompressAs(enc Encoding, data []byte, n, size int) (*Column, error) {
	if size <= 0 || n < 0 || len(data) < n*size {
		return nil, fmt.Errorf("%w: %d elements of %d bytes in %d-byte buffer", ErrBadInput, n, size, len(data))
	}
	p, why := sizeAs(enc, data, n, size)
	if why != "" {
		return nil, fmt.Errorf("%w: %v: %s", ErrNotApplicable, enc, why)
	}
	return p.encode(data, n, size), nil
}

// plan is one scheme's image size, found without encoding, and what its
// encoder reuses from that pass.
type plan struct {
	enc   Encoding
	bytes int   // CompressedBytes of the image
	runs  int   // RLE: run count
	base  int64 // FOR: frame base
	width int   // FOR: delta bytes
}

// sizeAs sizes enc's image of the column, or says why enc cannot encode
// it.
func sizeAs(enc Encoding, data []byte, n, size int) (plan, string) {
	p := plan{enc: enc}
	switch enc {
	case Raw:
		p.bytes = n * size
	case RLE:
		for i := 0; i < n; i++ {
			if i == 0 || !bytes.Equal(data[i*size:(i+1)*size], data[(i-1)*size:i*size]) {
				p.runs++
			}
		}
		p.bytes = p.runs * (size + 4)
	case Dict:
		k := new(dictTable).scan(data, n, size, nil, nil)
		if k > 256 {
			return p, "more than 256 distinct values"
		}
		p.bytes = k*size + n
	case FOR:
		if size != 8 {
			return p, "FOR requires 8-byte integers"
		}
		p.bytes = 8
		if n == 0 {
			return p, ""
		}
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for i := 0; i < n; i++ {
			v := int64(binary.LittleEndian.Uint64(data[i*8:]))
			lo, hi = min(lo, v), max(hi, v)
		}
		// The narrowest of 1, 2 or 4 delta bytes that holds the span.
		for p.width = 1; p.width < 8 && uint64(hi-lo) >= 1<<(8*p.width); p.width *= 2 {
		}
		if p.width == 8 {
			return p, "value span exceeds 32-bit frame"
		}
		p.base, p.bytes = lo, 8+n*p.width
	default:
		return p, "unknown encoding"
	}
	return p, ""
}

// encode builds the planned image: one allocation for the Column and one
// for its payload, sized exactly by the plan.
func (p plan) encode(data []byte, n, size int) *Column {
	c := &Column{enc: p.enc, n: n, size: size, base: p.base, width: p.width}
	switch p.enc {
	case Raw:
		c.raw = append([]byte(nil), data[:n*size]...)
	case RLE:
		buf := make([]byte, 0, p.bytes)
		c.runVals, c.runEnds = buf[:0:p.runs*size], buf[p.runs*size:p.runs*size]
		for i := 0; i < n; i++ {
			el := data[i*size : (i+1)*size]
			// Ends are cumulative-exclusive element indexes; extending
			// a run moves the last end up by one, so they stay strictly
			// increasing.
			if i > 0 && bytes.Equal(el, data[(i-1)*size:i*size]) {
				binary.LittleEndian.PutUint32(c.runEnds[len(c.runEnds)-4:], uint32(i+1))
				continue
			}
			c.runVals = append(c.runVals, el...)
			c.runEnds = binary.LittleEndian.AppendUint32(c.runEnds, uint32(i+1))
		}
	case Dict:
		buf, k := make([]byte, p.bytes), p.bytes-n
		c.dict, c.codes = buf[:k:k], buf[k:]
		new(dictTable).scan(data, n, size, c.codes, c.dict)
	case FOR:
		c.deltas = make([]byte, n*p.width)
		for i := 0; i < n; i++ {
			d := uint64(int64(binary.LittleEndian.Uint64(data[i*8:])) - p.base)
			for b := 0; b < p.width; b++ {
				c.deltas[i*p.width+b] = byte(d >> (8 * b))
			}
		}
	}
	return c
}

// dictTable is Dict's open-addressing index over at most 256 distinct
// elements. A slot holds code+1 (0 is empty); keys holds each code's
// element bits when the element is 8 bytes wide, a hash of them
// otherwise, which the code's first occurrence then confirms. It lives
// on the caller's stack.
type dictTable struct {
	slots [512]uint16
	keys  [256]uint64
	first [256]int
}

// scan codes the elements by first appearance into codes and their
// values into dict (either may be nil) and returns the distinct count,
// stopping at the 257th.
func (d *dictTable) scan(data []byte, n, size int, codes, dict []byte) (k int) {
	for i := 0; i < n; i++ {
		el := data[i*size : (i+1)*size]
		key := elementKey(el)
		h := key * 0x9e3779b97f4a7c15 >> 55
		for d.slots[h] != 0 {
			s := int(d.slots[h]) - 1
			if d.keys[s] == key && (size == 8 || bytes.Equal(el, data[d.first[s]*size:(d.first[s]+1)*size])) {
				break
			}
			h = (h + 1) & 511
		}
		if d.slots[h] == 0 {
			if k == 256 {
				return 257
			}
			d.slots[h], d.keys[k], d.first[k] = uint16(k+1), key, i
			if dict != nil {
				copy(dict[k*size:], el)
			}
			k++
		}
		if codes != nil {
			codes[i] = byte(d.slots[h] - 1)
		}
	}
	return k
}

// elementKey is an 8-byte element's bits, or an FNV-1a hash of any other.
func elementKey(el []byte) uint64 {
	if len(el) == 8 {
		return binary.LittleEndian.Uint64(el)
	}
	k := uint64(0xcbf29ce484222325)
	for _, b := range el {
		k = (k ^ uint64(b)) * 0x100000001b3
	}
	return k
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

// String summarizes the column.
func (c *Column) String() string {
	return fmt.Sprintf("compressed{%s, %d×%dB, %.2fx}", c.enc, c.n, c.size, c.Ratio())
}
