// Package agg holds the group table: the one accumulator behind every
// SELECT key, SUM(val), COUNT(*) ... GROUP BY key in the tree. The
// compressed-domain fold (internal/compress), the device's fused
// filter+aggregate kernel (internal/device) and the host operators and
// merges (internal/exec) all fold into a Table, element by element or
// partial group by partial group, and read it back in key order. The
// host and device ungrouped float64 sums over uncompressed columns share
// the scalar loops beside it, SumWhere and SumAll.
//
// Typed views. The filtered loops, FoldWhere and SumWhere, read a dense
// run that starts aligned to its element size, on a little-endian host,
// as a []float64 (group keys as a []int32 or []int64): one typed load
// per element instead of a byte decode. Anything else — an NSM stride, a
// misaligned buffer, a big-endian host — takes the strided byte loop,
// the one fallback. Both visit the same elements in the same order, so
// the sums agree to the bit. The unfiltered FoldAll and SumAll, which no
// served workload issues, keep the byte loop. Cells views cells a caller
// already holds as []uint64 (the MVCC patch projection's) as float64s or
// int64s with no check at all: the types share size, alignment and byte
// order, so the view reads the values math.Float64bits or int64 stored.
//
// Continuing. SumWhereFrom is SumWhere picking up a running sum and
// count, and FoldWhere already adds to whatever the table holds, so a
// caller may fold a column in ascending runs and skip the runs it knows
// admit nothing (the device's 64-row block zones): the admitted values
// meet the accumulator in the same order, and every answer keeps the
// bits of one sweep.
//
// The slot rule. A table keeps a window of 256 slots addressed by the
// low byte of the key. The window covers the contiguous key range
// [lo, lo+span) it has seen so far and widens, in either direction, for
// as long as that range stays within 256 keys; a key inside the range
// costs one subtract, one compare and an array index. A key that would
// stretch the range past 256 goes to the overflow — a map from key to a
// row in first-seen order, the table every caller used before — and can
// never fall inside the window later (the window only grows over keys
// that fit beside everything already in it). Nothing is configured: a
// small dense domain (a status code, a month, the benchmark's 64 groups)
// lives entirely in the window wherever it starts, a wide or sparse one
// (a foreign key) lives mostly in the map, and a column that starts
// dense and then leaves the window just starts using both.
//
// Arithmetic. Adding to a group is `c.Sum += x; c.Count++` on its cell,
// in call order, so per-group float sums are bit-identical to a
// sequential loop over the same elements. An idle cell's sum is -0, the
// additive identity of IEEE-754 (-0 + x == x for every x, +0 and NaN
// included; +0 + -0 would lose the sign), which is what lets a caller
// add without asking whether the group is new. A group exists while its
// count is non-zero.
//
// NaN. IEEE-754 leaves open which payload NaN + NaN keeps, and the
// hardware keeps whichever operand the compiler's register order made
// the destination: two loops over the same NaNs, or one loop under
// -race, can disagree. The unfiltered loops add through Add, which never
// lets two NaNs meet: a sum keeps the first NaN it folds (quieted), so a
// NaN answer has the same bits under every encoding and build. A
// filtered loop needs no rule — no NaN lies inside an interval.
package agg

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"unsafe"
)

// Group is one group of a grouped aggregation: key, SUM, COUNT. It is
// also the wire format of a device group table (24 bytes per group).
type Group struct {
	// Key is the grouping value (int64-widened).
	Key int64
	// Sum is the float64 total of the group's elements.
	Sum float64
	// Count is the number of elements folded into the group.
	Count int64
}

// Cell is a group's running total, what At hands out to be added to.
type Cell struct {
	Sum   float64
	Count int64
}

// window is the slot count; a power of two, so the low bits of a key
// address its slot and consecutive keys sit in consecutive slots (mod
// window) on both sides of zero.
const window = 256

// idle is a cell nothing has been folded into.
var idle = Cell{Sum: math.Copysign(0, -1)}

// Table accumulates groups. The zero value is an empty table. A used
// Table may be moved (copied, the original abandoned) but not used
// through two copies.
type Table struct {
	// lo and span delimit the key range [lo, lo+span) the window covers;
	// span is 0 while no key has arrived and never exceeds window.
	lo   int64
	span uint64
	win  *[window]Cell
	// over maps a key outside the window to its position in okeys and
	// ocells, which are in first-seen order.
	over   map[int64]int
	okeys  []int64
	ocells []Cell
	sorted []Group // Drain's scratch: the overflow in key order
}

// At returns the cell of key's group, creating the group if need be.
// The caller adds to it — `c.Sum += x; c.Count++` for one element, both
// fields of a partial group for a merge — before its next call on the
// table: the pointer does not outlive that. Small enough to inline, so
// a loop around it is one typed loop.
func (t *Table) At(key int64) *Cell {
	if uint64(key-t.lo) < t.span {
		return &t.win[uint64(key)%window]
	}
	return t.admit(key)
}

// admit finds the cell of a key outside the covered range: it widens
// the range to reach the key if 256 slots can still hold all of it, and
// otherwise falls back to the map. Distances are taken in uint64, where
// the difference of two int64 is exact even at the extremes.
func (t *Table) admit(key int64) *Cell {
	if t.win == nil {
		t.win = new([window]Cell)
		for i := range t.win {
			t.win[i] = idle
		}
	}
	switch below, above := uint64(t.lo)-uint64(key), uint64(key)-uint64(t.lo); {
	case t.span == 0:
		t.lo, t.span = key, 1
	case key < t.lo && below <= window-t.span:
		t.lo, t.span = key, t.span+below
	case key > t.lo && above < window:
		t.span = above + 1
	default:
		j, ok := t.over[key]
		if !ok {
			if t.over == nil {
				t.over = make(map[int64]int)
			}
			j = len(t.okeys)
			t.over[key] = j
			t.okeys = append(t.okeys, key)
			t.ocells = append(t.ocells, idle)
		}
		return &t.ocells[j]
	}
	return &t.win[uint64(key)%window]
}

// Merge folds partial groups — another table's totals — into the table.
func (t *Table) Merge(groups []Group) {
	for _, g := range groups {
		c := t.At(g.Key)
		c.Sum += g.Sum
		c.Count += g.Count
	}
}

// Drain appends the table's groups to dst in ascending key order — dst
// grows at most once — and empties the table, which keeps its storage
// for the next use. Only the overflow is sorted; the window is read out
// in slot order.
func (t *Table) Drain(dst []Group) []Group {
	over := t.sorted[:0]
	for j, c := range t.ocells {
		if c.Count != 0 {
			over = append(over, Group{Key: t.okeys[j], Sum: c.Sum, Count: c.Count})
		}
	}
	byKey := func(a, b Group) int { return cmp.Compare(a.Key, b.Key) }
	slices.SortFunc(over, byKey)
	live := len(over)
	for d := uint64(0); d < t.span; d++ {
		if t.win[uint64(t.lo+int64(d))%window].Count != 0 {
			live++
		}
	}
	dst = slices.Grow(dst, live)
	// The overflow keys all lie outside [lo, lo+span): those below it
	// come first.
	below, _ := slices.BinarySearchFunc(over, Group{Key: t.lo}, byKey)
	dst = append(dst, over[:below]...)
	for d := uint64(0); d < t.span; d++ {
		key := t.lo + int64(d)
		c := &t.win[uint64(key)%window]
		if c.Count != 0 {
			dst = append(dst, Group{Key: key, Sum: c.Sum, Count: c.Count})
		}
		*c = idle
	}
	dst = append(dst, over[below:]...)
	t.lo, t.span = 0, 0
	clear(t.over)
	t.okeys, t.ocells, t.sorted = t.okeys[:0], t.ocells[:0], over[:0]
	return dst
}

// Keys is a strided view of an int32 or int64 group-key column: element
// i is the little-endian Size-byte integer at Data[i*Stride:].
type Keys struct {
	Data   []byte
	Stride int
	// Size is 4 or 8.
	Size int
}

// At returns key i, sign-extended to int64.
func (k Keys) At(i int) int64 {
	if k.Size == 8 {
		return int64(binary.LittleEndian.Uint64(k.Data[i*k.Stride:]))
	}
	return int64(int32(binary.LittleEndian.Uint32(k.Data[i*k.Stride:])))
}

// Covers reports whether the view is well-formed and holds n keys.
func (k Keys) Covers(n int) bool {
	return (k.Size == 4 || k.Size == 8) && k.Stride >= k.Size && (n == 0 || (n-1)*k.Stride+k.Size <= len(k.Data))
}

// view reinterprets the first n elements of a dense run of T as a
// []T, so a loop reads each one with a single typed load instead of a
// byte decode. It does so only when that reads the same elements the
// strided byte loop would: the run is dense (stride equals T's size),
// non-empty and long enough, starts T-size-aligned, and the host is
// little-endian. Otherwise ok is false and the caller takes the byte
// loop.
func view[T int32 | int64 | float64](b []byte, stride, n int) (v []T, ok bool) {
	size := int(unsafe.Sizeof(T(0)))
	if !littleEndian || stride != size || n == 0 || n > len(b)/size || uintptr(unsafe.Pointer(unsafe.SliceData(b)))%uintptr(size) != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n), true
}

// Cells views 8-byte cells — float64 bits (math.Float64bits) or int64s
// — as the typed slice they hold, without a copy: the same memory in the
// same order, on any host.
func Cells[T float64 | int64](bits []uint64) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(bits))), len(bits))
}

// littleEndian reports whether the host's byte order is the column
// format's.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// FoldWhere is the fused filter+aggregate loop over an uncompressed
// float64 column: of the n values at vals[i*stride:], those inside the
// closed interval [lo, hi] are folded into the group of keys.At(i), in
// element order. A NaN is inside no interval. It reads typed views of
// the values and the keys where both have one, else the byte loop.
func (t *Table) FoldWhere(keys Keys, vals []byte, stride, n int, lo, hi float64) {
	if xs, ok := view[float64](vals, stride, n); ok {
		if ks, ok := view[int32](keys.Data, keys.Stride, n); ok && keys.Size == 4 {
			foldViews(t, ks, xs, lo, hi)
			return
		}
		if ks, ok := view[int64](keys.Data, keys.Stride, n); ok && keys.Size == 8 {
			foldViews(t, ks, xs, lo, hi)
			return
		}
	}
	for i := 0; i < n; i++ {
		x := math.Float64frombits(binary.LittleEndian.Uint64(vals[i*stride:]))
		if lo <= x && x <= hi {
			c := t.At(keys.At(i))
			c.Sum += x
			c.Count++
		}
	}
}

// foldViews is FoldWhere's typed body, one per key width.
func foldViews[K int32 | int64](t *Table, ks []K, xs []float64, lo, hi float64) {
	ks = ks[:len(xs)]
	for i, x := range xs {
		if lo <= x && x <= hi {
			c := t.At(int64(ks[i]))
			c.Sum += x
			c.Count++
		}
	}
}

// FoldAll is FoldWhere without the filter: every value, NaNs included.
func (t *Table) FoldAll(keys Keys, vals []byte, stride, n int) {
	for i := 0; i < n; i++ {
		c := t.At(keys.At(i))
		c.Sum = Add(c.Sum, math.Float64frombits(binary.LittleEndian.Uint64(vals[i*stride:])))
		c.Count++
	}
}

// SumWhere is FoldWhere without the groups: the sum and count of the n
// values at vals[i*stride:] inside [lo, hi], added in element order.
// Every ungrouped float64 sum over an uncompressed column, host or
// device, is this loop, so they agree to the bit.
func SumWhere(vals []byte, stride, n int, lo, hi float64) (sum float64, count int64) {
	return SumWhereFrom(0, 0, vals, stride, n, lo, hi)
}

// SumWhereFrom is SumWhere carrying on from a running sum and count: the
// values inside [lo, hi] are added to sum in element order, as if one
// loop had swept every run the caller folds this way. A caller that
// skips only runs admitting nothing keeps SumWhere's bits.
func SumWhereFrom(sum float64, count int64, vals []byte, stride, n int, lo, hi float64) (float64, int64) {
	if xs, ok := view[float64](vals, stride, n); ok {
		for _, x := range xs {
			if lo <= x && x <= hi {
				sum += x
				count++
			}
		}
		return sum, count
	}
	for i, off := 0, 0; i < n; i, off = i+1, off+stride {
		if x := math.Float64frombits(binary.LittleEndian.Uint64(vals[off:])); lo <= x && x <= hi {
			sum += x
			count++
		}
	}
	return sum, count
}

// SumAll is SumWhere without the filter: every value, NaNs included.
func SumAll(vals []byte, stride, n int) (sum float64) {
	for i, off := 0, 0; i < n; i, off = i+1, off+stride {
		sum = Add(sum, math.Float64frombits(binary.LittleEndian.Uint64(vals[off:])))
	}
	return sum
}

// Add is sum + x, except that a NaN sum ignores a NaN x: the one add of
// an unfiltered loop (see NaN in the package doc).
func Add(sum, x float64) float64 {
	if x != x && sum != sum {
		return sum
	}
	return sum + x
}
