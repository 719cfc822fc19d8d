// Package agg holds the group table: the one accumulator behind every
// SELECT key, SUM(val), COUNT(*) ... GROUP BY key in the tree. The
// compressed-domain operators (internal/compress), the device's fused
// filter+aggregate kernel (internal/device) and the host operators and
// merges (internal/exec) all fold into a Table, element by element or
// partial group by partial group, and read it back in key order.
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
package agg

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
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

// FoldWhere is the fused filter+aggregate loop over an uncompressed
// float64 column: of the n values at vals[i*stride:], those inside the
// closed interval [lo, hi] are folded into the group of keys.At(i), in
// element order. A NaN is inside no interval.
func (t *Table) FoldWhere(keys Keys, vals []byte, stride, n int, lo, hi float64) {
	for i := 0; i < n; i++ {
		x := math.Float64frombits(binary.LittleEndian.Uint64(vals[i*stride:]))
		if lo <= x && x <= hi {
			c := t.At(keys.At(i))
			c.Sum += x
			c.Count++
		}
	}
}

// FoldAll is FoldWhere without the filter: every value, NaNs included.
func (t *Table) FoldAll(keys Keys, vals []byte, stride, n int) {
	for i := 0; i < n; i++ {
		c := t.At(keys.At(i))
		c.Sum += math.Float64frombits(binary.LittleEndian.Uint64(vals[i*stride:]))
		c.Count++
	}
}
