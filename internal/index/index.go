// Package index provides the access paths record-centric queries resolve
// through. The paper's query Q1 — SELECT * FROM R WHERE pk = c — relies
// on the system "efficiently identify[ing] exactly one record without
// scanning the entire relation" (Section II-A); ES² manages record-
// centric access with distributed secondary indexes (Section IV-A.4).
//
// One structure is implemented from scratch: Hash, mapping int64 keys to
// row positions — the index maintained on every insert. Primary keys are
// immutable and rows are never deleted, so entries only ever arrive. It
// keeps only what a lookup needs, in two tiers:
//
//   - a key run (k0, r0, n): key k0+i is row r0+i for i < n. It holds for
//     as long as every Put has extended it, and costs no byte per key.
//     Every loader in this repository inserts pk == row in row order, so a
//     loaded table's index is three numbers.
//   - a table for the keys after the first Put that breaks the run: keys
//     and rows in arrival order (16 B per entry), found through an
//     open-addressing table of uint32 slots (entry number + 1, 0 empty)
//     with linear probing, at most half full (4 B per slot): 24 to 48 B
//     per key, 24 at 1<<17 shuffled keys.
//
// The run stays a prefix once the table exists: a later key that would
// extend it goes to the table.
package index

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrDuplicate is returned when inserting an existing key.
var ErrDuplicate = errors.New("index: duplicate key")

// minSlots is the table tier's size when the run first breaks.
const minSlots = 16

// Hash is the two-tier index from int64 keys to row positions. The zero
// value is an empty index. Not safe for concurrent mutation.
type Hash struct {
	k0 int64  // the run's first key
	r0 uint64 // its row
	n  uint64 // the run's length: keys k0 .. k0+n-1

	keys  []int64  // table entries in arrival order; cap is len(slots)/2
	rows  []uint64 // rows[e] is keys[e]'s row
	slots []uint32 // entry number + 1, 0 empty; a power of two, or nil
	shift uint     // 64 - log2(len(slots))
}

// NewHash creates an empty index.
func NewHash() *Hash { return &Hash{} }

// Len returns the number of entries.
func (h *Hash) Len() int { return int(h.n) + len(h.keys) }

// Put inserts key → row; ErrDuplicate if the key exists.
func (h *Hash) Put(key int64, row uint64) error {
	switch {
	case h.n == 0:
		h.k0, h.r0, h.n = key, row, 1
		return nil
	case h.keys == nil && h.extends(key, row):
		h.n++
		return nil
	case uint64(key)-uint64(h.k0) < h.n:
		return fmt.Errorf("%w: %d", ErrDuplicate, key)
	}
	if len(h.keys) == cap(h.keys) {
		h.grow()
	}
	i := h.probe(key)
	if h.slots[i] != 0 {
		return fmt.Errorf("%w: %d", ErrDuplicate, key)
	}
	h.keys = append(h.keys, key)
	h.rows = append(h.rows, row)
	h.slots[i] = uint32(len(h.keys))
	return nil
}

// extends reports whether key → row is the run's next pair, k0+n → r0+n,
// without either sum wrapping past the end of its type.
func (h *Hash) extends(key int64, row uint64) bool {
	return key > h.k0 && uint64(key)-uint64(h.k0) == h.n &&
		row > h.r0 && row-h.r0 == h.n
}

// Lookup returns the row of key and whether it has one: Get for a
// caller to whom a free key is an outcome, not a failure (every insert
// probes for its key first).
func (h *Hash) Lookup(key int64) (uint64, bool) {
	// The run's range test reads no memory beyond the header; the
	// subtraction wraps a key below k0 past n.
	if d := uint64(key) - uint64(h.k0); d < h.n {
		return h.r0 + d, true
	}
	if h.slots == nil {
		return 0, false
	}
	if e := h.slots[h.probe(key)]; e != 0 {
		return h.rows[e-1], true
	}
	return 0, false
}

// probe returns the slot holding key's entry number, or the empty slot
// that ends key's probe sequence when the table has no entry for it. The
// sequence starts at the top bits of a Fibonacci hash, so keys that
// differ only in their high bits still spread.
func (h *Hash) probe(key int64) int {
	mask := len(h.slots) - 1
	i := int(uint64(key) * 0x9E3779B97F4A7C15 >> h.shift)
	for e := h.slots[i]; e != 0 && h.keys[e-1] != key; e = h.slots[i] {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the table tier (or allocates it, at the first key that
// breaks the run) and relinks the entries. The entry arrays grow to half
// the slot count, so the table is at most half full.
func (h *Hash) grow() {
	size := max(minSlots, 2*len(h.slots))
	h.shift = uint(64 - bits.TrailingZeros(uint(size)))
	h.slots = make([]uint32, size)
	keys, rows := make([]int64, len(h.keys), size/2), make([]uint64, len(h.rows), size/2)
	copy(keys, h.keys)
	copy(rows, h.rows)
	h.keys, h.rows = keys, rows
	for e, k := range h.keys {
		h.slots[h.probe(k)] = uint32(e + 1)
	}
}
