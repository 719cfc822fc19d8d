// Package index provides the access paths record-centric queries resolve
// through. The paper's query Q1 — SELECT * FROM R WHERE pk = c — relies
// on the system "efficiently identify[ing] exactly one record without
// scanning the entire relation" (Section II-A); ES² manages record-
// centric access with distributed secondary indexes (Section IV-A.4).
//
// One structure is implemented from scratch: Hash, an open-addressing
// hash table with linear probing, mapping int64 keys to row positions —
// the index maintained on every insert. Primary keys are immutable and
// rows are never deleted, so entries only ever arrive.
package index

import (
	"errors"
	"fmt"
)

// Index errors.
var (
	// ErrNotFound is returned when a key has no entry.
	ErrNotFound = errors.New("index: key not found")
	// ErrDuplicate is returned when inserting an existing key.
	ErrDuplicate = errors.New("index: duplicate key")
)

// slot is one hash bucket.
type slot struct {
	occupied bool
	key      int64
	row      uint64
}

// Hash is an open-addressing hash index from int64 keys to row positions.
// Not safe for concurrent mutation.
type Hash struct {
	slots []slot
	n     int // entries
}

// NewHash creates an index with the given initial capacity hint.
func NewHash(capacity int) *Hash {
	size := 16
	for size < capacity*2 {
		size *= 2
	}
	return &Hash{slots: make([]slot, size)}
}

// Len returns the number of entries.
func (h *Hash) Len() int { return h.n }

// hash mixes the key (Fibonacci hashing over the table size).
func (h *Hash) hash(k int64) int {
	x := uint64(k) * 0x9E3779B97F4A7C15
	return int(x & uint64(len(h.slots)-1))
}

// Put inserts key → row; ErrDuplicate if the key exists.
func (h *Hash) Put(key int64, row uint64) error {
	if h.n*10 >= len(h.slots)*7 {
		h.grow()
	}
	i := h.hash(key)
	for h.slots[i].occupied {
		if h.slots[i].key == key {
			return fmt.Errorf("%w: %d", ErrDuplicate, key)
		}
		i = (i + 1) & (len(h.slots) - 1)
	}
	h.slots[i] = slot{occupied: true, key: key, row: row}
	h.n++
	return nil
}

// Get returns the row of key, ErrNotFound if it has none.
func (h *Hash) Get(key int64) (uint64, error) {
	row, ok := h.Lookup(key)
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	return row, nil
}

// Lookup returns the row of key and whether it has one: Get for a
// caller to whom a free key is an outcome, not a failure (every insert
// probes for its key first).
func (h *Hash) Lookup(key int64) (uint64, bool) {
	for i := h.hash(key); h.slots[i].occupied; i = (i + 1) & (len(h.slots) - 1) {
		if h.slots[i].key == key {
			return h.slots[i].row, true
		}
	}
	return 0, false
}

// grow doubles the table and rehashes the entries.
func (h *Hash) grow() {
	old := h.slots
	h.slots = make([]slot, len(old)*2)
	h.n = 0
	for _, s := range old {
		if s.occupied {
			// Safe: capacity doubled, no duplicates among the entries.
			_ = h.Put(s.key, s.row)
		}
	}
}
