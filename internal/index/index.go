// Package index provides the access paths record-centric queries resolve
// through. The paper's query Q1 — SELECT * FROM R WHERE pk = c — relies
// on the system "efficiently identify[ing] exactly one record without
// scanning the entire relation" (Section II-A); ES² manages record-
// centric access with distributed secondary indexes (Section IV-A.4).
//
// One structure is implemented from scratch: Hash, an open-addressing
// hash table with linear probing and tombstone deletion, mapping int64
// keys to row positions — the index maintained on every insert.
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

// slotState tags hash slots.
type slotState uint8

const (
	empty slotState = iota
	occupied
	tombstone
)

// slot is one hash bucket.
type slot struct {
	state slotState
	key   int64
	row   uint64
}

// Hash is an open-addressing hash index from int64 keys to row positions.
// Not safe for concurrent mutation.
type Hash struct {
	slots []slot
	n     int // live entries
	used  int // live + tombstones
}

// NewHash creates an index with the given initial capacity hint.
func NewHash(capacity int) *Hash {
	size := 16
	for size < capacity*2 {
		size *= 2
	}
	return &Hash{slots: make([]slot, size)}
}

// Len returns the number of live entries.
func (h *Hash) Len() int { return h.n }

// hash mixes the key (Fibonacci hashing over the table size).
func (h *Hash) hash(k int64) int {
	x := uint64(k) * 0x9E3779B97F4A7C15
	return int(x & uint64(len(h.slots)-1))
}

// Put inserts key → row; ErrDuplicate if the key exists.
func (h *Hash) Put(key int64, row uint64) error {
	if h.used*10 >= len(h.slots)*7 {
		h.grow()
	}
	i := h.hash(key)
	firstTomb := -1
	for {
		s := &h.slots[i]
		switch s.state {
		case empty:
			if firstTomb >= 0 {
				s = &h.slots[firstTomb]
			} else {
				h.used++
			}
			s.state, s.key, s.row = occupied, key, row
			h.n++
			return nil
		case tombstone:
			if firstTomb < 0 {
				firstTomb = i
			}
		case occupied:
			if s.key == key {
				return fmt.Errorf("%w: %d", ErrDuplicate, key)
			}
		}
		i = (i + 1) & (len(h.slots) - 1)
	}
}

// Get returns the row of key.
func (h *Hash) Get(key int64) (uint64, error) {
	i := h.hash(key)
	for {
		s := &h.slots[i]
		switch s.state {
		case empty:
			return 0, fmt.Errorf("%w: %d", ErrNotFound, key)
		case occupied:
			if s.key == key {
				return s.row, nil
			}
		}
		i = (i + 1) & (len(h.slots) - 1)
	}
}

// Update re-points an existing key to a new row.
func (h *Hash) Update(key int64, row uint64) error {
	i := h.hash(key)
	for {
		s := &h.slots[i]
		switch s.state {
		case empty:
			return fmt.Errorf("%w: %d", ErrNotFound, key)
		case occupied:
			if s.key == key {
				s.row = row
				return nil
			}
		}
		i = (i + 1) & (len(h.slots) - 1)
	}
}

// Delete removes key, leaving a tombstone.
func (h *Hash) Delete(key int64) error {
	i := h.hash(key)
	for {
		s := &h.slots[i]
		switch s.state {
		case empty:
			return fmt.Errorf("%w: %d", ErrNotFound, key)
		case occupied:
			if s.key == key {
				s.state = tombstone
				h.n--
				return nil
			}
		}
		i = (i + 1) & (len(h.slots) - 1)
	}
}

// grow doubles the table and rehashes live entries (dropping tombstones).
func (h *Hash) grow() {
	old := h.slots
	h.slots = make([]slot, len(old)*2)
	h.n, h.used = 0, 0
	for _, s := range old {
		if s.state == occupied {
			// Safe: capacity doubled, no duplicates among live entries.
			_ = h.Put(s.key, s.row)
		}
	}
}
