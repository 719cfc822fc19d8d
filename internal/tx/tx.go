// Package tx implements a multi-version concurrency control (MVCC)
// version store with snapshot isolation. It is the substrate behind the
// paper's challenge (b.iii) — "efficient processing of both workload
// types without interferences between long-running ad-hoc analytic
// queries and massive short-living write-intensive transactional queries"
// — and the mechanism HyPer-style engines use to detach analytic query
// execution from mission-critical transactional data: analytic readers
// pin a snapshot timestamp and never block or observe concurrent writers.
//
// The design is a classic timestamp-ordered version chain per row with
// buffered writes and first-committer-wins conflict resolution:
//
//   - Begin assigns the transaction a begin timestamp (the snapshot).
//   - Reads see the newest version committed at or before the snapshot,
//     plus the transaction's own buffered writes.
//   - Commit validates that no written row has a newer committed version
//     than the snapshot (else ErrConflict) and installs all writes
//     atomically at a fresh commit timestamp.
//   - Prune garbage-collects versions no active snapshot can see.
package tx

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"hybridstore/internal/obs"
	"hybridstore/internal/schema"
)

// Process-wide transaction counters, aggregated over every Manager and
// Store (engines create one of each per table).
var (
	mBegins         = obs.NewCounter("tx.begins")
	mCommits        = obs.NewCounter("tx.commits")
	mConflicts      = obs.NewCounter("tx.conflicts")
	mAborts         = obs.NewCounter("tx.aborts")
	mVersionsPruned = obs.NewCounter("tx.versions_pruned")
)

// Transaction errors.
var (
	// ErrConflict is returned by Commit when another transaction
	// committed a newer version of a written row (first committer wins).
	ErrConflict = errors.New("tx: write-write conflict")
	// ErrClosed is returned when using a committed or aborted transaction.
	ErrClosed = errors.New("tx: transaction already finished")
	// ErrNotFound is returned when reading a row with no visible version.
	ErrNotFound = errors.New("tx: no visible version")
)

// version is one entry of a row's version chain, newest first.
type version struct {
	ts      uint64
	rec     schema.Record
	deleted bool
	next    *version
}

// Chains are kept in row order: pages of pageRows consecutive rows,
// ascending. A page costs 4.1 KiB, appears with the first chain in its
// range and goes with the last — 1 MiB when updates have touched all
// 256 pages of a 131072-row table, nothing after a merge.
const pageRows = 512

// page holds the chain heads of rows [id*pageRows, (id+1)*pageRows).
type page struct {
	id    uint64
	heads [pageRows]*version
	live  [pageRows / 64]uint64 // bit i set: heads[i] != nil
	n     int                   // set bits
}

// Store holds the version chains of one relation. The zero value is not
// usable; create stores with NewStore. Safe for concurrent use.
type Store struct {
	mu    sync.RWMutex
	pages map[uint64]*page // by id, none empty
	order []*page          // the same pages, ascending id
	rows  int              // live chains
	// versions counts the stored versions. It only changes under the
	// write lock, next to the chain edit it accounts for, and is read
	// without the lock.
	versions atomic.Int64
}

// NewStore creates an empty version store.
func NewStore() *Store { return &Store{pages: make(map[uint64]*page)} }

// at returns the newest version of the chain headed by v committed at or
// before ts.
func (v *version) at(ts uint64) *version {
	for ; v != nil; v = v.next {
		if v.ts <= ts {
			return v
		}
	}
	return nil
}

// head returns row's newest version, nil when the row has no chain.
// Caller holds the lock.
func (s *Store) head(row uint64) *version {
	if p := s.pages[row/pageRows]; p != nil {
		return p.heads[row%pageRows]
	}
	return nil
}

// visible returns the newest version of row committed at or before ts.
func (s *Store) visible(row uint64, ts uint64) *version { return s.head(row).at(ts) }

// LatestTS returns the commit timestamp of row's newest version (0 if the
// row has none).
func (s *Store) LatestTS(row uint64) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v := s.head(row); v != nil {
		return v.ts
	}
	return 0
}

// Rows returns the number of rows with at least one version.
func (s *Store) Rows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rows
}

// Versions returns the total number of stored versions (for GC tests,
// compaction policies and the result cache's "no live deltas" check).
// It is a maintained count, not a walk: O(1) and lock-free.
func (s *Store) Versions() int { return int(s.versions.Load()) }

// install pushes a new newest version onto row's chain, opening the
// row's page if this is its first chain. Caller holds the write lock.
func (s *Store) install(row uint64, v *version) {
	id, i := row/pageRows, row%pageRows
	p := s.pages[id]
	if p == nil {
		p = &page{id: id}
		s.pages[id] = p
		at, _ := slices.BinarySearchFunc(s.order, id, func(p *page, id uint64) int { return cmp.Compare(p.id, id) })
		s.order = slices.Insert(s.order, at, p)
	}
	if v.next = p.heads[i]; v.next == nil {
		p.live[i/64] |= 1 << (i % 64)
		p.n++
		s.rows++
	}
	p.heads[i] = v
	s.versions.Add(1)
}

// unlink removes the chain at slot i of p. Caller holds the write lock,
// accounts for the versions and, before releasing the lock, sweeps the
// pages this emptied.
func (s *Store) unlink(p *page, i uint64) {
	p.heads[i] = nil
	p.live[i/64] &^= 1 << (i % 64)
	p.n--
	s.rows--
}

// sweep drops the pages whose last chain went.
func (s *Store) sweep() {
	s.order = slices.DeleteFunc(s.order, func(p *page) bool {
		if p.n == 0 {
			delete(s.pages, p.id)
		}
		return p.n == 0
	})
}

// dropped accounts for n versions removed from the chains. Caller holds
// the write lock.
func (s *Store) dropped(n int64) {
	s.versions.Add(-n)
	mVersionsPruned.Add(n)
}

// Prune drops versions that no snapshot at or after minTS can see: for
// each chain the newest version with ts <= minTS is kept, everything
// older is cut. Deleted markers older than minTS are removed entirely.
func (s *Store) Prune(minTS uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var pruned int64
	for _, p := range s.order {
		for w, word := range p.live { // a copy: unlink edits the page's
			for ; word != 0; word &= word - 1 {
				i := uint64(w*64 + bits.TrailingZeros64(word))
				v := p.heads[i]
				// Find the newest version visible at minTS; cut its tail.
				for cur := v; cur != nil; cur = cur.next {
					if cur.ts <= minTS {
						for t := cur.next; t != nil; t = t.next {
							pruned++
						}
						cur.next = nil
						break
					}
				}
				// A chain whose only remaining content is an old delete
				// marker can vanish.
				if v.deleted && v.ts <= minTS && v.next == nil {
					pruned++
					s.unlink(p, i)
				}
			}
		}
	}
	s.sweep()
	s.dropped(pruned)
}

// Forget removes the entire version chain of each listed row whose
// newest version committed at or before upTo, under one acquisition of
// the write lock. It is the merge path of HTAP engines: the caller
// folded the version visible at upTo into its base storage and no
// active snapshot predates upTo (Manager.MinActiveTS). A chain that
// gained a newer version since — commits do not wait for the merging
// engine — is left whole: the base then holds an older settled value
// and the chain keeps patching over it.
func (s *Store) Forget(rows []uint64, upTo uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, row := range rows {
		p := s.pages[row/pageRows]
		if p == nil {
			continue
		}
		v := p.heads[row%pageRows]
		if v == nil || v.ts > upTo {
			continue
		}
		for ; v != nil; v = v.next {
			n++
		}
		s.unlink(p, row%pageRows)
	}
	s.sweep()
	s.dropped(n)
}

// Manager issues timestamps and transactions over any number of stores.
// Safe for concurrent use.
type Manager struct {
	mu     sync.Mutex
	clock  uint64
	active map[uint64]uint64 // txID → beginTS
	nextID uint64
	logger CommitLogger // write-ahead hook; nil when the table is not durable
}

// NewManager creates a transaction manager.
func NewManager() *Manager {
	return &Manager{active: make(map[uint64]uint64)}
}

// Begin starts a transaction with a snapshot of the current clock.
func (m *Manager) Begin() *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	t := &Tx{
		m:       m,
		id:      m.nextID,
		beginTS: m.clock,
		writes:  make(map[writeKey]writeVal),
	}
	m.active[t.id] = t.beginTS
	mBegins.Inc()
	return t
}

// MinActiveTS returns the smallest snapshot timestamp any active
// transaction holds, or the current clock when none is active. It is the
// safe horizon for Store.Prune.
func (m *Manager) MinActiveTS() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	min := m.clock
	for _, ts := range m.active {
		if ts < min {
			min = ts
		}
	}
	return min
}

// Now returns the current logical clock value.
func (m *Manager) Now() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clock
}

// writeKey addresses one row of one store inside a transaction's buffer.
type writeKey struct {
	store *Store
	row   uint64
}

// writeVal is one buffered write.
type writeVal struct {
	rec     schema.Record
	deleted bool
}

// Tx is one transaction. A Tx is not safe for concurrent use by multiple
// goroutines (like database handles, each goroutine begins its own).
type Tx struct {
	m       *Manager
	id      uint64
	beginTS uint64
	writes  map[writeKey]writeVal
	closed  bool
}

// SnapshotTS returns the transaction's begin timestamp.
func (t *Tx) SnapshotTS() uint64 { return t.beginTS }

// Read returns the record of row visible to this transaction: its own
// buffered write if any, else the newest version at or before its
// snapshot. ErrNotFound is returned for invisible or deleted rows.
func (t *Tx) Read(s *Store, row uint64) (schema.Record, error) {
	if t.closed {
		return nil, ErrClosed
	}
	if w, ok := t.writes[writeKey{s, row}]; ok {
		if w.deleted {
			return nil, fmt.Errorf("%w: row %d deleted in this transaction", ErrNotFound, row)
		}
		return w.rec.Clone(), nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := s.visible(row, t.beginTS)
	if v == nil || v.deleted {
		return nil, fmt.Errorf("%w: row %d at ts %d", ErrNotFound, row, t.beginTS)
	}
	return v.rec.Clone(), nil
}

// Write buffers a full-record write of row.
func (t *Tx) Write(s *Store, row uint64, rec schema.Record) error {
	if t.closed {
		return ErrClosed
	}
	t.writes[writeKey{s, row}] = writeVal{rec: rec.Clone()}
	return nil
}

// Delete buffers a deletion of row.
func (t *Tx) Delete(s *Store, row uint64) error {
	if t.closed {
		return ErrClosed
	}
	t.writes[writeKey{s, row}] = writeVal{deleted: true}
	return nil
}

// Pending returns the number of buffered writes.
func (t *Tx) Pending() int { return len(t.writes) }

// Commit validates and installs the buffered writes atomically at a fresh
// commit timestamp. On conflict everything is discarded and ErrConflict
// returned; the transaction is finished either way. When the manager has
// a CommitLogger, the write set is appended to the log inside the commit
// critical section (before versions install) and Commit blocks on
// durability after the critical section ends.
func (t *Tx) Commit() error {
	if t.closed {
		return ErrClosed
	}
	t.closed = true

	wait, err := t.commitCritical()
	if err != nil {
		return err
	}
	// Durability wait happens outside the commit lock: concurrent
	// committers pile into the same group-commit flush instead of
	// serializing on fsync.
	if wait != nil {
		if err := wait(); err != nil {
			return fmt.Errorf("tx: commit not durable: %w", err)
		}
	}
	return nil
}

// commitCritical is Commit's validate+log+install section under the
// manager lock. It returns the durability wait hook from the logger.
func (t *Tx) commitCritical() (func() error, error) {
	// The manager lock is held across validate+install, making Commit the
	// serial commit point: commit-timestamp order equals validation order,
	// and — because the logger runs here too — equals log append order.
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	defer delete(t.m.active, t.id)

	// Group writes per store; each store is validated under its own lock.
	stores := make(map[*Store][]writeKey)
	for k := range t.writes {
		stores[k.store] = append(stores[k.store], k)
	}
	for s, keys := range stores {
		s.mu.Lock()
		for _, k := range keys {
			if v := s.head(k.row); v != nil && v.ts > t.beginTS {
				s.mu.Unlock()
				mConflicts.Inc()
				return nil, fmt.Errorf("%w: row %d written at ts %d after snapshot %d",
					ErrConflict, k.row, v.ts, t.beginTS)
			}
		}
		s.mu.Unlock()
	}

	t.m.clock++
	commitTS := t.m.clock

	var wait func() error
	if t.m.logger != nil && len(t.writes) > 0 {
		writes := make([]LoggedWrite, 0, len(t.writes))
		for k, w := range t.writes {
			writes = append(writes, LoggedWrite{Row: k.row, Deleted: w.deleted, Rec: w.rec})
		}
		sort.Slice(writes, func(i, j int) bool { return writes[i].Row < writes[j].Row })
		w, err := t.m.logger(commitTS, writes)
		if err != nil {
			mAborts.Inc()
			return nil, fmt.Errorf("tx: write-ahead append failed, commit aborted: %w", err)
		}
		wait = w
	}

	for s, keys := range stores {
		s.mu.Lock()
		for _, k := range keys {
			w := t.writes[k]
			s.install(k.row, &version{ts: commitTS, rec: w.rec, deleted: w.deleted})
		}
		s.mu.Unlock()
	}
	mCommits.Inc()
	return wait, nil
}

// Abort discards the buffered writes and finishes the transaction.
func (t *Tx) Abort() {
	if t.closed {
		return
	}
	t.closed = true
	t.writes = nil
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	delete(t.m.active, t.id)
	mAborts.Inc()
}
