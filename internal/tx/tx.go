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
//
// One Store is all of it for one relation: the clock, the set of active
// snapshots, the write-ahead hook and the version chains. A row, once it
// has a version, always has one: nothing above this package can delete a
// row, so a chain holds records only.
package tx

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"hybridstore/internal/obs"
	"hybridstore/internal/schema"
)

// Process-wide transaction counters, aggregated over every Store (one
// per table).
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
)

// version is one entry of a row's version chain, newest first.
type version struct {
	ts   uint64
	rec  schema.Record
	next *version
}

// Chains are kept in row order: pages of pageRows consecutive rows,
// ascending. A page costs 4.1 KiB, appears with the first chain in its
// range and leaves the order with the last — 1 MiB when updates have
// touched all 256 pages of a 131072-row table. A page that leaves is kept
// on the store's free list for the next page that opens, so a settlement
// followed by fresh updates allocates no page again; the list holds at
// most the pages the store has held at once.
const pageRows = 512

// page holds the chain heads of rows [id*pageRows, (id+1)*pageRows).
type page struct {
	id    uint64
	heads [pageRows]*version
	live  [pageRows / 64]uint64 // bit i set: heads[i] != nil
	n     int                   // set bits
	maxTS uint64                // newest version ts ever installed here
}

// Store is the MVCC state of one relation: it issues timestamps and
// transactions and holds the version chains they read and install. The
// zero value is not usable; create stores with NewStore. Safe for
// concurrent use.
type Store struct {
	// commit is the serial commit point: it guards the clock, the active
	// snapshots and the logger, and is taken outside mu.
	commit sync.Mutex
	clock  uint64
	active map[uint64]int // snapshot ts -> transactions begun there, neither committed nor aborted
	logger CommitLogger   // write-ahead hook; nil when the table is not durable

	// mu guards the chains. A committer takes it to validate and again to
	// install, never across the log append between the two.
	mu    sync.RWMutex
	pages map[uint64]*page // by id, none empty
	order []*page          // the same pages, ascending id
	free  []*page          // emptied pages, kept for reuse
	// versions counts the stored versions. It only changes under the
	// write lock, next to the chain edit it accounts for, and is read
	// without the lock.
	versions atomic.Int64
}

// NewStore creates an empty version store with its clock at 0.
func NewStore() *Store {
	return &Store{active: make(map[uint64]int), pages: make(map[uint64]*page)}
}

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

// Versions returns the total number of stored versions (for GC tests
// and the result cache's Peek, which serves a cached settled base only
// at 0, where the patch is empty and the base is the answer). It is a
// maintained count, not a walk: O(1) and lock-free.
func (s *Store) Versions() int { return int(s.versions.Load()) }

// install pushes a new newest version onto row's chain, opening the
// row's page if this is its first chain. Caller holds the write lock.
func (s *Store) install(row uint64, v *version) {
	id, i := row/pageRows, row%pageRows
	p := s.pages[id]
	if p == nil {
		if k := len(s.free) - 1; k >= 0 {
			p, s.free = s.free[k], s.free[:k]
			*p = page{id: id}
		} else {
			p = &page{id: id}
		}
		s.pages[id] = p
		at, _ := slices.BinarySearchFunc(s.order, id, func(p *page, id uint64) int { return cmp.Compare(p.id, id) })
		s.order = slices.Insert(s.order, at, p)
	}
	if v.next = p.heads[i]; v.next == nil {
		p.live[i/64] |= 1 << (i % 64)
		p.n++
	}
	p.heads[i] = v
	p.maxTS = max(p.maxTS, v.ts)
	s.versions.Add(1)
}

// dropped accounts for n versions removed from the chains. Caller holds
// the write lock.
func (s *Store) dropped(n int64) {
	s.versions.Add(-n)
	mVersionsPruned.Add(n)
}

// Prune drops versions that no snapshot at or after minTS can see: for
// each chain the newest version with ts <= minTS is kept, everything
// older is cut. Every chain keeps at least one version.
func (s *Store) Prune(minTS uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var pruned int64
	for _, p := range s.order {
		for w, word := range p.live {
			for ; word != 0; word &= word - 1 {
				if keep := p.heads[w*64+bits.TrailingZeros64(word)].at(minTS); keep != nil {
					for v := keep.next; v != nil; v = v.next {
						pruned++
					}
					keep.next = nil
				}
			}
		}
	}
	s.dropped(pruned)
}

// Forget removes the entire version chain of each listed row whose
// newest version committed at or before upTo, under one acquisition of
// the write lock. It is the merge path of HTAP engines: the caller
// folded the version visible at upTo into its base storage and no
// active snapshot predates upTo (MinActiveTS). A chain that gained a
// newer version since — commits do not wait for the merging engine — is
// left whole: the base then holds an older settled value and the chain
// keeps patching over it.
func (s *Store) Forget(rows []uint64, upTo uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, row := range rows {
		p, i := s.pages[row/pageRows], row%pageRows
		if p == nil || p.heads[i] == nil || p.heads[i].ts > upTo {
			continue
		}
		for v := p.heads[i]; v != nil; v = v.next {
			n++
		}
		p.heads[i] = nil
		p.live[i/64] &^= 1 << (i % 64)
		p.n--
	}
	// The pages whose last chain went leave the order for the free list.
	s.order = slices.DeleteFunc(s.order, func(p *page) bool {
		if p.n == 0 {
			delete(s.pages, p.id)
			s.free = append(s.free, p)
		}
		return p.n == 0
	})
	s.dropped(n)
}

// hit is one visible version a walk collected.
type hit struct {
	row uint64
	v   *version
}

// hitScratch recycles the walks' hit lists: 16 B per live chain and
// scan otherwise.
var hitScratch = sync.Pool{New: func() any { return new([]hit) }}

// RangeVisible is the store's one visible-version iterator: it calls
// fn, in ascending row order, once for every row whose version visible
// at ts committed after since, passing that version's record and commit
// timestamp. since = 0 is every row with a version visible at ts; a
// reader that saw the store at snapshot since asks for only what moved
// from there. fn returning false stops the walk.
//
// The walk takes the read lock once, and only to collect the visible
// versions — committers wait for one pass over the live chains, not for
// fn. The pages are in row order, so the pass is O(c) for c live chains
// and sorts nothing; a page whose newest install is at or below since
// holds nothing to report and is skipped without touching a chain. It
// then calls fn outside the lock, and what fn sees is the store at the
// instant of collection: versions are immutable once installed, so a
// commit, Prune or Forget that lands later changes nothing the walk
// hands out. For the same reason rec is the stored record itself, not a
// copy: it is read-only, and fn should copy out what it needs rather
// than retain it (a held record outlives the version's removal).
func (s *Store) RangeVisible(since, ts uint64, fn func(row uint64, rec schema.Record, verTS uint64) bool) {
	scratch := hitScratch.Get().(*[]hit)
	hits := (*scratch)[:0]
	s.mu.RLock()
	for _, p := range s.order {
		if p.maxTS <= since {
			continue
		}
		for w, word := range p.live {
			for ; word != 0; word &= word - 1 {
				i := w*64 + bits.TrailingZeros64(word)
				if v := p.heads[i].at(ts); v != nil && v.ts > since {
					hits = append(hits, hit{p.id*pageRows + uint64(i), v})
				}
			}
		}
	}
	s.mu.RUnlock()
	for _, h := range hits {
		if !fn(h.row, h.v.rec, h.v.ts) {
			break
		}
	}
	clear(hits) // pooled scratch must not keep removed versions alive
	*scratch = hits
	hitScratch.Put(scratch)
}

// Begin starts a transaction with a snapshot of the current clock. Until
// it commits or aborts, MinActiveTS does not pass that snapshot — which
// is all a reader that only wants a stable horizon needs from it.
//
// The store keeps the snapshot, not the Tx: Begin inlines, so a Tx its
// caller neither stores nor returns lives on the caller's stack.
func (s *Store) Begin() *Tx { return &Tx{s: s, beginTS: s.begin()} }

// begin registers a snapshot at the current clock and returns it.
func (s *Store) begin() uint64 {
	s.commit.Lock()
	defer s.commit.Unlock()
	s.active[s.clock]++
	mBegins.Inc()
	return s.clock
}

// end releases one snapshot at ts. Caller holds the commit lock.
func (s *Store) end(ts uint64) {
	if s.active[ts]--; s.active[ts] == 0 {
		delete(s.active, ts)
	}
}

// MinActiveTS returns the smallest snapshot timestamp any active
// transaction holds, or the current clock when none is active. It is the
// safe horizon for Prune and Forget.
func (s *Store) MinActiveTS() uint64 {
	s.commit.Lock()
	defer s.commit.Unlock()
	ts := s.clock
	for at := range s.active {
		ts = min(ts, at)
	}
	return ts
}

// Tx is one transaction. A Tx is not safe for concurrent use by multiple
// goroutines (like database handles, each goroutine begins its own).
type Tx struct {
	s       *Store
	beginTS uint64
	// writes buffers full records, one entry per row, ascending by row:
	// the order validation and install walk and the CommitLogger gets.
	// The first Write makes it: a reader never has one.
	writes []LoggedWrite
	closed bool
}

// SnapshotTS returns the transaction's begin timestamp.
func (t *Tx) SnapshotTS() uint64 { return t.beginTS }

// Lookup returns the record of row visible to this transaction: its own
// buffered write if any, else the newest version at or before its
// snapshot. A row without a visible version is an outcome, not a failure
// (every row the deltas have not touched, which is most rows, most of
// the time): ok reports whether there is one. The record is the
// caller's own copy.
func (t *Tx) Lookup(row uint64) (rec schema.Record, ok bool, err error) {
	return t.LookupInto(row, nil)
}

// LookupInto is Lookup copying the record into dst's backing array when
// it has room (dst's length is ignored), so a caller that reads a row
// only to modify and Write it allocates nothing for the read.
func (t *Tx) LookupInto(row uint64, dst schema.Record) (rec schema.Record, ok bool, err error) {
	if t.closed {
		return nil, false, ErrClosed
	}
	if i, ok := t.find(row); ok {
		return append(dst[:0], t.writes[i].Rec...), true, nil
	}
	t.s.mu.RLock()
	defer t.s.mu.RUnlock()
	v := t.s.head(row).at(t.beginTS)
	if v == nil {
		return nil, false, nil
	}
	return append(dst[:0], v.rec...), true, nil
}

// find returns row's index in the write set, or where it would go.
func (t *Tx) find(row uint64) (int, bool) {
	return slices.BinarySearchFunc(t.writes, row, func(w LoggedWrite, row uint64) int { return cmp.Compare(w.Row, row) })
}

// Write buffers a full-record write of row, a copy of rec. A second
// write of the same row replaces the first.
func (t *Tx) Write(row uint64, rec schema.Record) error {
	if t.closed {
		return ErrClosed
	}
	i, ok := t.find(row)
	if ok {
		t.writes[i].Rec = rec.Clone()
		return nil
	}
	t.writes = slices.Insert(t.writes, i, LoggedWrite{Row: row, Rec: rec.Clone()})
	return nil
}

// Pending returns the number of buffered writes.
func (t *Tx) Pending() int { return len(t.writes) }

// Commit validates and installs the buffered writes atomically at a fresh
// commit timestamp. On conflict everything is discarded and ErrConflict
// returned; the transaction is finished either way. When the store has a
// CommitLogger, the write set is appended to the log inside the commit
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
// commit lock. It returns the durability wait hook from the logger.
func (t *Tx) commitCritical() (func() error, error) {
	// The commit lock is held across validate+install, making Commit the
	// serial commit point: commit-timestamp order equals validation order,
	// and — because the logger runs here too — equals log append order.
	s := t.s
	s.commit.Lock()
	defer s.commit.Unlock()
	defer s.end(t.beginTS)

	s.mu.Lock()
	for _, w := range t.writes {
		if v := s.head(w.Row); v != nil && v.ts > t.beginTS {
			s.mu.Unlock()
			mConflicts.Inc()
			return nil, fmt.Errorf("%w: row %d written at ts %d after snapshot %d",
				ErrConflict, w.Row, v.ts, t.beginTS)
		}
	}
	s.mu.Unlock()

	s.clock++
	commitTS := s.clock

	var wait func() error
	if s.logger != nil && len(t.writes) > 0 {
		w, err := s.logger(commitTS, t.writes)
		if err != nil {
			mAborts.Inc()
			return nil, fmt.Errorf("tx: write-ahead append failed, commit aborted: %w", err)
		}
		wait = w
	}

	s.mu.Lock()
	for _, w := range t.writes {
		s.install(w.Row, &version{ts: commitTS, rec: w.Rec})
	}
	s.mu.Unlock()
	mCommits.Inc()
	return wait, nil
}

// Abort finishes the transaction, discarding its buffered writes. Only a
// transaction that had some counts as aborted: a reader giving its
// snapshot back abandons nothing.
func (t *Tx) Abort() {
	if t.closed {
		return
	}
	t.closed = true
	if len(t.writes) > 0 {
		mAborts.Inc()
	}
	t.writes = nil
	t.s.commit.Lock()
	defer t.s.commit.Unlock()
	t.s.end(t.beginTS)
}

// LoggedWrite is one write-set entry handed to a CommitLogger.
type LoggedWrite struct {
	// Row is the row the version installs at.
	Row uint64
	// Rec is the after-image.
	Rec schema.Record
}

// CommitLogger is the write-ahead hook a durable engine installs on its
// Store. It is invoked inside the commit critical section — after
// validation succeeded and the commit timestamp was drawn, before any
// version installs — so log append order equals commit-timestamp order.
// writes holds one entry per row, ascending by row; it is the
// transaction's own write set, read-only and not to be retained.
// It must enqueue the record and return quickly; the returned wait
// function (may be nil) is called after the critical section ends and
// blocks until the record is durable, giving group commit its window
// without serializing concurrent committers. A non-nil error aborts the
// commit: no versions install and the caller sees the error.
type CommitLogger func(commitTS uint64, writes []LoggedWrite) (wait func() error, err error)

// SetCommitLogger installs (or, with nil, removes) the write-ahead hook.
func (s *Store) SetCommitLogger(l CommitLogger) {
	s.commit.Lock()
	defer s.commit.Unlock()
	s.logger = l
}

// AdvanceTo raises the logical clock to at least ts. Recovery uses it
// to restore the pre-crash clock before new transactions begin, so
// fresh commit timestamps stay above every replayed one.
func (s *Store) AdvanceTo(ts uint64) {
	s.commit.Lock()
	defer s.commit.Unlock()
	s.clock = max(s.clock, ts)
}

// InstallAt installs a version of row directly at commit timestamp ts —
// the recovery replay path. Replay must apply commits in their original
// timestamp order; finding an equal or newer version already in the
// chain means the log and store disagree (first-committer-wins was
// violated), which is corruption, not a conflict to skip.
func (s *Store) InstallAt(row uint64, rec schema.Record, ts uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.head(row); v != nil && v.ts >= ts {
		return fmt.Errorf("wal replay: row %d already has version at ts %d, replaying ts %d out of order", row, v.ts, ts)
	}
	s.install(row, &version{ts: ts, rec: rec.Clone()})
	return nil
}
