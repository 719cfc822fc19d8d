package tx

import (
	"fmt"
	"math/bits"
	"sync"

	"hybridstore/internal/schema"
)

// LoggedWrite is one write-set entry handed to a CommitLogger.
type LoggedWrite struct {
	// Row is the row the version installs at.
	Row uint64
	// Deleted marks a delete marker.
	Deleted bool
	// Rec is the after-image (nil when Deleted).
	Rec schema.Record
}

// CommitLogger is the write-ahead hook a durable engine installs on its
// Manager. It is invoked inside the commit critical section — after
// validation succeeded and the commit timestamp was drawn, before any
// version installs — so log append order equals commit-timestamp order.
// It must enqueue the record and return quickly; the returned wait
// function (may be nil) is called after the critical section ends and
// blocks until the record is durable, giving group commit its window
// without serializing concurrent committers. A non-nil error aborts the
// commit: no versions install and the caller sees the error.
type CommitLogger func(commitTS uint64, writes []LoggedWrite) (wait func() error, err error)

// SetCommitLogger installs (or, with nil, removes) the write-ahead hook.
func (m *Manager) SetCommitLogger(l CommitLogger) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.logger = l
}

// PinSnapshot pins the current clock as a read horizon without opening
// a transaction: until release is called, MinActiveTS will not advance
// past the returned timestamp, so Prune and merge folds cannot drop
// versions a reader of that snapshot (e.g. a checkpoint writer) can
// still see.
func (m *Manager) PinSnapshot() (ts uint64, release func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	id := m.nextID
	m.active[id] = m.clock
	return m.clock, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		delete(m.active, id)
	}
}

// AdvanceTo raises the logical clock to at least ts. Recovery uses it
// to restore the pre-crash clock before new transactions begin, so
// fresh commit timestamps stay above every replayed one.
func (m *Manager) AdvanceTo(ts uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts > m.clock {
		m.clock = ts
	}
}

// InstallAt installs a version of row directly at commit timestamp ts —
// the recovery replay path. Replay must apply commits in their original
// timestamp order; finding an equal or newer version already in the
// chain means the log and store disagree (first-committer-wins was
// violated), which is corruption, not a conflict to skip.
func (s *Store) InstallAt(row uint64, rec schema.Record, deleted bool, ts uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.head(row); v != nil && v.ts >= ts {
		return fmt.Errorf("wal replay: row %d already has version at ts %d, replaying ts %d out of order", row, v.ts, ts)
	}
	var r schema.Record
	if !deleted {
		r = rec.Clone()
	}
	s.install(row, &version{ts: ts, rec: r, deleted: deleted})
	return nil
}

// VersionAt returns the newest version of row committed at or before
// ts: its record, delete flag and commit timestamp. ok is false when no
// version is visible.
func (s *Store) VersionAt(row uint64, ts uint64) (rec schema.Record, deleted bool, verTS uint64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := s.visible(row, ts)
	if v == nil {
		return nil, false, 0, false
	}
	return v.rec, v.deleted, v.ts, true
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
// fn, in ascending row order, once for every row with a version visible
// at ts, passing that version's record, delete flag and commit
// timestamp. fn returning false stops the walk.
//
// The walk takes the read lock once, and only to collect the visible
// versions — committers wait for one pass over the live chains, not for
// fn. The pages are in row order, so the pass is O(c) for c live chains
// and sorts nothing. It then calls fn outside the lock, and what fn
// sees is the store at the instant of collection: versions are
// immutable once installed, so a commit, Prune or Forget that lands
// later changes nothing the walk hands out. For the same reason rec is
// the stored record itself, not a copy: it is read-only, and fn should
// copy out what it needs rather than retain it (a held record outlives
// the version's removal).
func (s *Store) RangeVisible(ts uint64, fn func(row uint64, rec schema.Record, deleted bool, verTS uint64) bool) {
	scratch := hitScratch.Get().(*[]hit)
	hits := (*scratch)[:0]
	s.mu.RLock()
	for _, p := range s.order {
		for w, word := range p.live {
			for ; word != 0; word &= word - 1 {
				i := w*64 + bits.TrailingZeros64(word)
				if v := p.heads[i].at(ts); v != nil {
					hits = append(hits, hit{p.id*pageRows + uint64(i), v})
				}
			}
		}
	}
	s.mu.RUnlock()
	for _, h := range hits {
		if !fn(h.row, h.v.rec, h.v.deleted, h.v.ts) {
			break
		}
	}
	clear(hits) // pooled scratch must not keep removed versions alive
	*scratch = hits
	hitScratch.Put(scratch)
}
