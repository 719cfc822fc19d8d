package core

import (
	"sync/atomic"

	"hybridstore/internal/exec"
	"hybridstore/internal/rescache"
)

// Result caching in the reference engine rides one concurrency fact:
// every operation that mutates base fragments — Insert, a settlement,
// Adapt, PlaceColumn, evictColumn, freeze — takes the exclusive table
// lock,
// while queries and MVCC point updates share the read lock. Under one
// RLock section the base is therefore FROZEN, and so is the epoch each
// of those writers advances (touch): a stamp read anywhere in the
// section describes the base state for the whole section.
//
// An aggregate's entry is its settled base: the scan body's result over
// the base fragments alone, before the MVCC patch. That value is a pure
// function of the stamped base state, whatever the delta store holds,
// so it is published and served under the table epoch at any time; the
// reader then replays its own snapshot's patch on the copy a hit hands
// out. That patch is the table's patch projection (projection.go),
// valid under the same epoch: a hit reads from the version store only
// the rows whose visible version changed since the previous scan, and
// folds the rest from flat columns of base and current cells. With no
// delta version the patch is empty and the base is the
// answer: deltas.Versions() == 0 seen anywhere in an RLock section was 0
// at every earlier point of it (commits only add versions; Forget/Prune
// run inside a settlement, under the write lock), so Peek, which never
// patches,
// serves an entry only then — which linearizes the request before any
// commit racing with the section, a valid order, since the request held
// no ordering claim over that commit.
//
// Point reads cache the record itself and sharpen the check to one row
// (deltas.LatestTS(row), equally monotone under RLock) and one chunk's
// epoch, so an insert elsewhere in the table does not invalidate them.
// A settlement moves no chunk's epoch: it drops the entries of the rows
// it settles (forgetPoint), each published before its row had a
// version, and every other entry stays valid.

// epochs is the process-wide base-state clock touch draws from. Being
// process-wide, no epoch repeats across tables, nor across a table
// restored under a name an earlier one held.
var epochs atomic.Uint64

// touch records that c's base fragments changed (c nil: only the
// table's chunk list did): c and the table take a fresh epoch. The
// stamp is built once here and shared by every entry put under it, so
// it is replaced, never written. Caller holds t.mu exclusively, or owns
// a table no other goroutine can reach yet.
func (t *Table) touch(c *chunk) {
	t.epoch = rescache.Stamp{Frags: []rescache.FragVer{{Ver: epochs.Add(1)}}}
	for i := range t.lists {
		t.lists[i].Store(nil)
	}
	if c != nil {
		c.epoch = t.epoch
	}
}

// VersionStamp exposes the stamp protocol to tests that drive an
// external cache: the table's epoch, which every base mutation moves.
// ok is false while MVCC deltas are live, whose contents the stamp
// cannot describe.
func (t *Table) VersionStamp() (rescache.Stamp, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch, t.deltas.Versions() == 0
}

// Base is the scan source's half of engine.Bases: p's settled base from
// the result cache, if one was published under the current epoch.
func (s *scanSource) Base(p exec.Plan) (exec.Result, bool) {
	return s.t.eng.rescache.Lookup(s.t.cacheKey(p), s.t.epoch)
}

// Settled publishes p's settled base under the current epoch.
func (s *scanSource) Settled(p exec.Plan, base exec.Result) {
	s.t.eng.rescache.Put(s.t.cacheKey(p), s.t.epoch, base)
}
