package core

import (
	"sync/atomic"

	"hybridstore/internal/rescache"
)

// Result caching in the reference engine rides one concurrency fact:
// every operation that mutates base fragments — Insert, Merge, Adapt,
// PlaceColumn, EvictColumn, freeze — takes the exclusive table lock,
// while queries and MVCC point updates share the read lock. Under one
// RLock section the base is therefore FROZEN, and so is the epoch each
// of those writers advances (touch): a stamp read anywhere in the
// section describes the base state for the whole section. The only
// state that can move under a concurrent RLock holder is the delta
// store, and it moves monotonically — commits only add versions;
// Forget/Prune run inside Merge, which needs the write lock. So:
//
//   - deltas.Versions() == 0 observed at any point of an RLock section
//     means it was 0 at every earlier point of the section;
//   - checking it AFTER executing a scan proves the scan patched
//     nothing and its answer is a pure function of the stamped base
//     state — safe to publish under that stamp;
//   - checking it BEFORE a lookup proves a stamp-equal cached entry
//     answers the current state (serving it linearizes the request
//     before any commit racing with this section, which is valid — the
//     request held no ordering claim over that commit).
//
// Versions() is a count the store maintains where versions are
// installed, pruned and forgotten; the argument above needs only its
// value, which is what a walk of the chains would return.
//
// Aggregates are stamped with the table's epoch, which every base
// mutation moves. Point reads sharpen both checks to one row
// (deltas.LatestTS(row), equally monotone under RLock) and one chunk's
// epoch, so an insert or merge elsewhere in the table does not
// invalidate them.

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
