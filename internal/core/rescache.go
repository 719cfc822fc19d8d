package core

import "hybridstore/internal/rescache"

// Result caching in the reference engine rides one concurrency fact:
// every operation that mutates base fragments — Insert, Merge, Adapt,
// PlaceColumn, EvictColumn, freeze — takes the exclusive table lock,
// while queries and MVCC point updates share the read lock. Under one
// RLock section the fragment-version vector is therefore FROZEN: a
// stamp taken anywhere in the section describes the base state for the
// whole section. The only state that can move under a concurrent RLock
// holder is the delta store, and it moves monotonically — commits only
// add versions; Forget/Prune run inside Merge, which needs the write
// lock. So:
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
// Point reads sharpen both checks to one row (deltas.LatestTS(row),
// equally monotone under RLock) and one chunk's fragments, so an
// insert or merge elsewhere in the table does not invalidate them.

// stampLocked collects the fragment-version vector the chunk walk over
// the given columns folds, in walk order. Caller holds t.mu. ok=false
// when a fragment cannot be resolved (the caller's own walk will
// surface the error; the query just runs uncached).
func (t *Table) stampLocked(cols ...int) (rescache.Stamp, bool) {
	rows := t.rel.Rows()
	st := rescache.Stamp{Rows: rows}
	for _, c := range t.chunks {
		if c.rows.Begin >= rows {
			break
		}
		for _, col := range cols {
			frag, err := t.fragmentForCol(c, col)
			if err != nil {
				return rescache.Stamp{}, false
			}
			st.Frags = append(st.Frags, rescache.FragVer{ID: frag.ID(), Ver: frag.Version()})
		}
	}
	return st, true
}

// chunkStampLocked stamps just the fragments backing one chunk — the
// precise validity domain of a point read. Caller holds t.mu.
func (t *Table) chunkStampLocked(c *chunk) rescache.Stamp {
	var st rescache.Stamp
	if c.state == hot {
		st.Frags = append(st.Frags, rescache.FragVer{ID: c.nsm.ID(), Ver: c.nsm.Version()})
		return st
	}
	st.Frags = make([]rescache.FragVer, 0, len(c.frags))
	for _, f := range c.frags {
		st.Frags = append(st.Frags, rescache.FragVer{ID: f.ID(), Ver: f.Version()})
	}
	return st
}

// VersionStamp exposes the stamp protocol to tests that drive an
// external cache: the fragment-version vector a scan over cols would
// fold. ok is false when the table is not stampable — an unresolvable
// column, or live MVCC deltas, whose contents a fragment stamp cannot
// describe.
func (t *Table) VersionStamp(cols ...int) (rescache.Stamp, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.deltas.Versions() != 0 {
		return rescache.Stamp{}, false
	}
	return t.stampLocked(cols...)
}
