package core

import (
	"hybridstore/internal/layout"
	"hybridstore/internal/rescache"
)

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
// the given columns (one, or a key column and a value column) folds, in
// walk order. Caller holds t.mu. ok=false when a fragment cannot be
// resolved (the caller's own walk will surface the error; the query
// just runs uncached).
//
// The walk compares each (ID, Version) with the stamp last built for a
// column list of the same length and, when every one and the row count
// match, returns that stamp — no allocation, and every request over
// unchanged fragments shares one backing array. Soundness does not rest
// on the remembered stamp being current, or even being over the same
// columns: equality is checked element by element on every call, so the
// answer is the vector a fresh build would return. On the first
// difference one vector of exact capacity is built and published for
// the next call.
func (t *Table) stampLocked(cols ...int) (rescache.Stamp, bool) {
	rows := t.rel.Rows()
	live := 0
	for live < len(t.chunks) && t.chunks[live].rows.Begin < rows {
		live++
	}
	n := live * len(cols)
	slot := &t.stamps[len(cols)-1]
	last := slot.Load()
	var frags []rescache.FragVer // nil while the walk matches last
	if last == nil || last.Rows != rows || len(last.Frags) != n {
		frags = make([]rescache.FragVer, 0, n)
	}
	i := 0
	for _, c := range t.chunks[:live] {
		for _, col := range cols {
			frag, err := t.fragmentForCol(c, col)
			if err != nil {
				return rescache.Stamp{}, false
			}
			fv := rescache.FragVer{ID: frag.ID(), Ver: frag.Version()}
			if frags == nil && last.Frags[i] != fv {
				frags = append(make([]rescache.FragVer, 0, n), last.Frags[:i]...)
			}
			if frags != nil {
				frags = append(frags, fv)
			}
			i++
		}
	}
	if frags == nil {
		return *last, true
	}
	st := &rescache.Stamp{Rows: rows, Frags: frags}
	slot.Store(st)
	return *st, true
}

// chunkStampLocked stamps just the fragments backing one chunk — the
// precise validity domain of a point read. Caller holds t.mu.
func (t *Table) chunkStampLocked(c *chunk) rescache.Stamp {
	frags := c.frags
	if c.state == hot {
		frags = []*layout.Fragment{c.nsm}
	}
	st := rescache.Stamp{Frags: make([]rescache.FragVer, len(frags))}
	for i, f := range frags {
		st.Frags[i] = rescache.FragVer{ID: f.ID(), Ver: f.Version()}
	}
	return st
}

// VersionStamp exposes the stamp protocol to tests that drive an
// external cache: the fragment-version vector a scan over cols would
// fold — one column, or a key column and a value column. ok is false
// when the table is not stampable — any other column list, an
// unresolvable column, or live MVCC deltas, whose contents a fragment
// stamp cannot describe.
func (t *Table) VersionStamp(cols ...int) (rescache.Stamp, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(cols) < 1 || len(cols) > 2 || t.deltas.Versions() != 0 {
		return rescache.Stamp{}, false
	}
	return t.stampLocked(cols...)
}
