package core

import (
	"math"
	"testing"

	"hybridstore/internal/exec"
	"hybridstore/internal/schema"
	"hybridstore/internal/wal"
	"hybridstore/internal/workload"
)

// cacheOpts enables the result cache on the standard test fixture.
func cacheOpts() Options {
	return Options{ChunkRows: 128, ResultCacheBytes: 1 << 20}
}

func cacheStats(t *testing.T, tbl *Table) (hits, misses, stale, lookups int64) {
	t.Helper()
	s := tbl.eng.rescache.Stats()
	if s.Hits+s.Misses != s.Lookups {
		t.Fatalf("invariant: hits(%d) + misses(%d) != lookups(%d)", s.Hits, s.Misses, s.Lookups)
	}
	return s.Hits, s.Misses, s.Stale, s.Lookups
}

func TestResultCacheAggregateRepeat(t *testing.T) {
	_, tbl := newTable(t, cacheOpts(), 600)
	defer tbl.Free()
	p := exec.Gt(2.5)

	sum1, n1, err := sumWhereOf(tbl, workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	hits, _, _, _ := cacheStats(t, tbl)
	if hits != 0 {
		t.Fatalf("first query hit the cache: %d hits", hits)
	}
	sum2, n2, err := sumWhereOf(tbl, workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(sum1) != math.Float64bits(sum2) || n1 != n2 {
		t.Fatalf("cached repeat diverged: (%v,%d) vs (%v,%d)", sum1, n1, sum2, n2)
	}
	if hits, _, _, _ = cacheStats(t, tbl); hits != 1 {
		t.Fatalf("repeat did not hit: %d hits", hits)
	}

	// Semantically identical spellings share one entry: between with
	// equal bounds normalizes to eq.
	if _, _, err := sumWhereOf(tbl, workload.ItemPriceCol, exec.Eq(42.0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sumWhereOf(tbl, workload.ItemPriceCol, exec.Between(42.0, 42.0)); err != nil {
		t.Fatal(err)
	}
	if hits, _, _, _ = cacheStats(t, tbl); hits != 2 {
		t.Fatalf("between(42,42) did not share eq(42)'s entry: %d hits", hits)
	}
}

// An MVCC update leaves the base and its epoch alone, so the repeat
// after it hits the settled base and replays the patch: the patched
// answer, the bits of an uncached twin that took the same update. Merge
// folds the delta into the base and moves the epoch: the entry goes
// stale, the base is recomputed, and the repeat hits again.
func TestResultCacheInvalidationByWrite(t *testing.T) {
	_, tbl := newTable(t, cacheOpts(), 600)
	defer tbl.Free()
	twin := twinTable(t, cacheOpts(), 600)
	defer twin.Free()
	p := exec.Plan{Op: exec.KindSumWhere, Col: workload.ItemPriceCol, Pred: exec.Lt(5.0)}
	// answer runs p on both tables and returns the cached one's answer
	// once it has matched the twin's, bit for bit.
	answer := func(step string) exec.Result {
		t.Helper()
		got, err := tbl.Scan(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Scan(p)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(got, want) {
			t.Fatalf("%s: cached table answers %+v, uncached twin %+v", step, got, want)
		}
		return got
	}
	both := func(fn func(*Table) error) {
		t.Helper()
		for _, x := range []*Table{tbl, twin} {
			if err := fn(x); err != nil {
				t.Fatal(err)
			}
		}
	}

	first := answer("first")
	both(func(x *Table) error { return x.Update(3, workload.ItemPriceCol, schema.FloatValue(2.5)) })
	patched := answer("after the update")
	if want := first.Sum - workload.ItemPrice(3) + 2.5; math.Abs(patched.Sum-want) > 1e-9 {
		t.Fatalf("post-update sum %v, want %v", patched.Sum, want)
	}
	if hits, _, _, _ := cacheStats(t, tbl); hits != 1 {
		t.Fatalf("the repeat over a live delta hit %d times, want 1 (the settled base, patched)", hits)
	}
	if _, ok := tbl.Peek(p); ok {
		t.Fatal("Peek served a settled base over a live delta")
	}

	// Merge re-linearizes the rows, so the fold order (and thus the exact
	// bits) may differ from the MVCC-patched answer; the value is the same.
	both(func(x *Table) error { return x.Merge() })
	merged := answer("after the merge")
	if math.Abs(merged.Sum-patched.Sum) > 1e-9 || merged.Count != patched.Count {
		t.Fatalf("post-merge answer %+v, want %+v", merged, patched)
	}
	if hits, _, stale, _ := cacheStats(t, tbl); hits != 1 || stale != 1 {
		t.Fatalf("after the merge: %d hits, %d stale; want 1, 1", hits, stale)
	}
	answer("the post-merge repeat")
	if hits, _, _, _ := cacheStats(t, tbl); hits != 2 {
		t.Fatalf("post-merge repeat did not hit")
	}
}

func TestResultCacheGroupBy(t *testing.T) {
	_, tbl := newTable(t, cacheOpts(), 500)
	defer tbl.Free()
	p := exec.Gt(1.5)

	g1, err := groupSumWhereOf(tbl, 1, workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := groupSumWhereOf(tbl, 1, workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1) == 0 || len(g1) != len(g2) {
		t.Fatalf("group counts diverged or empty: %d vs %d", len(g1), len(g2))
	}
	for i := range g1 {
		if g1[i].Key != g2[i].Key || g1[i].Count != g2[i].Count ||
			math.Float64bits(g1[i].Sum) != math.Float64bits(g2[i].Sum) {
			t.Fatalf("group %d diverged: %+v vs %+v", i, g1[i], g2[i])
		}
	}
	if hits, _, _, _ := cacheStats(t, tbl); hits != 1 {
		t.Fatalf("grouped repeat did not hit: %d", hits)
	}
	// The hit returns a private copy: scribbling on it must not poison
	// future hits.
	g2[0].Sum = -1
	g3, err := groupSumWhereOf(tbl, 1, workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(g3[0].Sum) != math.Float64bits(g1[0].Sum) {
		t.Fatal("cached groups alias a caller's slice")
	}

	// An insert moves the epoch: stale, recompute, new answer.
	if _, err := tbl.Insert(workload.Item(500)); err != nil {
		t.Fatal(err)
	}
	g4, err := groupSumWhereOf(tbl, 1, workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, g := range g4 {
		total += g.Count
	}
	_, wantN, err := sumWhereOf(tbl, workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	if total != wantN || total <= 0 {
		t.Fatalf("post-insert groups cover %d rows, want %d", total, wantN)
	}
}

func TestResultCachePointReads(t *testing.T) {
	_, tbl := newTable(t, cacheOpts(), 400)
	defer tbl.Free()

	r1, err := tbl.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tbl.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Equal(r2) {
		t.Fatalf("cached Get diverged: %v vs %v", r1, r2)
	}
	if hits, _, _, _ := cacheStats(t, tbl); hits != 1 {
		t.Fatalf("repeat Get did not hit: %d", hits)
	}

	// GetByPK resolves to the same row and shares its entry.
	r3, err := tbl.GetByPK(7)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Equal(r1) {
		t.Fatalf("GetByPK(7) = %v, want %v", r3, r1)
	}
	if hits, _, _, _ := cacheStats(t, tbl); hits != 2 {
		t.Fatalf("GetByPK did not share the row entry: %d hits", hits)
	}

	// A cached hit returns a private record: mutating it must not poison
	// the entry.
	r2[1] = schema.FloatValue(999)
	r4, err := tbl.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if !r4.Equal(r1) {
		t.Fatal("cached record aliases a caller's record")
	}

	// An updated row is served through MVCC, never from the cache, and
	// an insert elsewhere does NOT invalidate this chunk's entries.
	if err := tbl.Update(7, workload.ItemPriceCol, schema.FloatValue(1.5)); err != nil {
		t.Fatal(err)
	}
	r5, err := tbl.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if r5[workload.ItemPriceCol].F != 1.5 {
		t.Fatalf("post-update Get served stale price %v", r5[workload.ItemPriceCol].F)
	}

	// A gather cohort agrees bit-for-bit with solo Gets, duplicates
	// included.
	rows := []uint64{0, 7, 7, 399, 128, 0}
	plans := make([]exec.Plan, len(rows))
	for i, row := range rows {
		plans[i] = exec.Plan{Op: exec.KindGet, Row: row}
	}
	res, err := tbl.Execute(plans)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		solo, err := tbl.Get(row)
		if err != nil {
			t.Fatal(err)
		}
		if !res[i].Rec.Equal(solo) {
			t.Fatalf("gather[%d] (row %d) = %v, want %v", i, row, res[i].Rec, solo)
		}
	}
}

func TestResultCacheSharedScanPartialHits(t *testing.T) {
	_, tbl := newTable(t, cacheOpts(), 600)
	defer tbl.Free()
	warm := exec.Gt(3.0)
	cold := exec.Lt(2.0)

	wantW, wantWN, err := sumWhereOf(tbl, workload.ItemPriceCol, warm)
	if err != nil {
		t.Fatal(err)
	}
	wantC, wantCN, err := sumWhereOf(tbl, workload.ItemPriceCol, cold)
	if err != nil {
		t.Fatal(err)
	}
	hits0, _, _, _ := cacheStats(t, tbl)

	res, err := tbl.Execute([]exec.Plan{
		{Op: exec.KindSumWhere, Col: workload.ItemPriceCol, Pred: warm},
		{Op: exec.KindSumWhere, Col: workload.ItemPriceCol, Pred: cold},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res[0].Sum) != math.Float64bits(wantW) || res[0].Count != wantWN ||
		math.Float64bits(res[1].Sum) != math.Float64bits(wantC) || res[1].Count != wantCN {
		t.Fatalf("multi = (%v,%d),(%v,%d); want (%v,%d),(%v,%d)",
			res[0].Sum, res[0].Count, res[1].Sum, res[1].Count, wantW, wantWN, wantC, wantCN)
	}
	if hits, _, _, _ := cacheStats(t, tbl); hits != hits0+2 {
		t.Fatalf("multi over two warm preds hit %d times, want %d", hits-hits0, 2)
	}
}

// TestResultCacheCheckpointRestore pins the restart-safety property: a
// table restored from a checkpoint under the SAME name on the SAME
// engine (worst case: every cache key collides with pre-restart
// entries) must never serve a pre-restart result. Restored chunks take
// fresh epochs from the process-wide counter, so every old stamp
// mismatches — the first probe of each colliding key counts stale,
// drops the entry and recomputes.
func TestResultCacheCheckpointRestore(t *testing.T) {
	e, tbl := newTable(t, cacheOpts(), 300)
	p := exec.Lt(3.0)

	want, wantN, err := sumWhereOf(tbl, workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sumWhereOf(tbl, workload.ItemPriceCol, p); err != nil {
		t.Fatal(err)
	}
	r0, err := tbl.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	hits0, _, stale0, _ := cacheStats(t, tbl)
	if hits0 != 1 {
		t.Fatalf("pre-restart repeat did not hit: %d", hits0)
	}

	enc := &wal.Encoder{}
	if _, _, err := tbl.CheckpointTo(enc); err != nil {
		t.Fatal(err)
	}
	tbl.Free()

	rt, err := e.RestoreTable("item", workload.ItemSchema(), wal.NewDecoder(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Free()

	// The colliding aggregate key must NOT hit; it must recompute the
	// (byte-identical, since restored fragments are byte-identical)
	// answer and count the dead entry as stale.
	sum, n, err := sumWhereOf(rt, workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(sum) != math.Float64bits(want) || n != wantN {
		t.Fatalf("restored sum (%v,%d), want (%v,%d)", sum, n, want, wantN)
	}
	hits1, _, stale1, _ := cacheStats(t, rt)
	if hits1 != hits0 {
		t.Fatal("restored table served a pre-restart aggregate entry")
	}
	if stale1 != stale0+1 {
		t.Fatalf("pre-restart entry not accounted stale: %d -> %d", stale0, stale1)
	}

	// Same for the colliding point-read key.
	r1, err := rt.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Equal(r0) {
		t.Fatalf("restored Get(5) = %v, want %v", r1, r0)
	}
	if hits2, _, _, _ := cacheStats(t, rt); hits2 != hits0 {
		t.Fatal("restored table served a pre-restart point-read entry")
	}

	// And the restored table caches normally from here on.
	if _, _, err := sumWhereOf(rt, workload.ItemPriceCol, p); err != nil {
		t.Fatal(err)
	}
	if hits3, _, _, _ := cacheStats(t, rt); hits3 != hits0+1 {
		t.Fatal("restored table does not cache fresh results")
	}
}

func TestVersionStampProtocol(t *testing.T) {
	_, tbl := newTable(t, cacheOpts(), 300)
	defer tbl.Free()

	s1, ok := tbl.VersionStamp()
	if !ok {
		t.Fatal("clean table not stampable")
	}
	s2, ok := tbl.VersionStamp()
	if !ok || !s1.Equal(s2) {
		t.Fatalf("stamp not stable on an untouched table: %+v vs %+v", s1, s2)
	}

	// Live deltas make the table unstampable.
	if err := tbl.Update(2, workload.ItemPriceCol, schema.FloatValue(3.5)); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.VersionStamp(); ok {
		t.Fatal("stampable with a live delta store")
	}

	// Merge restores stampability with a CHANGED stamp.
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	s3, ok := tbl.VersionStamp()
	if !ok {
		t.Fatal("merged table not stampable")
	}
	if s1.Equal(s3) {
		t.Fatal("stamp unchanged across a merge that folded an update")
	}
}

// The user-facing getters hand out private records: scribbling on what
// Get, GetByPK, Txn.Read or Materialize returned never reaches a later
// get through Execute or a Peek hit, which read the result cache's entry
// in place — whether the getter's read published the entry (a miss) or
// found it (a hit).
func TestGettersDoNotAliasCachedRecords(t *testing.T) {
	_, tbl := newTable(t, cacheOpts(), 400)
	defer tbl.Free()
	p := exec.Plan{Op: exec.KindGet, Row: 7}
	want, _, err := tbl.baseRecord(7)
	if err != nil {
		t.Fatal(err)
	}
	txn := tbl.Begin()
	defer txn.Abort()
	for _, c := range []struct {
		name string
		read func() (schema.Record, error)
	}{
		{"Get", func() (schema.Record, error) { return tbl.Get(7) }}, // the miss: publishes
		{"GetByPK", func() (schema.Record, error) { return tbl.GetByPK(7) }},
		{"Txn.Read", func() (schema.Record, error) { return txn.Read(7) }},
		{"Materialize", func() (schema.Record, error) {
			recs, err := tbl.Materialize([]uint64{7})
			if err != nil {
				return nil, err
			}
			return recs[0], nil
		}},
	} {
		rec, err := c.read()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range rec {
			rec[i] = schema.IntValue(-1)
		}
		got, err := tbl.Scan(p)
		if err != nil || !got.Rec.Equal(want) {
			t.Fatalf("after scribbling on %s's record, Execute read %v (%v), want %v", c.name, got.Rec, err, want)
		}
		if hit, ok := tbl.Peek(p); !ok || !hit.Rec.Equal(want) {
			t.Fatalf("after scribbling on %s's record, a Peek hit read %v (ok=%v), want %v", c.name, hit.Rec, ok, want)
		}
	}
}
