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

	sum1, n1, err := tbl.SumFloat64Where(workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	hits, _, _, _ := cacheStats(t, tbl)
	if hits != 0 {
		t.Fatalf("first query hit the cache: %d hits", hits)
	}
	sum2, n2, err := tbl.SumFloat64Where(workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(sum1) != math.Float64bits(sum2) || n1 != n2 {
		t.Fatalf("cached repeat diverged: (%v,%d) vs (%v,%d)", sum1, n1, sum2, n2)
	}
	if hits, _, _, _ = cacheStats(t, tbl); hits != 1 {
		t.Fatalf("repeat did not hit: %d hits", hits)
	}

	// count_where shares the sum_where entry.
	n3, err := tbl.CountWhereFloat64(workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	if n3 != n1 {
		t.Fatalf("count = %d, want %d", n3, n1)
	}
	if hits, _, _, _ = cacheStats(t, tbl); hits != 2 {
		t.Fatalf("count_where did not share the entry: %d hits", hits)
	}

	// Semantically identical spellings share one entry: between with
	// equal bounds normalizes to eq.
	if _, _, err := tbl.SumFloat64Where(workload.ItemPriceCol, exec.Eq(42.0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.SumFloat64Where(workload.ItemPriceCol, exec.Between(42.0, 42.0)); err != nil {
		t.Fatal(err)
	}
	if hits, _, _, _ = cacheStats(t, tbl); hits != 3 {
		t.Fatalf("between(42,42) did not share eq(42)'s entry: %d hits", hits)
	}
}

func TestResultCacheInvalidationByWrite(t *testing.T) {
	_, tbl := newTable(t, cacheOpts(), 600)
	defer tbl.Free()
	p := exec.Lt(5.0)

	want1, wantN1, err := tbl.SumFloat64Where(workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}

	// An MVCC update makes the table unanswerable from fragment stamps
	// (the delta store is live): queries bypass, never serve stale sums.
	if err := tbl.Update(3, workload.ItemPriceCol, schema.FloatValue(2.5)); err != nil {
		t.Fatal(err)
	}
	sum2, _, err := tbl.SumFloat64Where(workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	wantPatched := want1 - workload.ItemPrice(3) + 2.5
	if math.Abs(sum2-wantPatched) > 1e-9 {
		t.Fatalf("post-update sum %v, want %v", sum2, wantPatched)
	}
	if hits, _, _, _ := cacheStats(t, tbl); hits != 0 {
		t.Fatalf("served a cached result across a live delta: %d hits", hits)
	}

	// Merge folds the delta into base fragments, bumping their versions:
	// the table is stampable again but the old entry is stale — the next
	// probe drops it and recomputes.
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	sum3, n3, err := tbl.SumFloat64Where(workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	// Merge re-linearizes the rows, so the fold order (and thus the
	// exact bits) may differ from the MVCC-patched answer; the value is
	// the same.
	if math.Abs(sum3-sum2) > 1e-9 {
		t.Fatalf("post-merge sum %v, want %v", sum3, sum2)
	}
	if _, _, stale, _ := cacheStats(t, tbl); stale != 1 {
		t.Fatalf("stale entry not accounted: stale=%d", stale)
	}
	// And the recomputed answer is cached again.
	sum4, n4, err := tbl.SumFloat64Where(workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(sum4) != math.Float64bits(sum3) || n4 != n3 {
		t.Fatalf("post-merge repeat diverged")
	}
	if hits, _, _, _ := cacheStats(t, tbl); hits != 1 {
		t.Fatalf("post-merge repeat did not hit")
	}
	_ = wantN1
}

func TestResultCacheGroupBy(t *testing.T) {
	_, tbl := newTable(t, cacheOpts(), 500)
	defer tbl.Free()
	p := exec.Gt(1.5)

	g1, err := tbl.GroupSumFloat64Where(1, workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := tbl.GroupSumFloat64Where(1, workload.ItemPriceCol, p)
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
	g3, err := tbl.GroupSumFloat64Where(1, workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(g3[0].Sum) != math.Float64bits(g1[0].Sum) {
		t.Fatal("cached groups alias a caller's slice")
	}

	// An insert bumps a fragment version: stale, recompute, new answer.
	if _, err := tbl.Insert(workload.Item(500)); err != nil {
		t.Fatal(err)
	}
	g4, err := tbl.GroupSumFloat64Where(1, workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, g := range g4 {
		total += g.Count
	}
	wantN, err := tbl.CountWhereFloat64(workload.ItemPriceCol, p)
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

	wantW, wantWN, err := tbl.SumFloat64Where(workload.ItemPriceCol, warm)
	if err != nil {
		t.Fatal(err)
	}
	wantC, wantCN, err := tbl.SumFloat64Where(workload.ItemPriceCol, cold)
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
// entries) must never serve a pre-restart result. Restored fragments
// get fresh process-global IDs, so every old stamp mismatches — the
// first probe of each colliding key counts stale, drops the entry and
// recomputes.
func TestResultCacheCheckpointRestore(t *testing.T) {
	e, tbl := newTable(t, cacheOpts(), 300)
	p := exec.Lt(3.0)

	want, wantN, err := tbl.SumFloat64Where(workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.SumFloat64Where(workload.ItemPriceCol, p); err != nil {
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
	sum, n, err := rt.SumFloat64Where(workload.ItemPriceCol, p)
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
	if _, _, err := rt.SumFloat64Where(workload.ItemPriceCol, p); err != nil {
		t.Fatal(err)
	}
	if hits3, _, _, _ := cacheStats(t, rt); hits3 != hits0+1 {
		t.Fatal("restored table does not cache fresh results")
	}
}

func TestVersionStampProtocol(t *testing.T) {
	_, tbl := newTable(t, cacheOpts(), 300)
	defer tbl.Free()

	s1, ok := tbl.VersionStamp(workload.ItemPriceCol)
	if !ok {
		t.Fatal("clean table not stampable")
	}
	s2, ok := tbl.VersionStamp(workload.ItemPriceCol)
	if !ok || !s1.Equal(s2) {
		t.Fatalf("stamp not stable on an untouched table: %+v vs %+v", s1, s2)
	}

	// Live deltas make the table unstampable.
	if err := tbl.Update(2, workload.ItemPriceCol, schema.FloatValue(3.5)); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.VersionStamp(workload.ItemPriceCol); ok {
		t.Fatal("stampable with a live delta store")
	}

	// Merge restores stampability with a CHANGED stamp.
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	s3, ok := tbl.VersionStamp(workload.ItemPriceCol)
	if !ok {
		t.Fatal("merged table not stampable")
	}
	if s1.Equal(s3) {
		t.Fatal("stamp unchanged across a merge that folded an update")
	}
}
