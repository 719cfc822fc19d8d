package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/obs"
	"hybridstore/internal/schema"
	"hybridstore/internal/tx"
	"hybridstore/internal/wal"
	"hybridstore/internal/workload"
)

// patched is one (row, record) pair a patch walk hands out.
type patched struct {
	row uint64
	rec schema.Record
}

// oraclePatchRows is the patch iterator this package shipped before the
// ordered single-lock walk, kept as the reference: probe every table row
// for a chain, read the survivors through the transaction. It is
// O(table rows) with one lock acquisition per row, and obviously right.
func oraclePatchRows(t *Table, reader *tx.Tx) ([]patched, error) {
	var out []patched
	rows := t.rel.Rows()
	for row := uint64(0); row < rows; row++ {
		if t.deltas.LatestTS(row) == 0 {
			continue
		}
		rec, err := reader.Read(row)
		if errors.Is(err, tx.ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, patched{row, rec})
	}
	return out, nil
}

// walkPatchRows collects what patchRows hands out under reader.
func walkPatchRows(t *Table, reader *tx.Tx) ([]patched, error) {
	var out []patched
	err := t.patchRows(reader, func(row uint64, rec schema.Record, _ uint64) error {
		out = append(out, patched{row, rec.Clone()})
		return nil
	})
	return out, err
}

// oracleScan answers p the way the engine does, with the delta patch
// replaced by the oracle: the bulk pass over the base alone (the engine
// run against an empty version store), then the oracle's rows folded in
// ascending order with the fold rules of the scan body (engine.patch).
func oracleScan(t *Table, p exec.Plan) (exec.Result, error) {
	live := t.deltas
	t.deltas = tx.NewStore()
	res, err := t.Scan(p)
	t.deltas = live
	if err != nil {
		return exec.Result{}, err
	}
	reader := t.deltas.Begin()
	defer reader.Abort()
	rows, err := oraclePatchRows(t, reader)
	if err != nil {
		return exec.Result{}, err
	}
	p = p.Normalize()
	match := func(x float64) bool { return !p.HasPred || p.Pred.Match(x) }
	gp := engine.NewGroupPatch(res.Groups, match)
	for _, pr := range rows {
		baseVal, err := t.baseValue(pr.row, p.Col)
		if err != nil {
			return exec.Result{}, err
		}
		cur := pr.rec[p.Col].F
		switch p.Op {
		case exec.KindSum:
			res.Sum += cur - baseVal.F
		case exec.KindSumWhere:
			if match(baseVal.F) {
				res.Sum -= baseVal.F
				res.Count--
			}
			if match(cur) {
				res.Sum += cur
				res.Count++
			}
		default:
			baseKey, err := t.baseValue(pr.row, p.KeyCol)
			if err != nil {
				return exec.Result{}, err
			}
			gp.Apply(engine.Cell{Key: baseKey.I, Val: baseVal.F}, engine.Cell{Key: pr.rec[p.KeyCol].I, Val: cur})
		}
	}
	if p.Op.Grouped() {
		res.Groups = gp.Groups()
	}
	return res, nil
}

// sameResult compares two aggregate results bit for bit.
func sameResult(a, b exec.Result) bool {
	if math.Float64bits(a.Sum) != math.Float64bits(b.Sum) || a.Count != b.Count || len(a.Groups) != len(b.Groups) {
		return false
	}
	for i := range a.Groups {
		x, y := a.Groups[i], b.Groups[i]
		if x.Key != y.Key || x.Count != y.Count || math.Float64bits(x.Sum) != math.Float64bits(y.Sum) {
			return false
		}
	}
	return true
}

const patchKeyCol = 1 // i_im_id, rewritten to a small group domain

// patchItem is row i of the patch tests' tables: an item whose group key
// is i%8.
func patchItem(i uint64) schema.Record {
	rec := workload.Item(i)
	rec[patchKeyCol] = schema.Int32Value(int32(i % 8))
	return rec
}

// patchPlans is one plan of each aggregate kind.
var patchPlans = []exec.Plan{
	{Op: exec.KindSum, Col: workload.ItemPriceCol},
	{Op: exec.KindSumWhere, Col: workload.ItemPriceCol, Pred: exec.Pred{Op: exec.OpBetween, Lo: 2, Hi: 40}},
	{Op: exec.KindGroupSum, KeyCol: patchKeyCol, Col: workload.ItemPriceCol},
	{Op: exec.KindGroupSumWhere, KeyCol: patchKeyCol, Col: workload.ItemPriceCol, Pred: exec.Pred{Op: exec.OpGT, Lo: 3}},
}

// Over seeded random histories — inserts, autocommit updates of value
// and group key, interactive transactions that commit, abort or lose a
// conflict, Adapt, and Merge with and without an older snapshot held
// open — the ordered walk hands out exactly the oracle's (row, record)
// sequence, every plan kind answers bit-identically to the oracle fold,
// and Merge leaves exactly the base the old rule produces: a row is
// folded iff its newest version is at or below the horizon, its chain is
// then gone, and everything else is untouched.
func TestPatchWalkMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		opts := Options{ChunkRows: 32, HotChunks: 1}
		switch seed % 3 {
		case 0:
			opts.DeviceCache, opts.Compress = true, true
		case 1:
			opts.DevicePlacement = true
		}
		e := New(engine.NewEnv(), opts)
		et, err := e.Create("item", workload.ItemSchema())
		if err != nil {
			t.Fatal(err)
		}
		tbl := et.(*Table)
		var rows uint64
		insert := func() {
			if _, err := tbl.Insert(patchItem(rows)); err != nil {
				t.Fatal(err)
			}
			rows++
		}
		for rows < 100 {
			insert()
		}
		randomUpdate := func(update func(row uint64, col int, v schema.Value) error) error {
			row := uint64(r.Int63n(int64(rows)))
			if r.Intn(4) == 0 {
				return update(row, patchKeyCol, schema.Int32Value(int32(r.Intn(10))))
			}
			return update(row, workload.ItemPriceCol, schema.FloatValue(math.Floor(r.Float64()*6000)/100))
		}
		var held *Txn // an older snapshot some steps keep open

		check := func(step int) {
			t.Helper()
			reader := tbl.deltas.Begin()
			want, err := oraclePatchRows(tbl, reader)
			if err != nil {
				t.Fatal(err)
			}
			got, err := walkPatchRows(tbl, reader)
			reader.Abort()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: walk handed out %d rows, oracle %d", seed, step, len(got), len(want))
			}
			for i := range got {
				if got[i].row != want[i].row || !got[i].rec.Equal(want[i].rec) {
					t.Fatalf("seed %d step %d: patch %d = %v, oracle %v", seed, step, i, got[i], want[i])
				}
			}
			for _, p := range patchPlans {
				got, err := tbl.Scan(p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracleScan(tbl, p)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(got, want) {
					t.Fatalf("seed %d step %d: %v = %+v, oracle %+v", seed, step, p.Op, got, want)
				}
			}
		}

		merge := func(step int) {
			t.Helper()
			minTS := tbl.deltas.MinActiveTS()
			reader := tbl.deltas.Begin()
			visible, err := oraclePatchRows(tbl, reader)
			reader.Abort()
			if err != nil {
				t.Fatal(err)
			}
			fold := make(map[uint64]schema.Record)
			for _, pr := range visible {
				if tbl.deltas.LatestTS(pr.row) <= minTS {
					fold[pr.row] = pr.rec
				}
			}
			wantBase := make([]schema.Record, rows)
			wantTS := make([]uint64, rows)
			for row := range wantBase {
				if wantBase[row], _, err = tbl.baseRecord(uint64(row)); err != nil {
					t.Fatal(err)
				}
				wantTS[row] = tbl.deltas.LatestTS(uint64(row))
				if rec, ok := fold[uint64(row)]; ok {
					wantBase[row], wantTS[row] = rec, 0
				}
			}
			if err := tbl.Merge(); err != nil {
				t.Fatal(err)
			}
			for row := range wantBase {
				got, _, err := tbl.baseRecord(uint64(row))
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(wantBase[row]) {
					t.Fatalf("seed %d step %d: base row %d = %v after Merge, want %v", seed, step, row, got, wantBase[row])
				}
				if ts := tbl.deltas.LatestTS(uint64(row)); ts != wantTS[row] {
					t.Fatalf("seed %d step %d: row %d newest version ts %d after Merge, want %d", seed, step, row, ts, wantTS[row])
				}
			}
		}

		for step := 0; step < 250; step++ {
			switch k := r.Intn(20); {
			case k < 4:
				insert()
			case k < 10:
				if err := randomUpdate(tbl.Update); err != nil {
					t.Fatal(err)
				}
			case k < 14:
				x := tbl.Begin()
				for n := 1 + r.Intn(3); n > 0; n-- {
					if err := randomUpdate(x.Update); err != nil {
						t.Fatal(err)
					}
				}
				if r.Intn(3) == 0 {
					// Sometimes a lone statement gets in first and the
					// interactive commit may lose.
					if err := randomUpdate(tbl.Update); err != nil {
						t.Fatal(err)
					}
				}
				if r.Intn(4) == 0 {
					x.Abort()
				} else if err := x.Commit(); err != nil && !errors.Is(err, tx.ErrConflict) {
					t.Fatal(err)
				}
			case k < 15:
				if held == nil {
					held = tbl.Begin()
				} else {
					held.Abort()
					held = nil
				}
			case k < 17:
				if _, err := tbl.Adapt(); err != nil {
					t.Fatal(err)
				}
			default:
				check(step)
				merge(step)
			}
			if step%10 == 0 {
				check(step)
			}
		}
		check(250)
		if held != nil {
			held.Abort()
		}
		merge(251)
		if n := tbl.PendingVersions(); n != 0 {
			t.Fatalf("seed %d: %d versions left after a Merge with no snapshot open", seed, n)
		}
		check(252)
		tbl.Free()
	}
}

// The exact gate on work done: a patch walk hands its callback the live
// visible delta rows and nothing else, whatever the table's size.
func TestPatchRowsCounter(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 1024}, 100_000)
	defer tbl.Free()
	scan := func() int64 {
		t.Helper()
		before := mPatchRows.Load()
		if _, _, err := tbl.SumFloat64Where(workload.ItemPriceCol, exec.Pred{Op: exec.OpGT, Lo: 50}); err != nil {
			t.Fatal(err)
		}
		return mPatchRows.Load() - before
	}
	if got := scan(); got != 0 {
		t.Fatalf("clean table: core.patch.rows advanced by %d per sum_where, want 0", got)
	}
	for i := uint64(0); i < 10; i++ {
		// Twice per row: the walk counts rows, not versions.
		for _, v := range []float64{1, 2} {
			if err := tbl.Update(i*9973, workload.ItemPriceCol, schema.FloatValue(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		if got := scan(); got != 10 {
			t.Fatalf("10 updated rows of 100000: core.patch.rows advanced by %d per sum_where, want 10", got)
		}
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if got := scan(); got != 0 {
		t.Fatalf("merged table: core.patch.rows advanced by %d per sum_where, want 0", got)
	}
}

// benchTable builds the bench/ fixture's table: item rows (the fixture
// has 131072) with the group key i%groups (the fixture has 64) in
// 1024-row chunks, DeviceCache and Compress on, a result cache of
// resultCache bytes (0: none), merged and warmed with one grouped scan.
func benchTable(t *testing.T, rows, groups uint64, resultCache int64) *Table {
	t.Helper()
	e := New(engine.NewEnv(), Options{DeviceCache: true, Compress: true, ResultCacheBytes: resultCache})
	et, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	tbl := et.(*Table)
	for i := uint64(0); i < rows; i++ {
		rec := workload.Item(i)
		rec[patchKeyCol] = schema.Int32Value(int32(i % groups))
		if _, err := tbl.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.GroupSumFloat64Where(patchKeyCol, workload.ItemPriceCol, exec.Pred{Op: exec.OpGT}); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// scanCost is what one call of scan allocates, objects and KiB, the
// way testing.AllocsPerRun counts: one processor, after a warm-up call,
// averaged over 20.
func scanCost(scan func()) (allocs, kib float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	scan()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		scan()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
}

// A scan's allocations follow neither the live deltas, nor the group
// count, nor the chunk count, in objects or in bytes. Measured on the
// bench fixture with between(20, 80), which 102 of the 128 chunks
// survive: sum_where 15 objects / 1.4 KiB per scan, clean or with 1000
// live deltas; group_sum_where 21 / 4.0 KiB clean, 90 / 10.0 KiB with
// the deltas (the patch's own group map, once per scan) and 21 / 2.1 KiB
// at 8 groups instead of 64; and, over a predicate whose hot chunks
// match too, the same object counts at a quarter of the rows (32
// chunks). While every acquired piece took a release closure, its
// sync.Once and an LRU element, the same scans read 330 / 14.1 and
// 645 / 34.0; before typed launches, 432 / 32.8 and 854 / 186.8; before
// the ordered patch walk and the value-typed group tables, 4290 objects
// for the grouped scan and 1000 more per 1000 deltas.
func TestScanAllocsIndependentOfDeltas(t *testing.T) {
	pred := exec.Pred{Op: exec.OpBetween, Lo: 20, Hi: 80}
	type cost struct{ sumAllocs, sumKiB, groupAllocs, groupKiB float64 }
	measureAt := func(tbl *Table, pred exec.Pred) (c cost) {
		c.sumAllocs, c.sumKiB = scanCost(func() {
			if _, _, err := tbl.SumFloat64Where(workload.ItemPriceCol, pred); err != nil {
				t.Fatal(err)
			}
		})
		c.groupAllocs, c.groupKiB = scanCost(func() {
			if _, err := tbl.GroupSumFloat64Where(patchKeyCol, workload.ItemPriceCol, pred); err != nil {
				t.Fatal(err)
			}
		})
		return c
	}
	measure := func(tbl *Table) cost { return measureAt(tbl, pred) }
	tbl := benchTable(t, 131072, 64, 0)
	defer tbl.Free()
	clean := measure(tbl)
	// The chunk-count comparison needs both sizes to run the same legs:
	// the hot (host) chunks' prices are 91-101 and 1-12 at 128 chunks,
	// 8-29 at 32, which between(5, 95) matches at both and (20, 80) at one.
	wide := exec.Pred{Op: exec.OpBetween, Lo: 5, Hi: 95}
	manyChunks := measureAt(tbl, wide)
	for i := uint64(0); i < 1000; i++ {
		if err := tbl.Update(i*131, workload.ItemPriceCol, schema.FloatValue(float64(i%90))); err != nil {
			t.Fatal(err)
		}
	}
	patched := mPatchRows.Load()
	deltas := measure(tbl)
	// 2 kinds × (1 warm-up + 20 measured) scans, each handed every delta.
	if got := mPatchRows.Load() - patched; got != 42*1000 {
		t.Errorf("42 scans over 1000 live deltas were handed %d patch rows, want 1000 each", got)
	}
	few := benchTable(t, 131072, 8, 0)
	defer few.Free()
	fewGroups := measure(few)
	quarter := benchTable(t, 32768, 64, 0)
	defer quarter.Free()
	fewChunks := measureAt(quarter, wide)
	t.Logf("per scan, objects / KiB: sum_where %.0f / %.1f clean, %.0f / %.1f with 1000 deltas; "+
		"group_sum_where %.0f / %.1f clean, %.0f / %.1f with 1000 deltas, %.0f / %.1f at 8 groups; "+
		"between(5, 95) at 128 / 32 chunks: sum_where %.0f / %.0f, group_sum_where %.0f / %.0f",
		clean.sumAllocs, clean.sumKiB, deltas.sumAllocs, deltas.sumKiB,
		clean.groupAllocs, clean.groupKiB, deltas.groupAllocs, deltas.groupKiB, fewGroups.groupAllocs, fewGroups.groupKiB,
		manyChunks.sumAllocs, fewChunks.sumAllocs, manyChunks.groupAllocs, fewChunks.groupAllocs)
	if deltas.sumAllocs > clean.sumAllocs+16 {
		t.Errorf("sum_where allocates %.0f objects with 1000 live deltas, %.0f on the clean table: grows with deltas", deltas.sumAllocs, clean.sumAllocs)
	}
	for name, c := range map[string]cost{"1000 deltas": deltas, "8 groups": fewGroups} {
		if c.groupAllocs > 1000 {
			t.Errorf("group_sum_where (%s) allocates %.0f objects per scan, gate 1000", name, c.groupAllocs)
		}
	}
	if clean.sumAllocs > 32 || clean.groupAllocs > 64 {
		t.Errorf("per scan on the clean table: sum_where %.0f objects (gate 32), group_sum_where %.0f (gate 64)", clean.sumAllocs, clean.groupAllocs)
	}
	if raceEnabled {
		return // the detector's sync.Pool drops pooled scratch at random: bytes, and a dropped slice's regrowth, are not the code's
	}
	if math.Abs(manyChunks.sumAllocs-fewChunks.sumAllocs) > 2 || math.Abs(manyChunks.groupAllocs-fewChunks.groupAllocs) > 2 {
		t.Errorf("objects per scan follow the chunk count: sum_where %.0f at 128 chunks, %.0f at 32; group_sum_where %.0f, %.0f",
			manyChunks.sumAllocs, fewChunks.sumAllocs, manyChunks.groupAllocs, fewChunks.groupAllocs)
	}
	if deltas.sumKiB > clean.sumKiB+1 {
		t.Errorf("sum_where allocates %.1f KiB with 1000 live deltas, %.1f on the clean table: grows with deltas", deltas.sumKiB, clean.sumKiB)
	}
	if clean.sumKiB > 2 || clean.groupKiB > 8 {
		t.Errorf("per scan on the clean table: sum_where %.1f KiB (gate 2), group_sum_where %.1f KiB (gate 8)", clean.sumKiB, clean.groupKiB)
	}
	for name, c := range map[string]cost{"1000 deltas": deltas, "8 groups": fewGroups} {
		if c.groupKiB > 64 {
			t.Errorf("group_sum_where (%s) allocates %.1f KiB per scan, gate 64", name, c.groupKiB)
		}
	}
	// 102 launches × 56 more groups × 24 bytes would be 134 KiB.
	if clean.groupKiB > fewGroups.groupKiB+8 {
		t.Errorf("group_sum_where allocates %.1f KiB at 64 groups, %.1f at 8: proportional to launches × groups", clean.groupKiB, fewGroups.groupKiB)
	}
}

// Autocommit updates never surface a lost first-committer-wins race:
// 16 writers hammering ONE row all succeed, the survivor is one of the
// written values, and conflicts did happen (and were retried). Whether
// two lone statements collide is up to the scheduler, so rounds repeat
// until tx.conflicts has advanced; one is nearly always enough.
func TestAutocommitUpdateRetriesConflicts(t *testing.T) {
	_, tbl := newTable(t, Options{}, 100)
	defer tbl.Free()
	const writers, perWriter, maxRounds = 16, 200, 50
	conflicts := obs.NewCounter("tx.conflicts") // the registry's handle of tx's counter
	before := conflicts.Load()
	rounds := 0
	for conflicts.Load() == before {
		if rounds++; rounds > maxRounds {
			t.Fatalf("tx.conflicts did not advance in %d rounds: the retry path was never exercised", maxRounds)
		}
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if err := tbl.Update(7, workload.ItemPriceCol, schema.FloatValue(float64(g*perWriter+i))); err != nil {
						t.Errorf("writer %d update %d: %v", g, i, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
	rec, err := tbl.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if v := rec[workload.ItemPriceCol].F; v != math.Floor(v) || v < 0 || v >= writers*perWriter {
		t.Fatalf("final value %v is not one of the written ones", v)
	}
	if got, want := tbl.PendingVersions(), rounds*writers*perWriter; got != want {
		t.Fatalf("%d versions installed, want one per acknowledged update (%d)", got, want)
	}
	t.Logf("%d conflicts retried in %d round(s)", conflicts.Load()-before, rounds)
}

// Merge racing interactive commits loses no acknowledged write: commits
// take no table lock, so one can install a newer version of a row while
// Merge is folding the older one; the chain must then survive the merge.
// One writer per row, so every acknowledged value can be read back;
// each writer also keeps a band of filler rows dirty so that a merge has
// enough to fold for commits to land inside it. Run under -race.
func TestMergeKeepsRacingCommits(t *testing.T) {
	const writers, perWriter, band = 8, 300, 32
	_, tbl := newTable(t, Options{ChunkRows: 64, HotChunks: 1}, writers*band)
	defer tbl.Free()
	stop := make(chan struct{})
	var merger sync.WaitGroup
	merger.Add(1)
	go func() {
		defer merger.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tbl.Merge(); err != nil {
				t.Errorf("Merge: %v", err)
				return
			}
		}
	}()
	acked := make([]float64, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			row := uint64(g * band)
			for i := 1; i <= perWriter; i++ {
				v := schema.FloatValue(float64(g*perWriter + i))
				for f := uint64(1); f < band; f++ {
					if err := tbl.Update(row+f, workload.ItemPriceCol, v); err != nil {
						t.Errorf("filler row %d: %v", row+f, err)
						return
					}
				}
				x := tbl.Begin()
				if err := x.Update(row, workload.ItemPriceCol, v); err != nil {
					t.Errorf("row %d: %v", row, err)
					return
				}
				// Let a merge waiting for the table lock start while this
				// write is still buffered: the commit then lands inside it.
				runtime.Gosched()
				if err := x.Commit(); err != nil {
					t.Errorf("row %d commit: %v (the row has one writer)", row, err)
					return
				}
				acked[g] = v.F
				// The row has no other writer: reading it back, after
				// whatever merge the commit raced, must find this commit.
				if rec, err := tbl.Get(row); err != nil || rec[workload.ItemPriceCol].F != v.F {
					t.Errorf("row %d reads %v, %v right after its commit of %v was acknowledged", row, rec, err, v.F)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	merger.Wait()
	for _, merged := range []bool{false, true} {
		for g, want := range acked {
			rec, err := tbl.Get(uint64(g * band))
			if err != nil {
				t.Fatal(err)
			}
			if got := rec[workload.ItemPriceCol].F; got != want {
				t.Fatalf("row %d reads %v, last acknowledged commit wrote %v (after a final merge: %v)", g*band, got, want, merged)
			}
		}
		if err := tbl.Merge(); err != nil {
			t.Fatal(err)
		}
	}
}

// A live reader's horizon holds against everything that moves versions:
// while committers (lone statements and multi-row transactions), Merge
// and CheckpointTo run, MinActiveTS never passes the snapshot of a
// transaction still open, and every row that transaction read reads the
// same until it ends — so no version it can see was pruned, and none
// forgotten without the base holding exactly that value. Afterwards no
// snapshot is left registered: a merge folds every chain. Run under
// -race.
func TestLiveReaderHorizonHolds(t *testing.T) {
	const rows, writers, readers, snapshots = 256, 3, 2, 120
	_, tbl := newTable(t, Options{ChunkRows: 64, HotChunks: 1}, rows)
	defer tbl.Free()
	stop := make(chan struct{})
	var bg sync.WaitGroup
	background := func(step func(r *rand.Rand) error) {
		bg.Add(1)
		go func(seed int64) {
			defer bg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := step(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(rand.Int()))
	}
	for g := 0; g < writers; g++ {
		background(func(r *rand.Rand) error {
			v := schema.FloatValue(float64(r.Intn(1 << 20)))
			if r.Intn(3) > 0 {
				return tbl.Update(uint64(r.Intn(rows)), workload.ItemPriceCol, v)
			}
			x := tbl.Begin()
			for n := 2 + r.Intn(3); n > 0; n-- {
				if err := x.Update(uint64(r.Intn(rows)), workload.ItemPriceCol, v); err != nil {
					return err
				}
			}
			if err := x.Commit(); err != nil && !errors.Is(err, tx.ErrConflict) {
				return err
			}
			return nil
		})
	}
	background(func(*rand.Rand) error { return tbl.Merge() })
	background(func(*rand.Rand) error {
		_, _, err := tbl.CheckpointTo(new(wal.Encoder))
		return err
	})

	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < snapshots; i++ {
				x := tbl.Begin()
				ts := x.x.SnapshotTS()
				first := make(map[uint64]float64)
				for pass := 0; pass < 4; pass++ {
					for n := 0; n < 8; n++ {
						row := uint64(r.Intn(rows))
						rec, err := x.Read(row)
						if err != nil {
							t.Errorf("snapshot %d row %d: %v", ts, row, err)
							return
						}
						got := rec[workload.ItemPriceCol].F
						if want, seen := first[row]; seen && got != want {
							t.Errorf("snapshot %d: row %d read %v, then %v", ts, row, want, got)
							return
						}
						first[row] = got
					}
					if min := tbl.deltas.MinActiveTS(); min > ts {
						t.Errorf("MinActiveTS = %d with a reader at %d still open", min, ts)
						return
					}
					runtime.Gosched()
				}
				x.Abort()
			}
		}(int64(g))
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if n := tbl.PendingVersions(); n != 0 {
		t.Fatalf("%d versions survive a merge with no transaction open: a snapshot stayed registered", n)
	}
}
