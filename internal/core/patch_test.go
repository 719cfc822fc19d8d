package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/obs"
	"hybridstore/internal/schema"
	"hybridstore/internal/tx"
	"hybridstore/internal/wal"
	"hybridstore/internal/workload"
)

// errNotFound is what read reports for a row with no visible version.
var errNotFound = errors.New("no visible version")

// read is Lookup with a missing version reported as errNotFound.
func read(x *tx.Tx, row uint64) (schema.Record, error) {
	rec, ok, err := x.Lookup(row)
	if err == nil && !ok {
		err = errNotFound
	}
	return rec, err
}

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
		rec, err := read(reader, row)
		if errors.Is(err, errNotFound) {
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
	var pa engine.Patch
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
			pa.Base, pa.Cur = append(pa.Base, baseVal.F), append(pa.Cur, cur)
			pa.BaseKey, pa.CurKey = append(pa.BaseKey, baseKey.I), append(pa.CurKey, pr.rec[p.KeyCol].I)
		}
	}
	if p.Op.Grouped() {
		lo, hi, _ := p.Pred.Closed()
		gp := engine.NewGroupPatch(res.Groups, p.HasPred, lo, hi)
		gp.Fold(pa)
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
		if seed%3 == 0 {
			opts.DeviceCache, opts.Compress = true, true
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
		// Every third seed keeps the price column on the device — placed
		// once the load has frozen chunks, and again whenever Adapt sends
		// it home — so the oracle compares device-resident folds.
		place := func() {
			t.Helper()
			if seed%3 != 1 || len(tbl.DeviceColumns()) > 0 {
				return
			}
			if err := tbl.PlaceColumn(workload.ItemPriceCol); err != nil {
				t.Fatal(err)
			}
			if len(tbl.DeviceColumns()) == 0 {
				t.Fatalf("seed %d: PlaceColumn(price) left no device column", seed)
			}
		}
		place()
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
				place()
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

// The exact gate on work done: a scan's fold is handed the live visible
// delta rows and nothing else, whatever the table's size
// (core.patch.rows), and under a warm projection the version store
// hands the scan only the rows changed since the previous one
// (core.patch.rows_read).
func TestPatchRowsCounter(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 1024}, 100_000)
	defer tbl.Free()
	scan := func() (folded, read int64) {
		t.Helper()
		f, r := mPatchRows.Load(), mPatchRowsRead.Load()
		if _, _, err := sumWhereOf(tbl, workload.ItemPriceCol, exec.Pred{Op: exec.OpGT, Lo: 50}); err != nil {
			t.Fatal(err)
		}
		return mPatchRows.Load() - f, mPatchRowsRead.Load() - r
	}
	update := func(row uint64, v float64) {
		t.Helper()
		if err := tbl.Update(row, workload.ItemPriceCol, schema.FloatValue(v)); err != nil {
			t.Fatal(err)
		}
	}
	if folded, read := scan(); folded != 0 || read != 0 {
		t.Fatalf("clean table: core.patch.rows advanced by %d, rows_read by %d per sum_where, want 0 and 0", folded, read)
	}
	for i := uint64(0); i < 10; i++ {
		// Twice per row: the fold and the store count rows, not versions.
		update(i*9973, 1)
		update(i*9973, 2)
	}
	for i := 0; i < 3; i++ {
		wantRead := int64(0)
		if i == 0 {
			wantRead = 10
		}
		if folded, read := scan(); folded != 10 || read != wantRead {
			t.Fatalf("10 updated rows of 100000, scan %d: core.patch.rows advanced by %d, rows_read by %d, want 10 and %d", i, folded, read, wantRead)
		}
	}
	// One more version of a projected row, then one of a new row.
	for _, tc := range []struct {
		row    uint64
		folded int64
	}{{3 * 9973, 10}, {5, 11}} {
		update(tc.row, 3)
		if folded, read := scan(); folded != tc.folded || read != 1 {
			t.Fatalf("after updating row %d: core.patch.rows advanced by %d, rows_read by %d, want %d and 1", tc.row, folded, read, tc.folded)
		}
	}
	// A snapshot older than the projection folds one of its own, read
	// whole from the store, and leaves the shared one where it was: the
	// next fresh scan reads nothing.
	older := tbl.deltas.Begin()
	update(7, 4)
	if folded, read := scan(); folded != 12 || read != 1 {
		t.Fatalf("after updating row 7: core.patch.rows advanced by %d, rows_read by %d, want 12 and 1", folded, read)
	}
	f, r := mPatchRows.Load(), mPatchRowsRead.Load()
	tbl.mu.RLock()
	err := tbl.scanAt(older, []exec.Plan{{Op: exec.KindSumWhere, Col: workload.ItemPriceCol, Pred: exec.Pred{Op: exec.OpGT, Lo: 50}}}, make([]exec.Result, 1))
	tbl.mu.RUnlock()
	older.Abort()
	if folded, read := mPatchRows.Load()-f, mPatchRowsRead.Load()-r; err != nil || folded != 11 || read != 11 {
		t.Fatalf("older snapshot: core.patch.rows advanced by %d, rows_read by %d (%v), want 11 and 11", folded, read, err)
	}
	if folded, read := scan(); folded != 12 || read != 0 {
		t.Fatalf("fresh scan after the older one: core.patch.rows advanced by %d, rows_read by %d, want 12 and 0", folded, read)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if folded, read := scan(); folded != 0 || read != 0 {
		t.Fatalf("merged table: core.patch.rows advanced by %d, rows_read by %d per sum_where, want 0 and 0", folded, read)
	}
}

// chainSource is the scan source with the patch the engine folded
// before the projection, kept as the reference: every scan walks the
// live chains under its snapshot, resolves each row's chunk and the
// vectors of the plan's columns per chunk crossing, reads the current
// cell from the version's record, and hands the rows over as columns.
type chainSource struct{ *scanSource }

func (s chainSource) Patches(p exec.Plan, fn func(engine.Patch)) error {
	t := s.t
	grouped := p.Op.Grouped()
	var c *chunk
	var vals, keys layout.ColVector
	var pa engine.Patch
	err := t.patchRows(s.reader, func(row uint64, rec schema.Record, _ uint64) (err error) {
		if c == nil || !c.rows.Contains(row) {
			if c, err = t.chunkFor(row); err != nil {
				return err
			}
			if vals, err = t.colVectorFor(c, p.Col); err == nil && grouped {
				keys, err = t.colVectorFor(c, p.KeyCol)
			}
			if err != nil {
				return err
			}
		}
		i := int(row - c.rows.Begin)
		if i >= vals.Len || grouped && i >= keys.Len {
			return fmt.Errorf("%w: tuplet %d of %d", layout.ErrOutOfRange, i, vals.Len)
		}
		pa.Base = append(pa.Base, math.Float64frombits(binary.LittleEndian.Uint64(vals.Data[vals.Base+i*vals.Stride:])))
		pa.Cur = append(pa.Cur, rec[p.Col].F)
		if grouped {
			pa.BaseKey, pa.CurKey = append(pa.BaseKey, keys.Int(i)), append(pa.CurKey, rec[p.KeyCol].I)
		}
		return nil
	})
	if err == nil {
		fn(pa)
	}
	return err
}

// sameAsChainWalk scans plans under reader twice — the engine's way,
// through the patch projection and the result cache, and the
// reference's, through chainSource and no cache — and fails unless
// the answers agree bit for bit. Caller holds tbl.mu.
func sameAsChainWalk(tbl *Table, reader *tx.Tx, plans []exec.Plan) error {
	got, want := make([]exec.Result, len(plans)), make([]exec.Result, len(plans))
	if err := tbl.scanAt(reader, plans, got); err != nil {
		return err
	}
	src := chainSource{tbl.source(reader)}
	err := engine.ScanCohort(src, tbl.cfg, tbl.env.DeviceExec(tbl.rel.Name()), plans, nil, want)
	src.release()
	if err != nil {
		return err
	}
	for k := range plans {
		if !sameResult(got[k], want[k]) {
			return fmt.Errorf("%v at snapshot %d: projection %+v, chain walk %+v", plans[k].Op, reader.SnapshotTS(), got[k], want[k])
		}
	}
	return nil
}

// Over seeded random histories the projection answers every plan kind
// bit-identically to the chain walk: updates of value and group key (a
// row moving between groups), interactive commits, Insert (with the
// freezes it triggers), Adapt, PlaceColumn and Merge between scans;
// sum_where and group_sum_where alternating inside one epoch, so a scan
// projects a column the previous one did not; and an older transaction's
// snapshot scanned after newer ones, which folds a projection of its own.
func TestProjectionMatchesChainWalk(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		opts := Options{ChunkRows: 32, HotChunks: 1}
		switch seed % 4 {
		case 0:
			opts.DeviceCache, opts.Compress = true, true
		case 2:
			opts.ResultCacheBytes = 1 << 20
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
		update := func(update func(row uint64, col int, v schema.Value) error) {
			row := uint64(r.Int63n(int64(rows)))
			if r.Intn(3) == 0 {
				err = update(row, patchKeyCol, schema.Int32Value(int32(r.Intn(10))))
			} else {
				err = update(row, workload.ItemPriceCol, schema.FloatValue(math.Floor(r.Float64()*6000)/100))
			}
			if err != nil && !errors.Is(err, tx.ErrConflict) {
				t.Fatal(err)
			}
		}
		check := func(step int, reader *tx.Tx) {
			t.Helper()
			// One plan kind, two, or all four, each at a random position.
			plans := slices.Clone(patchPlans)
			r.Shuffle(len(plans), func(i, j int) { plans[i], plans[j] = plans[j], plans[i] })
			for _, p := range plans[:1+r.Intn(len(plans))] {
				tbl.mu.RLock()
				x := reader
				if x == nil {
					x = tbl.deltas.Begin()
				}
				err := sameAsChainWalk(tbl, x, []exec.Plan{p})
				if reader == nil {
					x.Abort()
				}
				tbl.mu.RUnlock()
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
		var held []*Txn // older snapshots, oldest first
		for step := 0; step < 300; step++ {
			switch k := r.Intn(40); {
			case k < 16:
				update(tbl.Update)
			case k < 20:
				x := tbl.Begin()
				for n := 1 + r.Intn(3); n > 0; n-- {
					update(x.Update)
				}
				if err := x.Commit(); err != nil && !errors.Is(err, tx.ErrConflict) {
					t.Fatal(err)
				}
			case k < 23:
				insert()
			case k < 24:
				if _, err := tbl.Adapt(); err != nil {
					t.Fatal(err)
				}
			case k < 25:
				if err := tbl.PlaceColumn(workload.ItemPriceCol); err != nil {
					t.Fatal(err)
				}
			case k < 27:
				if err := tbl.Merge(); err != nil {
					t.Fatal(err)
				}
			case k < 30:
				held = append(held, tbl.Begin())
			case k < 32 && len(held) > 0:
				// An older snapshot, scanned after the newer ones.
				x := held[r.Intn(len(held))]
				check(step, x.x)
				check(step, nil)
			case k < 33 && len(held) > 0:
				held[0].Abort()
				held = held[1:]
			}
			check(step, nil)
		}
		for _, x := range held {
			check(300, x.x)
			x.Abort()
		}
		if err := tbl.Merge(); err != nil {
			t.Fatal(err)
		}
		check(301, nil)
		tbl.Free()
	}
}

// The projection under racing writers: interactive commits and
// autocommit updates land while scans advance it, with
// TestMergeKeepsRacingCommits's merge churn between them, and every scan
// — at a fresh snapshot, and again at one taken before it — answers
// bit-identically to the chain walk at the same snapshot. Run under
// -race.
func TestProjectionUnderRacingCommits(t *testing.T) {
	const writers, perWriter, band = 4, 150, 16
	_, tbl := newTable(t, Options{ChunkRows: 64, HotChunks: 1}, writers*band)
	defer tbl.Free()
	for i := uint64(0); i < writers*band; i++ {
		if err := tbl.Update(i, patchKeyCol, schema.Int32Value(int32(i%8))); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { // merge churn
		defer bg.Done()
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
			runtime.Gosched()
		}
	}()
	// Two scanners, so advances also contend with each other; each scans
	// at a fresh snapshot and then at one taken before it.
	var scans [2]int
	for sc := range scans {
		bg.Add(1)
		go func(sc int) {
			defer bg.Done()
			r := rand.New(rand.NewSource(int64(sc)))
			for ; ; scans[sc]++ {
				select {
				case <-stop:
					return
				default:
				}
				older := tbl.deltas.Begin()
				runtime.Gosched()
				tbl.mu.RLock()
				newer := tbl.deltas.Begin()
				p := patchPlans[r.Intn(len(patchPlans))]
				err := sameAsChainWalk(tbl, newer, []exec.Plan{p})
				if err == nil {
					err = sameAsChainWalk(tbl, older, []exec.Plan{p})
				}
				tbl.mu.RUnlock()
				newer.Abort()
				older.Abort()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(sc)
	}
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
				err := x.Update(row, workload.ItemPriceCol, v)
				if err == nil {
					// Moves the row between groups.
					err = x.Update(row, patchKeyCol, schema.Int32Value(int32(i%8)))
				}
				if err != nil {
					t.Errorf("row %d: %v", row, err)
					return
				}
				runtime.Gosched()
				if err := x.Commit(); err != nil {
					t.Errorf("row %d commit: %v (the row has one writer)", row, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	t.Logf("%d and %d scan pairs raced the writers", scans[0], scans[1])
}

// benchTable builds the bench/ fixture's table: item rows (the fixture
// has 131072) with the group key i%groups (the fixture has 64) in
// 1024-row chunks, DeviceCache and Compress on, a result cache of
// resultCache bytes (0: none), merged and warmed with one grouped scan.
func benchTable(t testing.TB, rows, groups uint64, resultCache int64) *Table {
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
	if _, err := groupSumWhereOf(tbl, patchKeyCol, workload.ItemPriceCol, exec.Pred{Op: exec.OpGT}); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// BenchmarkPatchFold is the result-cache hit path with live deltas:
// the bench fixture's table under its 4 MiB result cache and 12 000 live
// price deltas, each scan one of the serving lanes' four fixed cuts, so
// the cache answers the settled base and the scan's own cost is the
// patch — the projection, warm, hands it over and every plan folds it.
// 12 000 versions pass the settlement budget (rows/12), so a snapshot
// held open from before the first update pins them all.
func BenchmarkPatchFold(b *testing.B) {
	tbl := benchTable(b, 131072, 64, 4<<20)
	defer tbl.Free()
	held := tbl.Begin()
	defer held.Abort()
	for i := uint64(0); i < 12000; i++ {
		if err := tbl.Update(i*10, workload.ItemPriceCol, schema.FloatValue(float64(i%97)+0.5)); err != nil {
			b.Fatal(err)
		}
	}
	cuts := []exec.Pred{{Op: exec.OpLT, Hi: 30}, {Op: exec.OpGT, Lo: 50}, {Op: exec.OpBetween, Lo: 10, Hi: 60}, {Op: exec.OpBetween, Lo: 20, Hi: 80}}
	for _, op := range []exec.Kind{exec.KindSumWhere, exec.KindGroupSumWhere} {
		plans := make([]exec.Plan, len(cuts))
		for i, pred := range cuts {
			plans[i] = exec.Plan{Op: op, Col: workload.ItemPriceCol, KeyCol: patchKeyCol, Pred: pred}
			if _, err := tbl.Scan(plans[i]); err != nil { // settle the base into the cache
				b.Fatal(err)
			}
		}
		b.Run(string(op), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tbl.Scan(plans[i%len(plans)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
// survive: sum_where 10 objects / 0.5 KiB per scan, clean or with 1000
// live deltas; group_sum_where 17 / 4.0 KiB, clean or with the deltas
// (the patch folds into the bulk's own group slice), and 17 / 1.3 KiB at
// 8 groups instead of 64; and, over a predicate whose hot chunks match
// too, the same object counts at a quarter of the rows (32 chunks).
// While the patch was handed out a row per callback, every grouped scan
// built its patch tables and the closure before asking for it, clean or
// not: 20 / 4.1. While the patch built a group map per scan, the grouped
// scan with deltas read 90 / 10.0; while every acquired piece took a release
// closure, its sync.Once and an LRU element, the two scans read
// 330 / 14.1 and 645 / 34.0; before typed launches, 432 / 32.8 and
// 854 / 186.8; before the ordered patch walk and the value-typed group
// tables, 4290 objects for the grouped scan and 1000 more per 1000
// deltas.
func TestScanAllocsIndependentOfDeltas(t *testing.T) {
	pred := exec.Pred{Op: exec.OpBetween, Lo: 20, Hi: 80}
	type cost struct{ sumAllocs, sumKiB, groupAllocs, groupKiB float64 }
	measureAt := func(tbl *Table, pred exec.Pred) (c cost) {
		c.sumAllocs, c.sumKiB = scanCost(func() {
			if _, _, err := sumWhereOf(tbl, workload.ItemPriceCol, pred); err != nil {
				t.Fatal(err)
			}
		})
		c.groupAllocs, c.groupKiB = scanCost(func() {
			if _, err := groupSumWhereOf(tbl, patchKeyCol, workload.ItemPriceCol, pred); err != nil {
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
	// The race detector's sync.Pool drops pooled scratch at random, and a
	// dropped table is rebuilt.
	slack := 4.0
	if raceEnabled {
		slack = 16
	}
	if deltas.sumAllocs > clean.sumAllocs+slack {
		t.Errorf("sum_where allocates %.0f objects with 1000 live deltas, %.0f on the clean table: grows with deltas", deltas.sumAllocs, clean.sumAllocs)
	}
	if deltas.groupAllocs > clean.groupAllocs+slack {
		t.Errorf("group_sum_where allocates %.0f objects with 1000 live deltas, %.0f on the clean table: grows with deltas", deltas.groupAllocs, clean.groupAllocs)
	}
	if fewGroups.groupAllocs > 64 {
		t.Errorf("group_sum_where (8 groups) allocates %.0f objects per scan, gate 64", fewGroups.groupAllocs)
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
// 16 writers hammering ONE row all succeed, each commits exactly once,
// the survivor is one of the written values, and conflicts did happen
// (and were retried). Whether two lone statements collide is up to the
// scheduler, so rounds repeat until tx.conflicts has advanced; one is
// nearly always enough. Commits are counted by tx.commits: the writers
// bring the live versions to the settlement budget many times over, so
// PendingVersions no longer counts them.
func TestAutocommitUpdateRetriesConflicts(t *testing.T) {
	_, tbl := newTable(t, Options{}, 100)
	defer tbl.Free()
	const writers, perWriter, maxRounds = 16, 200, 50
	conflicts := obs.NewCounter("tx.conflicts") // the registry's handles of tx's counters
	commits := obs.NewCounter("tx.commits")
	before, committed := conflicts.Load(), commits.Load()
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
	if got, want := commits.Load()-committed, int64(rounds*writers*perWriter); got != want {
		t.Fatalf("%d commits, want one per acknowledged update (%d)", got, want)
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
