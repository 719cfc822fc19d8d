package core

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"hybridstore/internal/compress"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/index"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/obs"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
	"hybridstore/internal/tx"
	"hybridstore/internal/wal"
	"hybridstore/internal/workload"
)

// sumOf, sumWhereOf and groupSumWhereOf answer one sum, sum_where or
// group_sum_where plan through Scan.
func sumOf(t *Table, col int) (float64, error) {
	r, err := t.Scan(exec.Plan{Op: exec.KindSum, Col: col})
	return r.Sum, err
}

func sumWhereOf(t *Table, col int, p exec.Pred) (float64, int64, error) {
	r, err := t.Scan(exec.Plan{Op: exec.KindSumWhere, Col: col, Pred: p})
	return r.Sum, r.Count, err
}

func groupSumWhereOf(t *Table, keyCol, valCol int, p exec.Pred) ([]exec.GroupResult, error) {
	r, err := t.Scan(exec.Plan{Op: exec.KindGroupSumWhere, KeyCol: keyCol, Col: valCol, Pred: p})
	return r.Groups, err
}

// newTable creates a reference-engine item table with small chunks so
// freezing kicks in quickly.
func newTable(t *testing.T, opts Options, n uint64) (*Engine, *Table) {
	t.Helper()
	env := engine.NewEnv()
	if opts.ChunkRows == 0 {
		opts.ChunkRows = 128
	}
	e := New(env, opts)
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	ct := tbl.(*Table)
	if err := workload.Generate(n, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := ct.Insert(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return e, ct
}

// groupSum answers SELECT keyCol, SUM(valCol), COUNT(*) GROUP BY keyCol
// through the one aggregate entry.
func groupSum(tbl *Table, keyCol, valCol int) ([]exec.GroupResult, error) {
	r, err := tbl.Scan(exec.Plan{Op: exec.KindGroupSum, KeyCol: keyCol, Col: valCol})
	return r.Groups, err
}

// evictColumn is evictColumnLocked under the exclusive lock.
func (t *Table) evictColumn(col int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evictColumnLocked(col)
}

func TestInsertGetRoundTrip(t *testing.T) {
	_, tbl := newTable(t, Options{}, 500)
	defer tbl.Free()
	for _, row := range []uint64{0, 127, 128, 499} {
		rec, err := tbl.Get(row)
		if err != nil {
			t.Fatalf("Get(%d): %v", row, err)
		}
		if !rec.Equal(workload.Item(row)) {
			t.Fatalf("Get(%d) = %v", row, rec)
		}
	}
	if _, err := tbl.Get(500); !errors.Is(err, engine.ErrNoSuchRow) {
		t.Fatalf("Get(500) err = %v", err)
	}
}

func TestFreezingMovesChunksColdDelegation(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 2}, 1000)
	defer tbl.Free()
	if tbl.Freezes() == 0 {
		t.Fatal("no chunk froze")
	}
	if got := tbl.HotChunks(); got > 2 {
		t.Fatalf("hot chunks = %d, budget 2", got)
	}
	// Delegation: every chunk's data exists in exactly one region — the
	// layouts never both cover a row.
	snap := tbl.Snapshot()
	oltpRows := map[uint64]bool{}
	for _, f := range snap.Layouts[0].Fragments {
		for r := f.Rows.Begin; r < f.Rows.End; r++ {
			oltpRows[r] = true
		}
	}
	for _, f := range snap.Layouts[1].Fragments {
		for r := f.Rows.Begin; r < f.Rows.End; r++ {
			if oltpRows[r] {
				t.Fatalf("row %d present in both regions (replication, not delegation)", r)
			}
		}
	}
	// Reads stitch both regions.
	sum, err := sumOf(tbl, workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	want := workload.ExpectedItemPriceSum(1000)
	if math.Abs(sum-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
}

func TestUpdateThroughMVCCVisibleEverywhere(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 1}, 600)
	defer tbl.Free()
	// Row 5 is in a frozen chunk; row 599 in the hot tail.
	for _, row := range []uint64{5, 599} {
		if err := tbl.Update(row, workload.ItemPriceCol, schema.FloatValue(777)); err != nil {
			t.Fatalf("Update(%d): %v", row, err)
		}
		rec, err := tbl.Get(row)
		if err != nil || rec[workload.ItemPriceCol].F != 777 {
			t.Fatalf("Get(%d) = %v, %v", row, rec, err)
		}
	}
	sum, err := sumOf(tbl, workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	want := workload.ExpectedItemPriceSum(600) - workload.ItemPrice(5) - workload.ItemPrice(599) + 2*777
	if math.Abs(sum-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
	if tbl.PendingVersions() == 0 {
		t.Fatal("updates did not create versions")
	}
}

// TestAnalyticsDetachedFromTransactions reproduces challenge (b.iii): a
// long-running analytic reader pinned before a burst of transactional
// updates computes its aggregate as if the updates never happened.
func TestAnalyticsDetachedFromTransactions(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 1}, 400)
	defer tbl.Free()

	// Pin an analytic transaction BEFORE the update burst.
	reader := tbl.Begin()
	defer reader.Abort()
	before, err := reader.Read(42)
	if err != nil {
		t.Fatal(err)
	}

	for i := uint64(0); i < 100; i++ {
		if err := tbl.Update(i, workload.ItemPriceCol, schema.FloatValue(9999)); err != nil {
			t.Fatal(err)
		}
	}

	after, err := reader.Read(42)
	if err != nil {
		t.Fatal(err)
	}
	if !before.Equal(after) {
		t.Fatalf("snapshot moved under analytic reader: %v → %v", before, after)
	}
	// A fresh reader sees the updates.
	rec, err := tbl.Get(42)
	if err != nil || rec[workload.ItemPriceCol].F != 9999 {
		t.Fatalf("current read = %v, %v", rec, err)
	}
}

func TestTxnConflict(t *testing.T) {
	_, tbl := newTable(t, Options{}, 100)
	defer tbl.Free()
	a := tbl.Begin()
	b := tbl.Begin()
	if err := a.Update(1, workload.ItemPriceCol, schema.FloatValue(1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Update(1, workload.ItemPriceCol, schema.FloatValue(2)); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); !errors.Is(err, tx.ErrConflict) {
		t.Fatalf("second committer err = %v", err)
	}
	rec, _ := tbl.Get(1)
	if rec[workload.ItemPriceCol].F != 1 {
		t.Fatalf("winner lost: %v", rec)
	}
}

// tx.aborts counts abandoned writes. A reader handing its snapshot back
// — every scan, get, Materialize, Merge and checkpoint ends that way —
// abandons nothing; it used to count one abort per query.
func TestReadsCountNoAborts(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 1}, 300)
	defer tbl.Free()
	if err := tbl.Update(3, workload.ItemPriceCol, schema.FloatValue(9)); err != nil {
		t.Fatal(err)
	}
	aborts := obs.NewCounter("tx.aborts") // the registry's handle of tx's counter
	before := aborts.Load()
	for i := uint64(0); i < 20; i++ {
		if _, err := sumOf(tbl, workload.ItemPriceCol); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Get(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Materialize([]uint64{1, 3, 200}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.CheckpointTo(new(wal.Encoder)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	x := tbl.Begin()
	if _, err := x.Read(5); err != nil {
		t.Fatal(err)
	}
	x.Abort() // read-only: nothing abandoned
	if got := aborts.Load() - before; got != 0 {
		t.Fatalf("tx.aborts moved by %d over reads alone", got)
	}
	x = tbl.Begin()
	if err := x.Update(5, len(workload.Item(0)), schema.FloatValue(1)); !errors.Is(err, layout.ErrOutOfRange) {
		t.Fatalf("Txn.Update of a column past the schema: %v", err)
	}
	if err := x.Update(5, workload.ItemPriceCol, schema.FloatValue(1)); err != nil {
		t.Fatal(err)
	}
	x.Abort()
	x.Abort() // finished: counts once
	if got := aborts.Load() - before; got != 1 {
		t.Fatalf("tx.aborts moved by %d over one abandoned update, want 1", got)
	}
}

func TestMergeFoldsVersions(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 1}, 300)
	defer tbl.Free()
	for i := uint64(0); i < 50; i++ {
		if err := tbl.Update(i, workload.ItemPriceCol, schema.FloatValue(5)); err != nil {
			t.Fatal(err)
		}
	}
	sumBefore, err := sumOf(tbl, workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	sumAfter, err := sumOf(tbl, workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sumBefore-sumAfter) > 1e-6 {
		t.Fatalf("Merge changed the answer: %v → %v", sumBefore, sumAfter)
	}
	rec, err := tbl.Get(10)
	if err != nil || rec[workload.ItemPriceCol].F != 5 {
		t.Fatalf("post-merge Get = %v, %v", rec, err)
	}
}

func TestAdaptRegroupsColdChunks(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 1}, 600)
	defer tbl.Free()
	// Record-centric co-access on columns 0-2 should fuse them in cold
	// chunks after adaptation.
	for i := 0; i < 200; i++ {
		tbl.Observe(workload.Op{Kind: workload.PointRead, Cols: []int{0, 1, 2}})
	}
	changed, err := tbl.Adapt()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("Adapt did not regroup")
	}
	// Data intact after regrouping.
	sum, err := sumOf(tbl, workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-workload.ExpectedItemPriceSum(600)) > 1e-6 {
		t.Fatalf("sum after regroup = %v", sum)
	}
	rec, err := tbl.Get(3)
	if err != nil || !rec.Equal(workload.Item(3)) {
		t.Fatalf("Get after regroup = %v, %v", rec, err)
	}
	// A fused DSM fragment must exist in the cold region.
	fused := false
	for _, f := range tbl.Snapshot().Layouts[1].Fragments {
		if len(f.Cols) >= 2 && f.Lin == layout.DSM {
			fused = true
		}
	}
	if !fused {
		t.Fatal("no fused cold fragment after adapt")
	}
}

func TestDevicePlacementMovesColumns(t *testing.T) {
	// Chunks must be large enough that a per-chunk reduction kernel beats
	// the host stream — the advisor is cost-aware and declines otherwise.
	_, tbl := newTable(t, Options{ChunkRows: 16384, HotChunks: 1, DevicePlacement: true}, 50_000)
	defer tbl.Free()
	// Scan-dominate the price column.
	for i := 0; i < 100; i++ {
		tbl.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{workload.ItemPriceCol}})
	}
	changed, err := tbl.Adapt()
	if err != nil {
		t.Fatal(err)
	}
	if !changed || len(tbl.DeviceColumns()) != 1 || tbl.DeviceColumns()[0] != workload.ItemPriceCol {
		t.Fatalf("placement: changed=%v cols=%v", changed, tbl.DeviceColumns())
	}
	// Mixed location in the snapshot (requirement 3).
	snap := tbl.Snapshot()
	spaces := map[mem.Space]bool{}
	for _, l := range snap.Layouts {
		for _, f := range l.Fragments {
			spaces[f.Space] = true
		}
	}
	if !spaces[mem.Host] || !spaces[mem.Device] {
		t.Fatalf("spaces = %v, want host+device", spaces)
	}
	// Answers unchanged; device kernels do the scanning.
	sum, err := sumOf(tbl, workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-workload.ExpectedItemPriceSum(50_000)) > 1e-4 {
		t.Fatalf("device sum = %v", sum)
	}
	// Delegation, not replication: no host copy of a placed fragment.
	// Eviction brings it back.
	if err := tbl.evictColumn(workload.ItemPriceCol); err != nil {
		t.Fatal(err)
	}
	sum2, err := sumOf(tbl, workload.ItemPriceCol)
	if err != nil || math.Abs(sum2-sum) > 1e-6 {
		t.Fatalf("post-evict sum = %v, %v", sum2, err)
	}
}

func TestPlacementCoolsOff(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 16384, HotChunks: 1, DevicePlacement: true}, 50_000)
	defer tbl.Free()
	for i := 0; i < 100; i++ {
		tbl.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{workload.ItemPriceCol}})
	}
	if _, err := tbl.Adapt(); err != nil {
		t.Fatal(err)
	}
	if len(tbl.DeviceColumns()) != 1 {
		t.Fatal("column not placed")
	}
	// Shift to record-centric: the column must come home.
	for i := 0; i < 500; i++ {
		tbl.Observe(workload.Op{Kind: workload.PointRead, Cols: layout.AllCols(tbl.Schema())})
	}
	if _, err := tbl.Adapt(); err != nil {
		t.Fatal(err)
	}
	if len(tbl.DeviceColumns()) != 0 {
		t.Fatalf("column still placed: %v", tbl.DeviceColumns())
	}
}

// TestReferenceDesignChecklist verifies the six Section IV-C requirements
// against the engine's derived classification — the constructive check
// that this design would pass where the paper's Table 1 says every
// surveyed engine fails.
func TestReferenceDesignChecklist(t *testing.T) {
	env := engine.NewEnv()
	e := New(env, Options{ChunkRows: 128, HotChunks: 1, DevicePlacement: true})
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	ct := tbl.(*Table)
	defer ct.Free()
	if err := workload.Generate(600, workload.Item, func(i uint64, rec schema.Record) error {
		_, err := ct.Insert(rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Mixed HTAP history: fuse 0-2, scan price.
	for i := 0; i < 100; i++ {
		ct.Observe(workload.Op{Kind: workload.PointRead, Cols: []int{0, 1, 2}})
		ct.Observe(workload.Op{Kind: workload.ColumnScan, Cols: []int{workload.ItemPriceCol}})
	}
	if _, err := ct.Adapt(); err != nil {
		t.Fatal(err)
	}
	// Manual placement (not cost-gated) realizes the mixed data location
	// at this small demo scale.
	if err := ct.PlaceColumn(workload.ItemPriceCol); err != nil {
		t.Fatal(err)
	}

	c, violations, err := engine.Audit(e, ct)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Errorf("violation: %v", v)
	}

	// (1) at least constrained strong flexible layout support.
	if !c.Flexibility.Strong() {
		t.Errorf("req 1: flexibility = %v", c.Flexibility)
	}
	// (2) layout responsive to changes in workloads.
	if c.Adaptability != taxonomy.Responsive {
		t.Errorf("req 2: adaptability = %v", c.Adaptability)
	}
	// (3) mixed data location and distributed data locality.
	if c.Working != taxonomy.LocMixed || c.Locality != taxonomy.Distributed {
		t.Errorf("req 3: location = %v/%v", c.Working, c.Locality)
	}
	// (4) fragmentation linearization that covers NSM and DSM.
	if c.Linearization != taxonomy.FatVariable {
		t.Errorf("req 4: linearization = %v", c.Linearization)
	}
	// (5) built-in multi layout handling.
	if c.Handling != taxonomy.MultiLayoutBuiltIn {
		t.Errorf("req 5: handling = %v", c.Handling)
	}
	// (6) fragment scheme supports delegation.
	if c.Scheme != taxonomy.SchemeDelegation {
		t.Errorf("req 6: scheme = %v", c.Scheme)
	}
	// Workload and processor targets.
	if c.Workloads != taxonomy.HTAP || c.Processors != taxonomy.CPUAndGPU {
		t.Errorf("targets = %v/%v", c.Workloads, c.Processors)
	}
}

// TestConformanceCore runs the same behaviour suite the ten surveyed
// engines pass.
func TestConformanceCore(t *testing.T) {
	const n = 700
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 2, DevicePlacement: true}, n)
	defer tbl.Free()

	sum, err := sumOf(tbl, workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-workload.ExpectedItemPriceSum(n)) > 1e-6 {
		t.Fatalf("sum = %v", sum)
	}
	if err := tbl.Update(3, workload.ItemPriceCol, schema.FloatValue(1000)); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	positions := workload.PositionList(r, 150, n)
	recs, err := tbl.Materialize(positions)
	if err != nil {
		t.Fatal(err)
	}
	for i, pos := range positions {
		want := workload.Item(pos)
		if pos == 3 {
			want[workload.ItemPriceCol] = schema.FloatValue(1000)
		}
		if !recs[i].Equal(want) {
			t.Fatalf("materialized[%d] = %v, want %v", i, recs[i], want)
		}
	}
	if _, err := tbl.Materialize([]uint64{n}); err == nil {
		t.Fatal("out-of-range materialize accepted")
	}
	if _, err := tbl.Insert(schema.Record{schema.IntValue(1)}); err == nil {
		t.Fatal("short record accepted")
	}
	if err := tbl.Update(0, 99, schema.IntValue(1)); err == nil {
		t.Fatal("bad column accepted")
	}
	if _, err := sumOf(tbl, 0); err == nil {
		t.Fatal("sum over int column accepted")
	}
}

// Property: for any interleaving of inserts, updates and freezes, the sum
// equals a model map's sum and every record reads back correctly.
func TestQuickHTAPEquivalence(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		env := engine.NewEnv()
		e := New(env, Options{ChunkRows: 32, HotChunks: 1, DevicePlacement: seed%2 == 0})
		tbl, err := e.Create("item", workload.ItemSchema())
		if err != nil {
			return false
		}
		ct := tbl.(*Table)
		defer ct.Free()

		model := map[uint64]float64{}
		var rows uint64
		ops := int(opsRaw)%300 + 50
		for i := 0; i < ops; i++ {
			switch {
			case rows == 0 || r.Float64() < 0.5:
				rec := workload.Item(rows)
				if _, err := ct.Insert(rec); err != nil {
					return false
				}
				model[rows] = workload.ItemPrice(rows)
				rows++
			case r.Float64() < 0.8:
				row := uint64(r.Int63n(int64(rows)))
				val := math.Floor(r.Float64() * 100)
				if err := ct.Update(row, workload.ItemPriceCol, schema.FloatValue(val)); err != nil {
					return false
				}
				model[row] = val
			default:
				if _, err := ct.Adapt(); err != nil {
					return false
				}
				if r.Float64() < 0.5 {
					if err := ct.Merge(); err != nil {
						return false
					}
				}
			}
		}
		var want float64
		for _, v := range model {
			want += v
		}
		got, err := sumOf(ct, workload.ItemPriceCol)
		if err != nil || math.Abs(got-want) > 1e-6 {
			return false
		}
		probe := uint64(r.Int63n(int64(rows)))
		rec, err := ct.Get(probe)
		return err == nil && rec[workload.ItemPriceCol].F == model[probe]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPrimaryKeyQ1(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 1}, 500)
	defer tbl.Free()
	// Q1: SELECT * FROM item WHERE pk = c — resolved via the hash index.
	rec, err := tbl.GetByPK(321)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Equal(workload.Item(321)) {
		t.Fatalf("GetByPK = %v", rec)
	}
	if _, err := tbl.GetByPK(99999); !errors.Is(err, engine.ErrNoSuchRow) {
		t.Fatalf("missing pk err = %v", err)
	}
	row, ok := tbl.LookupPK(42)
	if !ok || row != 42 {
		t.Fatalf("LookupPK = %d, %v", row, ok)
	}
	// Q1 sees committed updates.
	if err := tbl.Update(321, workload.ItemPriceCol, schema.FloatValue(7)); err != nil {
		t.Fatal(err)
	}
	rec, err = tbl.GetByPK(321)
	if err != nil || rec[workload.ItemPriceCol].F != 7 {
		t.Fatalf("post-update GetByPK = %v, %v", rec, err)
	}
}

func TestPrimaryKeyImmutableAndUnique(t *testing.T) {
	_, tbl := newTable(t, Options{}, 100)
	defer tbl.Free()
	if err := tbl.Update(5, 0, schema.IntValue(9)); !errors.Is(err, ErrImmutablePK) {
		t.Fatalf("pk update err = %v", err)
	}
	x := tbl.Begin()
	defer x.Abort()
	if err := x.Update(5, 0, schema.IntValue(9)); !errors.Is(err, ErrImmutablePK) {
		t.Fatalf("txn pk update err = %v", err)
	}
	if _, err := tbl.Insert(workload.Item(5)); !errors.Is(err, index.ErrDuplicate) {
		t.Fatalf("duplicate pk err = %v", err)
	}
}

func TestTxnReadByPKSnapshot(t *testing.T) {
	_, tbl := newTable(t, Options{}, 100)
	defer tbl.Free()
	x := tbl.Begin()
	defer x.Abort()
	// A read by key is LookupPK then Read: keys are immutable once
	// indexed, so the resolved row holds at every snapshot.
	row, ok := tbl.LookupPK(10)
	if !ok {
		t.Fatal("pk 10 not indexed")
	}
	before, err := x.Read(row)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(10, workload.ItemPriceCol, schema.FloatValue(1)); err != nil {
		t.Fatal(err)
	}
	after, err := x.Read(row)
	if err != nil || !before.Equal(after) {
		t.Fatalf("snapshot moved under pk read: %v → %v (%v)", before, after, err)
	}
}

func TestNoPKIndexForNonIntKey(t *testing.T) {
	env := engine.NewEnv()
	e := New(env, Options{})
	s := schema.MustNew(schema.CharAttr("name", 8), schema.Float64Attr("v"))
	tbl, err := e.Create("t", s)
	if err != nil {
		t.Fatal(err)
	}
	ct := tbl.(*Table)
	defer ct.Free()
	if ct.pk != nil {
		t.Fatal("char key indexed")
	}
	if _, err := ct.GetByPK(1); !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := ct.LookupPK(1); ok {
		t.Fatal("LookupPK on unindexed table")
	}
	// Updates to attribute 0 are allowed without an index.
	if _, err := ct.Insert(schema.Record{schema.CharValue("a"), schema.FloatValue(1)}); err != nil {
		t.Fatal(err)
	}
	if err := ct.Update(0, 0, schema.CharValue("b")); err != nil {
		t.Fatal(err)
	}
}

func TestGroupSumFloat64(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 1}, 700)
	defer tbl.Free()
	// GROUP BY i_im_id%... : item im_id = i%100000 so distinct at 700
	// rows; group by warehouse-ish col 1 (int32, i%100000 → distinct).
	// Use col 1 (i_im_id, int32): values are i%100000, distinct per row
	// at 700 rows — instead group by a small-cardinality derived table.
	groups, err := groupSum(tbl, 1, workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 700 {
		t.Fatalf("groups = %d, want 700 distinct", len(groups))
	}
	var total float64
	var count int64
	for _, g := range groups {
		total += g.Sum
		count += g.Count
	}
	if count != 700 || math.Abs(total-workload.ExpectedItemPriceSum(700)) > 1e-6 {
		t.Fatalf("totals = %d, %v", count, total)
	}

	// Updates move rows between groups under MVCC patching: change a
	// row's price.
	if err := tbl.Update(5, workload.ItemPriceCol, schema.FloatValue(500)); err != nil {
		t.Fatal(err)
	}
	groups, err = groupSum(tbl, 1, workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, g := range groups {
		total += g.Sum
	}
	want := workload.ExpectedItemPriceSum(700) - workload.ItemPrice(5) + 500
	if math.Abs(total-want) > 1e-6 {
		t.Fatalf("post-update total = %v, want %v", total, want)
	}

	// A key update moves the row into a (possibly new) group.
	if err := tbl.Update(5, 1, schema.Int32Value(999_999)); err != nil {
		t.Fatal(err)
	}
	groups, err = groupSum(tbl, 1, workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range groups {
		if g.Key == 999_999 {
			found = true
			if g.Count != 1 || math.Abs(g.Sum-500) > 1e-6 {
				t.Fatalf("moved group = %+v", g)
			}
		}
	}
	if !found {
		t.Fatal("key update did not create the new group")
	}

	// Validation.
	if _, err := groupSum(tbl, 2, workload.ItemPriceCol); err == nil {
		t.Fatal("char key accepted")
	}
	if _, err := groupSum(tbl, 1, 0); err == nil {
		t.Fatal("int aggregate accepted")
	}
	if _, err := groupSum(tbl, 99, 4); err == nil {
		t.Fatal("bad col accepted")
	}
}

// TestColdCompressedScan covers Options.Compress: freezing seals
// side-car compressed images on cold singleton numeric columns an
// encoding shrinks, queries over cold chunks execute in the compressed
// domain with unchanged answers, MVCC updates overlay correctly (the raw
// fragments stay authoritative), and a version-store merge re-seals the
// images it made stale. The prices take 50 distinct values, so every
// 128-row chunk's price column is dictionary-coded.
func TestColdCompressedScan(t *testing.T) {
	price := func(i uint64) float64 { return float64(i%50)/2 + 1 }
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 1, Compress: true}, 0)
	defer tbl.Free()
	for i := uint64(0); i < 600; i++ {
		rec := workload.Item(i)
		rec[workload.ItemPriceCol] = schema.FloatValue(price(i))
		if _, err := tbl.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	dictImages := func() int {
		n := 0
		for _, c := range tbl.chunks {
			if c.state == cold && len(c.comp) > workload.ItemPriceCol && c.comp[workload.ItemPriceCol] != nil &&
				c.comp[workload.ItemPriceCol].Encoding() == compress.Dict {
				n++
			}
		}
		return n
	}
	if dictImages() == 0 {
		t.Fatal("freezing sealed no dictionary price images")
	}
	var wantTotal float64
	for i := uint64(0); i < 600; i++ {
		wantTotal += price(i)
	}
	sum, err := sumOf(tbl, workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-wantTotal) > 1e-6 {
		t.Fatalf("compressed-domain sum = %v, want %v", sum, wantTotal)
	}
	p := exec.Between(0.0, 10.0)
	var wantSum float64
	var wantN int64
	for i := uint64(0); i < 600; i++ {
		if v := price(i); p.Match(v) {
			wantSum += v
			wantN++
		}
	}
	got, cnt, err := sumWhereOf(tbl, workload.ItemPriceCol, p)
	if err != nil {
		t.Fatal(err)
	}
	if cnt != wantN || math.Abs(got-wantSum) > 1e-6*math.Max(1, wantSum) {
		t.Fatalf("compressed predicate scan = (%v, %d), want (%v, %d)", got, cnt, wantSum, wantN)
	}
	// An MVCC update on a frozen row overlays the compressed base scan.
	if err := tbl.Update(5, workload.ItemPriceCol, schema.FloatValue(777)); err != nil {
		t.Fatal(err)
	}
	sum, err = sumOf(tbl, workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	want := wantTotal - price(5) + 777
	if math.Abs(sum-want) > 1e-6 {
		t.Fatalf("post-update sum = %v, want %v", sum, want)
	}
	// Merge folds the version into the base fragment and re-seals the
	// touched chunk's images: the fresh image must carry the new value.
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if dictImages() == 0 {
		t.Fatal("merge dropped all compressed images without re-sealing")
	}
	for _, c := range tbl.chunks {
		if c.state != cold || !c.rows.Contains(5) {
			continue
		}
		cc := c.comp[workload.ItemPriceCol]
		if cc == nil {
			t.Fatal("touched chunk lost its compressed image after merge")
		}
		buf := make([]byte, cc.Len()*8)
		if _, err := cc.DecompressInto(buf); err != nil {
			t.Fatal(err)
		}
		local := int(5 - c.rows.Begin)
		if v := math.Float64frombits(binary.LittleEndian.Uint64(buf[local*8:])); v != 777 {
			t.Fatalf("re-sealed image holds %v at row 5, want 777", v)
		}
	}
	sum, err = sumOf(tbl, workload.ItemPriceCol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-want) > 1e-6 {
		t.Fatalf("post-merge sum = %v, want %v", sum, want)
	}
}

// A seal keeps an image only where an encoding is smaller than the
// column. Over four 8-byte columns — sequential ids (FOR), a price in
// runs of 64 (RLE), a price of 50 values (Dict) and a random price
// (Raw) — each cold chunk keeps the first three and no copy of the
// fourth; a chunk whose every compressible column is Raw keeps no
// side-car list at all.
func TestSealKeepsOnlyShrinkingImages(t *testing.T) {
	s := schema.MustNew(schema.Int64Attr("id"), schema.Float64Attr("runs"), schema.Float64Attr("few"), schema.Float64Attr("noise"))
	e := New(engine.NewEnv(), Options{ChunkRows: 256, HotChunks: 1, Compress: true})
	et, err := e.Create("t", s)
	if err != nil {
		t.Fatal(err)
	}
	tbl := et.(*Table)
	defer tbl.Free()
	r := rand.New(rand.NewSource(1))
	for i := int64(0); i < 3*256; i++ {
		rec := schema.Record{schema.IntValue(i), schema.FloatValue(float64(i / 64)), schema.FloatValue(float64(i % 50)), schema.FloatValue(r.Float64())}
		if _, err := tbl.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	want := []compress.Encoding{compress.FOR, compress.RLE, compress.Dict}
	frozen := 0
	for _, c := range tbl.chunks {
		if c.state != cold {
			continue
		}
		frozen++
		for col, enc := range want {
			if c.comp[col] == nil || c.comp[col].Encoding() != enc {
				t.Fatalf("chunk %v col %d: image %v, want %v", c.rows, col, c.comp[col], enc)
			}
		}
		if c.comp[3] != nil {
			t.Fatalf("chunk %v keeps a %v image of the random column", c.rows, c.comp[3].Encoding())
		}
	}
	if frozen != 2 {
		t.Fatalf("%d cold chunks, want 2", frozen)
	}
	price := schema.MustNew(schema.Float64Attr("price"))
	pt, err := e.Create("prices", price)
	if err != nil {
		t.Fatal(err)
	}
	defer pt.Free()
	for i := 0; i < 3*256; i++ {
		if _, err := pt.Insert(schema.Record{schema.FloatValue(r.Float64())}); err != nil {
			t.Fatal(err)
		}
	}
	if c := pt.(*Table).chunks[0]; c.state != cold || c.comp != nil {
		t.Fatalf("a chunk of one Raw column: state %d, side-cars %v, want cold and none", c.state, c.comp)
	}
}

// A re-seal encodes only the scheme each column keeps: sealing a cold
// 1024-row item chunk allocates the comp slice plus a Column and its
// payload for i_id, and nothing for the price column, which no scheme
// shrinks. Encoding every scheme in full and keeping the smallest cost
// ~640 objects and 16 times the bytes; building the price column's Raw
// image only to drop it cost two objects and 8 KiB more.
func TestSealAllocatesOnlyTheWinners(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 1024, HotChunks: 1, Compress: true}, 2048)
	defer tbl.Free()
	c := tbl.chunks[0]
	if c.state != cold {
		t.Fatal("first chunk did not freeze")
	}
	cols := 0
	for col := 0; col < tbl.s.Arity(); col++ {
		if compressible(tbl.s.Attr(col)) {
			cols++
		}
	}
	allocs := testing.AllocsPerRun(20, func() { tbl.sealChunkCompression(c) })
	t.Logf("%.1f objects per seal of %d compressible columns", allocs, cols)
	if limit := float64(2*(cols-1) + 1); allocs > limit {
		t.Fatalf("sealing %d compressible columns: %.1f allocations, gate %.0f", cols, allocs, limit)
	}
	if c.comp[workload.ItemIDCol] == nil || c.comp[workload.ItemPriceCol] != nil {
		t.Fatal("seal kept the wrong images: want the id's, and no copy of the Raw price column")
	}
}

// updateAllocs is what one single-field Update of a merged table
// allocates: the record Write keeps, the one-entry write set and the
// version it installs as. The read lands in a stack buffer and the
// transaction stays on the caller's stack. It read 6 while the update
// materialized the record, cloned it into a per-transaction map and the
// store held the Tx in its active set.
const updateAllocs = 3

func TestUpdateAllocs(t *testing.T) {
	_, tbl := newTable(t, Options{}, 2048)
	defer tbl.Free()
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	price := 1.0
	got := testing.AllocsPerRun(100, func() {
		price++
		if err := tbl.Update(7, workload.ItemPriceCol, schema.FloatValue(price)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Update: %.1f allocs/op", got)
	if got > updateAllocs {
		t.Fatalf("Update allocates %.1f objects, gate %d", got, updateAllocs)
	}
}

// The group table's typed arm reads a dense run in place only when it
// starts aligned to its element size (agg's view), so the scan's gain
// rests on the cold layout: every cold chunk's piece of i_price is a
// dense 8-aligned run, and of i_im_id, the key the benchmark groups by,
// a dense 4-aligned one. A layout change that broke this would keep
// every answer and silently drop the scan to the byte loop.
func TestColdDSMClipsAreAligned(t *testing.T) {
	_, tbl := newTable(t, Options{ChunkRows: 128, HotChunks: 1}, 1000)
	defer tbl.Free()
	reader := tbl.deltas.Begin()
	defer reader.Abort()
	src := tbl.source(reader)
	defer src.release()
	plan := exec.Plan{Op: exec.KindGroupSumWhere, KeyCol: 1, Col: workload.ItemPriceCol, Pred: exec.Between(1, 50)}
	keys, vals, err := src.Pieces(plan)
	if err != nil {
		t.Fatal(err)
	}
	frozen := 0
	for i, c := range tbl.chunks {
		if c.state != cold {
			continue
		}
		frozen++
		for _, p := range []exec.Piece{vals[i], keys[i]} {
			v := p.Vec
			if !v.Contiguous() || v.Len == 0 || uintptr(unsafe.Pointer(&v.Data[v.Base]))%uintptr(v.Size) != 0 {
				t.Fatalf("chunk %v: a %d-byte column clip at stride %d starts %d bytes past alignment",
					c.rows, v.Size, v.Stride, uintptr(unsafe.Pointer(&v.Data[v.Base]))%uintptr(v.Size))
			}
		}
	}
	if frozen == 0 {
		t.Fatal("no cold chunk")
	}
}
