package core

import (
	"math"
	"math/rand"
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// budgetOf is the settlement budget of tbl as it stands.
func budgetOf(tbl *Table) int {
	return int(max(tbl.Rows()/settleRows, tbl.eng.opts.ChunkRows))
}

// On the bench fixture's table with no snapshot open, the engine keeps
// its own tail under the budget: after every acknowledged update, lone
// or in a transaction of three, the live versions are below it, and 3.5
// × budget versions ran exactly three settlements.
func TestSettlementBoundsTheTail(t *testing.T) {
	tbl := benchTable(t, 131072, 64, 4<<20)
	defer tbl.Free()
	budget := budgetOf(tbl)
	if budget != 131072/12 {
		t.Fatalf("budget %d on the bench fixture, want rows/12 = %d", budget, 131072/12)
	}
	r := rand.New(rand.NewSource(1))
	settled := mSettlements.Load()
	for v := 0; v < 7*budget/2; {
		if v%7 == 0 {
			x := tbl.Begin()
			for k := 0; k < 3; k++ {
				if err := x.Update(uint64(r.Int63n(131072)), workload.ItemPriceCol, schema.FloatValue(float64(r.Intn(10000))/100)); err != nil {
					t.Fatal(err)
				}
			}
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
			v += 3
		} else {
			if err := tbl.Update(uint64(r.Int63n(131072)), workload.ItemPriceCol, schema.FloatValue(float64(r.Intn(10000))/100)); err != nil {
				t.Fatal(err)
			}
			v++
		}
		if n := tbl.PendingVersions(); n >= budget {
			t.Fatalf("after %d versions: %d pending, budget %d", v, n, budget)
		}
	}
	if got := mSettlements.Load() - settled; got != 3 {
		t.Fatalf("%d versions under a budget of %d ran %d settlements, want 3", 7*budget/2, budget, got)
	}
}

// A reader held open pins every version committed after it, and a
// settlement leaves those behind: the trigger re-arms a budget above
// them, so 3 × budget updates run at most three settlements rather than
// one per commit; once the reader goes, the next settlement takes them.
func TestHeldReaderBoundsSettlements(t *testing.T) {
	_, tbl := newTable(t, Options{}, 2048)
	defer tbl.Free()
	budget := budgetOf(tbl)
	held := tbl.Begin()
	settled := mSettlements.Load()
	for i := 0; i < 3*budget; i++ {
		if err := tbl.Update(uint64(i%2048), workload.ItemPriceCol, schema.FloatValue(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := mSettlements.Load() - settled; got > 3 {
		t.Fatalf("%d updates behind a held reader ran %d settlements, want at most 3", 3*budget, got)
	}
	if n := tbl.PendingVersions(); n != 3*budget {
		t.Fatalf("%d versions pending behind the held reader, want all %d", n, 3*budget)
	}
	held.Abort()
	for i := 0; tbl.PendingVersions() >= 3*budget; i++ {
		if i > budget {
			t.Fatalf("%d updates after the reader went settled nothing", i)
		}
		if err := tbl.Update(uint64(i), workload.ItemPriceCol, schema.FloatValue(0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if n := tbl.PendingVersions(); n != 0 {
		t.Fatalf("the settlement after the reader went left %d versions", n)
	}
}

// A settlement keeps every cached point read but those of the rows it
// settled: a get of an untouched row in a settled chunk is still a hit,
// and a settled row is never served stale — where the version's bits
// differ from the base's only as -0 from +0, or as one NaN payload from
// another, too. The settlements here are the commit path's.
func TestSettlementKeepsCachedPoints(t *testing.T) {
	_, tbl := newTable(t, cacheOpts(), 2048)
	defer tbl.Free()
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	budget := budgetOf(tbl)
	filler := 0 // updates of rows 1024 on, other chunks than the rows read
	settle := func() {
		t.Helper()
		for n, before := 0, mSettlements.Load(); mSettlements.Load() == before; n++ {
			if n > budget {
				t.Fatal("no settlement within a budget of updates")
			}
			filler++
			if err := tbl.Update(1024+uint64(filler%1024), workload.ItemPriceCol, schema.FloatValue(float64(filler))); err != nil {
				t.Fatal(err)
			}
		}
	}
	const untouched, settled = 3, 5 // one chunk
	steps := []float64{0, math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002), 2.5}
	for _, v := range steps {
		if err := tbl.Update(settled, workload.ItemPriceCol, schema.FloatValue(v)); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Get(untouched); err != nil { // cached before the settlement
			t.Fatal(err)
		}
		settle()
		hits, _, _, _ := cacheStats(t, tbl)
		if _, err := tbl.Get(untouched); err != nil {
			t.Fatal(err)
		}
		if now, _, _, _ := cacheStats(t, tbl); now != hits+1 {
			t.Fatalf("after settling %v: the untouched row's get missed", v)
		}
		for k := 0; k < 2; k++ { // a miss that publishes, then a hit
			rec, err := tbl.Get(settled)
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(rec[workload.ItemPriceCol].F); got != math.Float64bits(v) {
				t.Fatalf("settled row read %#x, want %#x (%v)", got, math.Float64bits(v), v)
			}
		}
	}
}

// After a settlement of price versions only, the next grouped scan ships
// the rewritten price fragments and nothing else: the key column's
// device images and i_id's compressed images stay, since no cell of
// theirs changed.
func TestPriceSettlementShipsOnlyPrice(t *testing.T) {
	tbl := benchTable(t, 131072, 64, 0)
	defer tbl.Free()
	rows := []uint64{5, 1030, 2060, 2061, 40000} // four cold chunks
	chunks := map[*chunk]bool{}
	ids := map[*chunk]any{}
	for _, row := range rows {
		c, err := tbl.chunkFor(row)
		if err != nil {
			t.Fatal(err)
		}
		if c.state != cold {
			t.Fatalf("row %d is not in a cold chunk", row)
		}
		chunks[c] = true
		ids[c] = c.comp[workload.ItemIDCol]
		if err := tbl.Update(row, workload.ItemPriceCol, schema.FloatValue(float64(row)+0.25)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	var want int64
	for c := range chunks {
		if c.comp[workload.ItemIDCol] == nil || c.comp[workload.ItemIDCol] != ids[c] {
			t.Fatalf("chunk %v: i_id's compressed image was rebuilt", c.rows)
		}
		if c.comp[workload.ItemPriceCol] != nil {
			t.Fatalf("chunk %v keeps a price image; the price is incompressible on the fixture", c.rows)
		}
		want += int64(c.filled()) * 8
	}
	before := tbl.env.GPU.Stats().HostToDeviceBytes
	if _, err := groupSumWhereOf(tbl, patchKeyCol, workload.ItemPriceCol, exec.Pred{Op: exec.OpGT}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.env.GPU.Stats().HostToDeviceBytes - before; got != want {
		t.Fatalf("the grouped scan after a price settlement shipped %d bytes, want the %d chunks' prices, %d", got, len(chunks), want)
	}
}

// Sealing a chunk whose one compressible column no scheme shrinks
// builds no image at all: the chooser sizes the schemes and encodes
// nothing, where it used to copy the column into a Raw image and drop
// it.
func TestSealBuildsNoRawImage(t *testing.T) {
	e := New(engine.NewEnv(), Options{ChunkRows: 1024, HotChunks: 1, Compress: true})
	et, err := e.Create("prices", schema.MustNew(schema.Float64Attr("price")))
	if err != nil {
		t.Fatal(err)
	}
	tbl := et.(*Table)
	defer tbl.Free()
	for i := 0; i < 2048; i++ {
		if _, err := tbl.Insert(schema.Record{schema.FloatValue(workload.Item(uint64(i))[workload.ItemPriceCol].F)}); err != nil {
			t.Fatal(err)
		}
	}
	c := tbl.chunks[0]
	if c.state != cold {
		t.Fatal("first chunk did not freeze")
	}
	allocs, kib := scanCost(func() { tbl.sealChunkCompression(c) })
	if allocs != 0 || kib != 0 || c.comp != nil {
		t.Fatalf("sealing an incompressible price column: %.1f objects, %.2f KiB, side-cars %v; want none", allocs, kib, c.comp)
	}
}

// BenchmarkSettle is one settlement cycle on the bench fixture: 4 000
// price updates, a settlement, then the serving lanes' four fixed cuts
// as sum_where and group_sum_where, whose settled bases the settlement
// retired. -benchmem reports what a cycle allocates.
func BenchmarkSettle(b *testing.B) {
	tbl := benchTable(b, 131072, 64, 4<<20)
	defer tbl.Free()
	cuts := []exec.Pred{{Op: exec.OpLT, Hi: 30}, {Op: exec.OpGT, Lo: 50}, {Op: exec.OpBetween, Lo: 10, Hi: 60}, {Op: exec.OpBetween, Lo: 20, Hi: 80}}
	var plans []exec.Plan
	for _, op := range []exec.Kind{exec.KindSumWhere, exec.KindGroupSumWhere} {
		for _, pred := range cuts {
			plans = append(plans, exec.Plan{Op: op, Col: workload.ItemPriceCol, KeyCol: patchKeyCol, Pred: pred})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := uint64(0); i < 4000; i++ {
			if err := tbl.Update(i*31%131072, workload.ItemPriceCol, schema.FloatValue(float64((i+uint64(n))%97)+0.5)); err != nil {
				b.Fatal(err)
			}
		}
		if err := tbl.Merge(); err != nil {
			b.Fatal(err)
		}
		for _, p := range plans {
			if _, err := tbl.Scan(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}
