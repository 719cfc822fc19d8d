package core

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/layout"
	"hybridstore/internal/obs"
	"hybridstore/internal/schema"
	"hybridstore/internal/stats"
	"hybridstore/internal/workload"
)

// perTupletRecast is the loop recast ran before it copied cells: every
// row of c decoded into a record and re-encoded into each fragment of
// groups, then sealed. It is the oracle the cell copy is held to.
func perTupletRecast(t *testing.T, tbl *Table, c *chunk, groups [][]int) []*layout.Fragment {
	t.Helper()
	frags, err := tbl.buildColdFragments(c.rows, groups)
	if err != nil {
		t.Fatal(err)
	}
	var rec schema.Record
	for i := 0; i < c.filled(); i++ {
		if rec, err = tbl.chunkRecordInto(c, i, rec); err != nil {
			t.Fatal(err)
		}
		for gi, f := range frags {
			vals := make([]schema.Value, 0, len(groups[gi]))
			for _, col := range groups[gi] {
				vals = append(vals, rec[col])
			}
			if err := f.AppendTuplet(vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, f := range frags {
		f.SealStats()
	}
	return frags
}

// sameFragments fails unless got and want hold the same groups, bytes,
// lengths and zone maps, bit for bit.
func sameFragments(t *testing.T, what string, c *chunk, groups [][]int, want []*layout.Fragment) {
	t.Helper()
	if !slices.EqualFunc(c.groups, groups, slices.Equal) || len(c.frags) != len(want) {
		t.Fatalf("%s: groups %v, want %v", what, c.groups, groups)
	}
	for gi, f := range c.frags {
		w := want[gi]
		if f.Lin() != w.Lin() || f.Len() != w.Len() || !bytes.Equal(f.Raw(), w.Raw()) {
			t.Fatalf("%s: fragment %v: %s len %d\n%x\nper-tuplet loop: %s len %d\n%x",
				what, groups[gi], f.Lin(), f.Len(), f.Raw(), w.Lin(), w.Len(), w.Raw())
		}
		for _, col := range groups[gi] {
			if zoneBits(f.Stats(col)) != zoneBits(w.Stats(col)) {
				t.Fatalf("%s: column %d zone %+v, per-tuplet loop %+v", what, col, f.Stats(col).Snapshot(), w.Stats(col).Snapshot())
			}
		}
	}
}

// zoneBits is a zone map's state with its bounds as bits (-0 and NaN
// compare as themselves); the zero value for a column without one.
func zoneBits(z *stats.Zone) [4]uint64 {
	if z == nil {
		return [4]uint64{}
	}
	s := z.Snapshot()
	inv := uint64(0)
	if s.Invalid {
		inv = 1
	}
	return [4]uint64{uint64(s.Count), math.Float64bits(s.Min), math.Float64bits(s.Max), inv}
}

// A freeze (NSM into Direct and DSM fragments) and an Adapt regroup
// (cold fragments into new ones) leave every cell's bytes and every
// zone map exactly as the per-tuplet loop did, over the values a decode
// could disturb: -0, ±Inf, a NaN with a payload, the int32 sign bit, a
// full-width and a short CHAR. Each pass seals each new fragment once.
func TestRecastKeepsCellBytes(t *testing.T) {
	s := schema.MustNew(schema.Int64Attr("k"), schema.Int32Attr("j"), schema.CharAttr("name", 6),
		schema.CharAttr("tag", 2), schema.Float64Attr("price"), schema.Float64Attr("w"))
	e := New(engine.NewEnv(), Options{ChunkRows: 8, HotChunks: 1, Compress: true})
	et, err := e.Create("cells", s)
	if err != nil {
		t.Fatal(err)
	}
	tbl := et.(*Table)
	defer tbl.Free()
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	prices := []float64{math.Copysign(0, -1), math.Inf(1), 1.5, math.Inf(-1), 0, -2.25}
	ws := []float64{nan, math.Copysign(0, -1), 3, math.MaxFloat64}
	names := []string{"abcdef", "a", "", "xyz"}
	row := func(i int) schema.Record {
		name := names[i%len(names)]
		return schema.Record{
			schema.IntValue(int64(i)*-7919 - 1), schema.Int32Value(math.MinInt32 + int32(i)*(1<<28)),
			schema.CharValue(name), schema.CharValue(name[:min(2, len(name))]),
			schema.FloatValue(prices[i%len(prices)]), schema.FloatValue(ws[i%len(ws)]),
		}
	}
	// Columns 1 and 2 are read together, so the freeze fuses them into a
	// DSM fragment beside Direct ones.
	for i := 0; i < 50; i++ {
		tbl.Observe(workload.Op{Kind: workload.PointRead, Cols: []int{1, 2}})
	}
	for i := 0; i < 8; i++ {
		if _, err := tbl.Insert(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	c := tbl.chunks[0]
	groups := tbl.mon.SuggestGroups(affinity)
	want := perTupletRecast(t, tbl, c, groups)
	defer freeAll(want)
	seals := obs.TakeSnapshot().Counter("layout.seals")
	if _, err := tbl.Insert(row(8)); err != nil { // opens chunk 1, freezes chunk 0
		t.Fatal(err)
	}
	if c.state != cold {
		t.Fatal("chunk 0 did not freeze")
	}
	if d := obs.TakeSnapshot().Counter("layout.seals") - seals; d != int64(len(groups)) {
		t.Fatalf("freeze sealed %d times, want %d", d, len(groups))
	}
	sameFragments(t, "freeze", c, groups, want)

	// The workload turns: 0, 3 and 5 are read together and 1, 2 are not,
	// so Adapt regroups the cold chunk's Direct and DSM fragments.
	for i := 0; i < 200; i++ {
		tbl.Observe(workload.Op{Kind: workload.PointRead, Cols: []int{0, 3, 5}})
	}
	advice := tbl.mon.SuggestGroups(affinity)
	if slices.EqualFunc(advice, groups, slices.Equal) {
		t.Fatalf("advice %v did not move from %v", advice, groups)
	}
	want2 := perTupletRecast(t, tbl, c, advice)
	defer freeAll(want2)
	seals = obs.TakeSnapshot().Counter("layout.seals")
	if changed, err := tbl.Adapt(); err != nil || !changed {
		t.Fatalf("Adapt = %v, %v", changed, err)
	}
	if d := obs.TakeSnapshot().Counter("layout.seals") - seals; d != int64(len(advice)) {
		t.Fatalf("regroup sealed %d times, want %d", d, len(advice))
	}
	sameFragments(t, "regroup", c, advice, want2)
	t.Logf("freeze groups %v, regroup %v", groups, advice)
}

// loadRecords are n records of the bench fixture's shape: item rows with
// the group key i%64 in patchKeyCol.
func loadRecords(n int) []schema.Record {
	recs := make([]schema.Record, n)
	for i := range recs {
		recs[i] = workload.Item(uint64(i))
		recs[i][patchKeyCol] = schema.Int32Value(int32(i % 64))
	}
	return recs
}

// newLoadTable is an empty item table under the bench fixture's store
// options: DeviceCache, Compress and a 4 MiB result cache.
func newLoadTable(t testing.TB) *Table {
	t.Helper()
	et, err := New(engine.NewEnv(), Options{DeviceCache: true, Compress: true, ResultCacheBytes: 4 << 20}).Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	return et.(*Table)
}

// An insert into a warm hot chunk allocates one object: the epoch stamp
// touch publishes. It does not copy the record.
func TestInsertAllocs(t *testing.T) {
	tbl := newLoadTable(t)
	defer tbl.Free()
	recs := loadRecords(1000)
	next := 0
	insert := func() {
		if _, err := tbl.Insert(recs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 100 {
		insert()
	}
	if got := testing.AllocsPerRun(500, insert); got > 1 {
		t.Fatalf("Insert allocates %v objects, want at most 1", got)
	}
}

// BenchmarkLoad is the bench fixture's load: 131 072 item rows into a
// table under the fixture's store options, every 1 024 rows a chunk and
// every chunk past the second a freeze. Insert times the load; Regroup
// times one Adapt that regroups every cold chunk, the exclusive hold a
// shift of the workload costs. Both report per row.
func BenchmarkLoad(b *testing.B) {
	const rows = 131072
	recs := loadRecords(rows)
	perRow := func(b *testing.B, run func()) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		n := float64(b.N) * rows
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/row")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/row")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/row")
	}
	load := func(b *testing.B) *Table {
		tbl := newLoadTable(b)
		for _, rec := range recs {
			if _, err := tbl.Insert(rec); err != nil {
				b.Fatal(err)
			}
		}
		return tbl
	}
	b.Run("Insert", func(b *testing.B) {
		perRow(b, func() { load(b).Free() })
	})
	b.Run("Regroup", func(b *testing.B) {
		tbl := load(b)
		defer tbl.Free()
		fused := false
		perRow(b, func() {
			// Alternate co-access on 0-2 (fuse them) with scans alone
			// (split them), so every Adapt regroups every cold chunk.
			op := workload.Op{Kind: workload.ColumnScan, Cols: []int{workload.ItemPriceCol}}
			if fused = !fused; fused {
				op = workload.Op{Kind: workload.PointRead, Cols: []int{0, 1, 2}}
			}
			tbl.Observe(op)
			if changed, err := tbl.Adapt(); err != nil || !changed {
				b.Fatalf("Adapt = %v, %v", changed, err)
			}
		})
	})
}
