package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/rescache"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// The result-cache stamp is rebuilt only when the base state it describes
// moves: these tests hold the reuse to the answer a fresh build gives.

// stampShapes are the two column lists a scan stamps: its value column,
// and a key column with its value column.
var stampShapes = [][]int{{workload.ItemPriceCol}, {patchKeyCol, workload.ItemPriceCol}}

// stampPlans are a plan of each shape with a predicate.
var stampPlans = []exec.Plan{
	{Op: exec.KindSumWhere, Col: workload.ItemPriceCol, Pred: exec.Gt(30.0)},
	{Op: exec.KindGroupSumWhere, KeyCol: patchKeyCol, Col: workload.ItemPriceCol, Pred: exec.Between(10.0, 60.0)},
}

// twinTable builds a table like newTable's: the same schema, rows and
// options, minus the result cache — the reference a cached answer must
// equal bit for bit.
func twinTable(t *testing.T, opts Options, n uint64) *Table {
	t.Helper()
	opts.ResultCacheBytes = 0
	_, tbl := newTable(t, opts, n)
	return tbl
}

// Two stamps with nothing written in between are one stamp: the same
// backing array, built at its exact length. The two shapes keep a slot
// each, so interleaving them rebuilds neither; a different column on
// the same slot rebuilds, and answers for that column.
func TestStampReusedWhileUnchanged(t *testing.T) {
	_, tbl := newTable(t, cacheOpts(), 600)
	defer tbl.Free()
	firsts := make([]*rescache.FragVer, len(stampShapes))
	for i, cols := range stampShapes {
		s1, ok1 := tbl.VersionStamp(cols...)
		s2, ok2 := tbl.VersionStamp(cols...)
		if !ok1 || !ok2 || !s1.Equal(s2) {
			t.Fatalf("cols %v: stamps %v/%v not equal on an untouched table", cols, ok1, ok2)
		}
		if len(s1.Frags) == 0 || &s1.Frags[0] != &s2.Frags[0] {
			t.Errorf("cols %v: two stamps with nothing written between do not share one backing array", cols)
		}
		if cap(s1.Frags) != len(s1.Frags) {
			t.Errorf("cols %v: stamp of %d entries built with capacity %d", cols, len(s1.Frags), cap(s1.Frags))
		}
		firsts[i] = &s1.Frags[0]
	}
	for i, cols := range stampShapes {
		if st, _ := tbl.VersionStamp(cols...); &st.Frags[0] != firsts[i] {
			t.Errorf("cols %v: stamping the other shape made this one rebuild", cols)
		}
	}
	other, ok := tbl.VersionStamp(0)
	if !ok {
		t.Fatal("column 0 not stampable")
	}
	price, _ := tbl.VersionStamp(workload.ItemPriceCol)
	if other.Equal(price) {
		t.Error("column 0's stamp equals the price column's: the slot answered for the wrong column")
	}
	if &other.Frags[0] == &price.Frags[0] {
		t.Error("a rebuilt stamp shares the previous column's array")
	}
	if _, ok := tbl.VersionStamp(); ok {
		t.Error("an empty column list is stampable")
	}
}

// Every base mutation moves the stamp of both shapes, and an answer
// cached before it is counted stale and recomputed — equal, bit for bit,
// to an uncached twin that saw the same history.
func TestStampChangesOnEveryBaseMutation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		rows uint64
		// prep runs on both tables before the baseline, mutate after it.
		prep, mutate func(t *testing.T, tbl *Table)
	}{
		{name: "update then merge", opts: cacheOpts(), rows: 600, mutate: func(t *testing.T, tbl *Table) {
			if err := tbl.Update(3, workload.ItemPriceCol, schema.FloatValue(55.5)); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Merge(); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "insert that grows rows", opts: cacheOpts(), rows: 600, mutate: func(t *testing.T, tbl *Table) {
			if _, err := tbl.Insert(workload.Item(600)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "insert that opens a chunk", opts: Options{ChunkRows: 128, HotChunks: 100, ResultCacheBytes: 1 << 20}, rows: 640,
			mutate: func(t *testing.T, tbl *Table) {
				if _, err := tbl.Insert(workload.Item(640)); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "insert that freezes a chunk", opts: Options{ChunkRows: 128, HotChunks: 1, ResultCacheBytes: 1 << 20}, rows: 640,
			mutate: func(t *testing.T, tbl *Table) {
				before := tbl.Freezes()
				if _, err := tbl.Insert(workload.Item(640)); err != nil {
					t.Fatal(err)
				}
				if tbl.Freezes() != before+1 {
					t.Fatal("the insert froze nothing")
				}
			}},
		{name: "adapt regroup", opts: Options{ChunkRows: 128, HotChunks: 1, ResultCacheBytes: 1 << 20}, rows: 600,
			mutate: func(t *testing.T, tbl *Table) {
				for i := 0; i < 200; i++ {
					tbl.Observe(workload.Op{Kind: workload.PointRead, Cols: []int{0, 1, 2}})
				}
				if changed, err := tbl.Adapt(); err != nil || !changed {
					t.Fatalf("Adapt: changed %v, %v", changed, err)
				}
			}},
		{name: "place column", opts: cacheOpts(), rows: 600, mutate: func(t *testing.T, tbl *Table) {
			if err := tbl.PlaceColumn(workload.ItemPriceCol); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "evict column", opts: cacheOpts(), rows: 600,
			prep: func(t *testing.T, tbl *Table) {
				if err := tbl.PlaceColumn(workload.ItemPriceCol); err != nil {
					t.Fatal(err)
				}
			},
			mutate: func(t *testing.T, tbl *Table) {
				if err := tbl.EvictColumn(workload.ItemPriceCol); err != nil {
					t.Fatal(err)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, tbl := newTable(t, c.opts, c.rows)
			defer tbl.Free()
			twin := twinTable(t, c.opts, c.rows)
			defer twin.Free()
			both := func(fn func(*testing.T, *Table)) {
				if fn != nil {
					fn(t, tbl)
					fn(t, twin)
				}
			}
			// Both tables answer the same plans in the same order, so their
			// monitors — which Adapt reads — see the same workload.
			answer := func(p exec.Plan) (got, want exec.Result) {
				t.Helper()
				got, err := tbl.Scan(p)
				if err != nil {
					t.Fatal(err)
				}
				if want, err = twin.Scan(p); err != nil {
					t.Fatal(err)
				}
				return got, want
			}
			both(c.prep)
			stamps := make(map[int]rescache.Stamp)
			for _, p := range stampPlans {
				answer(p)
				answer(p) // a hit: the stamp was reused
			}
			for _, cols := range stampShapes {
				st, ok := tbl.VersionStamp(cols...)
				if !ok {
					t.Fatalf("cols %v not stampable before the mutation", cols)
				}
				stamps[len(cols)] = st
			}
			hits0, _, stale0, _ := cacheStats(t, tbl)
			both(c.mutate)
			for _, cols := range stampShapes {
				st, ok := tbl.VersionStamp(cols...)
				if !ok {
					t.Fatalf("cols %v not stampable after the mutation", cols)
				}
				if st.Equal(stamps[len(cols)]) {
					t.Errorf("cols %v: stamp unchanged by the mutation", cols)
				}
			}
			for _, p := range stampPlans {
				if got, want := answer(p); !sameResult(got, want) {
					t.Errorf("%v after the mutation: cached table answers %+v, uncached twin %+v", p.Op, got, want)
				}
			}
			hits1, _, stale1, _ := cacheStats(t, tbl)
			if hits1 != hits0 || stale1 != stale0+int64(len(stampPlans)) {
				t.Errorf("after the mutation: %d hits, %d stale; want %d hits, %d stale", hits1, stale1, hits0, stale0+int64(len(stampPlans)))
			}
		})
	}
}

// pairSchema has two float columns and two integer key columns, so both
// stamp slots can be made to alternate between column lists.
func pairSchema() *schema.Schema {
	return schema.MustNew(
		schema.Int64Attr("id"),
		schema.Int32Attr("k"),
		schema.Float64Attr("a"),
		schema.Float64Attr("b"),
	)
}

func pairRecord(i uint64) schema.Record {
	return schema.Record{
		schema.IntValue(int64(i)),
		schema.Int32Value(int32(i % 7)),
		schema.FloatValue(float64(i%97) + 0.25),
		schema.FloatValue(float64(i%13) * 1.5),
	}
}

// Grouped and ungrouped plans over other columns, alternating with
// writes, always answer what an uncached twin answers — whichever slot a
// plan reads and whatever column list it last held.
func TestStampAlternatingShapesAnswerCorrectly(t *testing.T) {
	open := func(cacheBytes int64) *Table {
		e := New(engine.NewEnv(), Options{ChunkRows: 64, ResultCacheBytes: cacheBytes})
		et, err := e.Create("pair", pairSchema())
		if err != nil {
			t.Fatal(err)
		}
		tbl := et.(*Table)
		for i := uint64(0); i < 500; i++ {
			if _, err := tbl.Insert(pairRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tbl
	}
	tbl, twin := open(1<<20), open(0)
	defer tbl.Free()
	defer twin.Free()
	plans := []exec.Plan{
		{Op: exec.KindSumWhere, Col: 2, Pred: exec.Gt(40.0)},
		{Op: exec.KindGroupSumWhere, KeyCol: 1, Col: 3, Pred: exec.Lt(9.0)},
		{Op: exec.KindSum, Col: 3},
		{Op: exec.KindGroupSumWhere, KeyCol: 0, Col: 2, Pred: exec.Between(10.0, 50.0)},
		{Op: exec.KindGroupSum, KeyCol: 1, Col: 2},
		{Op: exec.KindSumWhere, Col: 3, Pred: exec.Gt(3.0)},
	}
	next := uint64(500)
	for round := 0; round < 12; round++ {
		for _, p := range plans {
			got, err := tbl.Scan(p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.Scan(p)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, want) {
				t.Fatalf("round %d, %v col %d key %d: cached table answers %+v, uncached twin %+v", round, p.Op, p.Col, p.KeyCol, got, want)
			}
		}
		for _, x := range []*Table{tbl, twin} {
			switch round % 3 {
			case 0:
				if _, err := x.Insert(pairRecord(next)); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := x.Update(next%64, 2, schema.FloatValue(float64(round))); err != nil {
					t.Fatal(err)
				}
				if err := x.Merge(); err != nil {
					t.Fatal(err)
				}
			}
		}
		next++
	}
	if hits, _, _, _ := cacheStats(t, tbl); hits == 0 {
		t.Fatal("no plan ever hit the cache: the reuse was never exercised")
	}
}

// Two readers serve plans through Peek and Execute while a writer
// updates, inserts and merges. Once everything quiesces, every answer the
// cache holds equals the uncached twin's, bit for bit. Run under -race:
// the stamp memo is read and replaced by concurrent readers.
func TestStampReuseUnderConcurrentWriter(t *testing.T) {
	_, tbl := newTable(t, cacheOpts(), 600)
	defer tbl.Free()
	twin := twinTable(t, cacheOpts(), 600)
	defer twin.Free()
	plans := append([]exec.Plan{
		{Op: exec.KindSum, Col: workload.ItemPriceCol},
		{Op: exec.KindGroupSum, KeyCol: patchKeyCol, Col: workload.ItemPriceCol},
	}, stampPlans...)
	var done atomic.Bool
	var served atomic.Int64 // reader passes over plans
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				for _, p := range plans {
					if _, ok := tbl.Peek(p); ok {
						continue
					}
					if _, err := tbl.Scan(p); err != nil {
						t.Error(err)
						done.Store(true)
					}
				}
				served.Add(1)
			}
		}()
	}
	for round := uint64(0); round < 40; round++ {
		// Writes interleave with reads: round k waits for the k-th pass.
		for served.Load() < int64(round) && !done.Load() {
			runtime.Gosched()
		}
		for _, x := range []*Table{tbl, twin} {
			if err := x.Update(round*13%600, workload.ItemPriceCol, schema.FloatValue(float64(round)+0.5)); err != nil {
				t.Fatal(err)
			}
			if round%5 == 0 {
				if _, err := x.Insert(workload.Item(600 + round)); err != nil {
					t.Fatal(err)
				}
			}
			if round%2 == 1 {
				if err := x.Merge(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	done.Store(true)
	wg.Wait()
	for _, x := range []*Table{tbl, twin} {
		// With no reader left, every settled version folds into the base.
		if err := x.Merge(); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range plans {
		want, err := twin.Scan(p)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // the second pass is a hit
			got, err := tbl.Scan(p)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, want) {
				t.Fatalf("%v pass %d after quiescing: cached table answers %+v, uncached twin %+v", p.Op, pass, got, want)
			}
		}
		if peek, ok := tbl.Peek(p); !ok || !sameResult(peek, want) {
			t.Fatalf("%v: Peek after quiescing = %+v, %v; want %+v", p.Op, peek, ok, want)
		}
	}
	cacheStats(t, tbl) // the accounting invariant
}

// One logical query that meets a stale entry, sent the way the server
// sends it — Peek, then Execute — is one lookup, one miss and one stale
// entry. The stale Peek used to count a lookup and a miss of its own
// before the executing Lookup counted them again.
func TestStalePeekCountsOneQuery(t *testing.T) {
	_, tbl := newTable(t, cacheOpts(), 600)
	defer tbl.Free()
	for _, p := range stampPlans {
		if _, err := tbl.Scan(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Insert(workload.Item(600)); err != nil {
		t.Fatal(err)
	}
	for _, p := range stampPlans {
		before := tbl.eng.rescache.Stats()
		if _, ok := tbl.Peek(p); ok {
			t.Fatalf("%v: Peek hit a stale entry", p.Op)
		}
		if _, err := tbl.Scan(p); err != nil {
			t.Fatal(err)
		}
		after := tbl.eng.rescache.Stats()
		if d := (after.Lookups - before.Lookups); d != 1 || after.Misses-before.Misses != 1 || after.Stale-before.Stale != 1 || after.Hits != before.Hits {
			t.Errorf("%v: a stale Peek then Execute moved lookups +%d, misses +%d, stale +%d, hits +%d; want +1, +1, +1, +0",
				p.Op, d, after.Misses-before.Misses, after.Stale-before.Stale, after.Hits-before.Hits)
		}
	}
	cacheStats(t, tbl)
}

// A Peek hit at the bench fixture's geometry allocates only the answer's
// copy: nothing for the stamp walk over 128 chunks, one object for the
// cloned group slice.
func TestPeekHitAllocs(t *testing.T) {
	tbl := benchTable(t, 131072, 64, 4<<20)
	defer tbl.Free()
	pred := exec.Pred{Op: exec.OpBetween, Lo: 20, Hi: 80}
	for _, c := range []struct {
		p     exec.Plan
		limit float64
	}{
		{exec.Plan{Op: exec.KindSumWhere, Col: workload.ItemPriceCol, Pred: pred}, 2},
		{exec.Plan{Op: exec.KindGroupSumWhere, KeyCol: patchKeyCol, Col: workload.ItemPriceCol, Pred: pred}, 3},
	} {
		if _, err := tbl.Scan(c.p); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, ok := tbl.Peek(c.p); !ok {
				t.Fatalf("%v: Peek missed a just-published answer", c.p.Op)
			}
		})
		t.Logf("%v: %.1f objects per Peek hit", c.p.Op, allocs)
		if allocs > c.limit {
			t.Errorf("%v: a Peek hit allocates %.1f objects, gate %.0f", c.p.Op, allocs, c.limit)
		}
	}
}
