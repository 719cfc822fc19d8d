package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/rescache"
	"hybridstore/internal/schema"
	"hybridstore/internal/wal"
	"hybridstore/internal/workload"
)

// The result-cache stamp is an epoch the writers move: these tests hold
// an answer served under it to the answer a fresh execution gives.

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

// Every base mutation moves the stamp, and an answer of either shape
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
				if err := tbl.evictColumn(workload.ItemPriceCol); err != nil {
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
			for _, p := range stampPlans {
				answer(p)
				answer(p) // a hit: the stamp held
			}
			before, ok := tbl.VersionStamp()
			if !ok {
				t.Fatal("not stampable before the mutation")
			}
			hits0, _, stale0, _ := cacheStats(t, tbl)
			both(c.mutate)
			after, ok := tbl.VersionStamp()
			if !ok {
				t.Fatal("not stampable after the mutation")
			}
			if after.Equal(before) {
				t.Error("stamp unchanged by the mutation")
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

// pairSchema has two float columns and two integer key columns, so
// plans of both shapes can alternate between column lists.
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
// writes, always answer what an uncached twin answers — whatever column
// list a plan of the same shape last cached.
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
		t.Fatal("no plan ever hit the cache: the stamp was never reused")
	}
}

// Two readers serve plans through Peek and Execute while a writer
// updates, inserts and merges. Once everything quiesces, every answer the
// cache holds equals the uncached twin's, bit for bit. Run under -race:
// readers take the stamp while the writer moves it.
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
// copy: nothing for the stamp, whatever the chunk count, one object for
// the cloned group slice or record.
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
		{exec.Plan{Op: exec.KindGet, Row: 70000}, 1},
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

// baseState is what the epoch oracle compares across one operation: the
// table's and each chunk's epoch, and the vector the stamp used to be —
// the (ID, version) of the fragment holding each column of each chunk —
// with the row count, the rows with a version chain, and the rows whose
// point read the result cache holds under their chunk's epoch.
type baseState struct {
	rows        uint64
	epoch       rescache.Stamp
	chunkEpochs []rescache.Stamp
	frags       [][]rescache.FragVer
	chains      map[uint64]bool
	cached      map[uint64]bool
}

// readBase takes tbl's baseState under its read lock.
func readBase(t *testing.T, tbl *Table) baseState {
	t.Helper()
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	b := baseState{rows: tbl.rel.Rows(), epoch: tbl.epoch, chains: map[uint64]bool{}, cached: map[uint64]bool{}}
	for _, c := range tbl.chunks {
		var frags []rescache.FragVer
		for col := 0; col < tbl.s.Arity(); col++ {
			f, err := tbl.fragmentForCol(c, col)
			if err != nil {
				t.Fatal(err)
			}
			frags = append(frags, rescache.FragVer{ID: f.ID(), Ver: f.Version()})
		}
		b.frags = append(b.frags, frags)
		b.chunkEpochs = append(b.chunkEpochs, c.epoch)
		for row := c.rows.Begin; row < c.rows.End && row < b.rows; row++ {
			if _, ok := tbl.eng.rescache.Peek(tbl.pointKey(row), c.epoch); ok {
				b.cached[row] = true
			}
		}
	}
	tbl.deltas.RangeVisible(0, math.MaxUint64, func(row uint64, _ schema.Record, _ uint64) bool {
		b.chains[row] = true
		return true
	})
	return b
}

// The epochs are held to the walk they replaced. Over seeded random
// sequences of every base mutation, and of operations that change
// nothing, the table's epoch moves iff the all-column fragment vector,
// the row count or the set of chained rows loses a row (a settlement
// moves it even where every settled cell already held its version's
// bits), and an epoch that moves takes a value no table (or no chunk)
// held before — across tables, restores included. A chunk's epoch moves
// iff its own fragments do, except under a settlement — an update, which
// may make one due, or a merge — which moves no chunk's epoch: it
// forgets the cached point reads of exactly the rows it settled, and
// every other cached point read stays.
func TestEpochTracksFragmentVector(t *testing.T) {
	tableSeen, chunkSeen := map[string]bool{}, map[string]bool{}
	fresh := func(seen map[string]bool, st rescache.Stamp) bool {
		k := fmt.Sprint(st)
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	}
	settles := map[string]bool{"update": true, "update and merge": true, "updates to the budget": true}
	// outcomes counts, per operation, the steps that changed the base
	// and those that did not; forgotten counts the cached point reads a
	// settlement dropped, each of which would have been served stale.
	outcomes := map[string][2]int{}
	forgotten := 0
	check := func(op string, was, now baseState, updated map[uint64]bool) {
		t.Helper()
		chainWent := false
		for row := range was.chains {
			if !now.chains[row] {
				chainWent = true
				if now.cached[row] {
					t.Fatalf("%s: row %d was settled, and its point read is still cached", op, row)
				}
				if was.cached[row] {
					forgotten++
				}
			}
		}
		for row := range updated {
			if !now.chains[row] {
				chainWent = true // made and settled in this step
			}
		}
		changed := now.rows != was.rows || !slices.EqualFunc(now.frags, was.frags, slices.Equal)
		if moved := !now.epoch.Equal(was.epoch); moved != (changed || chainWent) {
			t.Fatalf("%s: table epoch moved %v, fragment vector or rows changed %v, a chain went %v", op, moved, changed, chainWent)
		} else if moved && !fresh(tableSeen, now.epoch) {
			t.Fatalf("%s: table epoch %v repeats an earlier one", op, now.epoch)
		}
		for i, ep := range now.chunkEpochs {
			if i >= len(was.chunkEpochs) {
				if !fresh(chunkSeen, ep) {
					t.Fatalf("%s: new chunk %d has epoch %v, held before", op, i, ep)
				}
				continue
			}
			chunkChanged := !settles[op] && !slices.Equal(now.frags[i], was.frags[i])
			if moved := !ep.Equal(was.chunkEpochs[i]); moved != chunkChanged {
				t.Fatalf("%s: chunk %d epoch moved %v, its fragments changed outside a settlement %v", op, i, moved, chunkChanged)
			} else if moved && !fresh(chunkSeen, ep) {
				t.Fatalf("%s: chunk %d epoch %v repeats an earlier one", op, i, ep)
			}
		}
		if settles[op] {
			for row := range was.cached {
				if was.chains[row] && !now.chains[row] || updated[row] {
					continue // settled, or updated and maybe settled
				}
				if !now.cached[row] {
					t.Fatalf("%s: row %d was not settled, and its cached point read went", op, row)
				}
			}
		}
		o := outcomes[op]
		if changed {
			o[1]++
		} else {
			o[0]++
		}
		outcomes[op] = o
	}

	for _, opts := range []Options{{ChunkRows: 16, HotChunks: 2, ResultCacheBytes: 1 << 20}, {ChunkRows: 16, HotChunks: 64, ResultCacheBytes: 1 << 20}} {
		for seed := int64(1); seed <= 3; seed++ {
			e := New(engine.NewEnv(), opts)
			et, err := e.Create("item", workload.ItemSchema())
			if err != nil {
				t.Fatal(err)
			}
			tbl := et.(*Table)
			if b := readBase(t, tbl); !fresh(tableSeen, b.epoch) {
				t.Fatalf("a created table's epoch %v repeats an earlier one", b.epoch)
			}
			next := uint64(0)
			insert := func(rec schema.Record) error {
				_, err := tbl.Insert(rec)
				return err
			}
			for ; next < 40; next++ {
				if err := insert(workload.Item(next)); err != nil {
					t.Fatal(err)
				}
			}
			r := rand.New(rand.NewSource(seed))
			var updated map[uint64]bool // this step's
			update := func() {
				row := uint64(r.Int63n(int64(tbl.Rows())))
				updated[row] = true
				if err := tbl.Update(row, workload.ItemPriceCol, schema.FloatValue(float64(r.Intn(100)))); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; step < 300; step++ {
				for k := 0; k < 3; k++ { // publish point reads for a settlement to forget or keep
					if _, err := tbl.Get(uint64(r.Int63n(int64(tbl.Rows())))); err != nil {
						t.Fatal(err)
					}
				}
				was := readBase(t, tbl)
				updated = map[uint64]bool{}
				var op string
				switch r.Intn(10) {
				case 0, 1:
					op = "insert"
					if err := insert(workload.Item(next)); err != nil {
						t.Fatal(err)
					}
					next++
				case 2:
					op = "insert of a duplicate key"
					if err := insert(workload.Item(0)); err == nil {
						t.Fatal("a duplicate key was inserted")
					}
				case 3:
					// Rejected by the fragment, after the chunk it needs was
					// opened (and an old one frozen) when the tail was full.
					op = "insert of a name too long"
					rec := workload.Item(next)
					rec[2] = schema.CharValue("far too long")
					if err := insert(rec); err == nil {
						t.Fatal("an over-long name was inserted")
					}
				case 4:
					op = "update"
					if r.Intn(3) > 0 {
						update()
						break
					}
					// Settlement is due within a budget of updates.
					op = "updates to the budget"
					for settled := mSettlements.Load(); mSettlements.Load() == settled; {
						update()
					}
				case 5:
					// A snapshot held across the Merge keeps it from settling
					// what was committed after it.
					op = "update and merge"
					var held *Txn
					if r.Intn(2) == 0 {
						held = tbl.Begin()
					}
					for k := r.Intn(3); k > 0; k-- {
						update()
					}
					if err := tbl.Merge(); err != nil {
						t.Fatal(err)
					}
					if held != nil {
						held.Abort()
					}
				case 6:
					op = "adapt"
					cols := []int{0, 1, 2}
					kind := workload.PointRead
					if r.Intn(2) == 0 {
						cols, kind = []int{workload.ItemPriceCol}, workload.ColumnScan
					}
					for k := 0; k < 50; k++ {
						tbl.Observe(workload.Op{Kind: kind, Cols: cols})
					}
					if _, err := tbl.Adapt(); err != nil {
						t.Fatal(err)
					}
				case 7:
					op = "place"
					if err := tbl.PlaceColumn(workload.ItemPriceCol); err != nil {
						t.Fatal(err)
					}
				case 8:
					op = "evict"
					if err := tbl.evictColumn(workload.ItemPriceCol); err != nil {
						t.Fatal(err)
					}
				case 9:
					op = "checkpoint and restore"
					var enc wal.Encoder
					if _, _, err := tbl.CheckpointTo(&enc); err != nil {
						t.Fatal(err)
					}
					rt, err := e.RestoreTable("item", workload.ItemSchema(), wal.NewDecoder(enc.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					tbl.Free()
					tbl = rt
				}
				check(op, was, readBase(t, tbl), updated)
			}
			was := readBase(t, tbl)
			tbl.Free()
			check("free", was, readBase(t, tbl), nil)
		}
	}
	t.Logf("steps that left the base alone / changed it: %v", outcomes)
	// Both directions were exercised where an operation can go either way.
	for _, op := range []string{"insert of a name too long", "update and merge", "adapt", "place", "evict"} {
		if o := outcomes[op]; o[0] == 0 || o[1] == 0 {
			t.Errorf("%s: %d steps left the base alone, %d changed it; want both", op, o[0], o[1])
		}
	}
	for op, must := range map[string]int{"insert": 1, "checkpoint and restore": 1, "free": 1, "insert of a duplicate key": 0} {
		if o := outcomes[op]; o[must] == 0 || o[1-must] != 0 {
			t.Errorf("%s: %d steps left the base alone, %d changed it", op, o[0], o[1])
		}
	}
	if o := outcomes["updates to the budget"]; o[1] == 0 {
		t.Errorf("updates to the budget: %d steps, none changed the base", o[0])
	}
	if forgotten == 0 {
		t.Error("no settlement forgot a cached point read")
	}
	t.Logf("settlements forgot %d cached point reads of settled rows", forgotten)
}
