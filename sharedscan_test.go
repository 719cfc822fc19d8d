package hybridstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// planCase is one plan shape of the equivalence table: the K plans a
// cohort of that shape carries, the named public method answering one
// of them, and the serial oracle over Get-materialized records.
type planCase struct {
	name   string
	plans  func(k int) []Plan
	named  func(tbl *Table, p Plan) (Result, error)
	oracle func(recs []Record, p Plan) Result
}

// planCases covers every plan shape. Cohorts of the argument-less
// shapes repeat one plan; predicate cohorts mix closed, open, pruned
// and duplicate predicates; row cohorts mix chunks and a duplicate.
func planCases(rows uint64) []planCase {
	preds := []FloatPred{
		LtFloat(25), GtFloat(50), BetweenFloat(10, 60), EqFloat(42),
		BetweenFloat(2000, 3000), // pruned everywhere
		LtFloat(80), GtFloat(50), BetweenFloat(3, 3),
	}
	const keyCol = 1
	groupOracle := func(recs []Record, match func(float64) bool) Result {
		table := map[int64]*GroupResult{}
		for _, rec := range recs {
			if x := rec[ItemPriceColumn].F; match(x) {
				g := table[rec[keyCol].I]
				if g == nil {
					g = &GroupResult{Key: rec[keyCol].I}
					table[g.Key] = g
				}
				g.Sum += x
				g.Count++
			}
		}
		var out []GroupResult
		for _, g := range table {
			out = append(out, *g)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		return Result{Groups: out}
	}
	all := func(float64) bool { return true }
	return []planCase{
		{"get",
			func(k int) []Plan {
				out := make([]Plan, k)
				for i := range out {
					out[i] = Plan{Op: "get", Row: uint64(i*131) % rows}
				}
				out[k-1] = out[0]
				return out
			},
			func(tbl *Table, p Plan) (Result, error) {
				rec, err := tbl.Get(p.Row)
				if err != nil {
					return Result{}, err
				}
				byPK, err := tbl.GetByPK(rec[0].I)
				if err == nil && !reflect.DeepEqual(rec, byPK) {
					err = fmt.Errorf("GetByPK(%d) = %v, Get(%d) = %v", rec[0].I, byPK, p.Row, rec)
				}
				return Result{Rec: rec}, err
			},
			func(recs []Record, p Plan) Result { return Result{Rec: recs[p.Row]} }},
		{"sum",
			func(k int) []Plan { return repeatPlan(Plan{Op: "sum", Col: ItemPriceColumn}, k) },
			func(tbl *Table, p Plan) (Result, error) {
				sum, err := tbl.SumFloat64(p.Col)
				return Result{Sum: sum}, err
			},
			func(recs []Record, p Plan) Result {
				var r Result
				for _, rec := range recs {
					r.Sum += rec[p.Col].F
				}
				return r
			}},
		{"sum_where",
			func(k int) []Plan {
				out := make([]Plan, k)
				for i := range out {
					out[i] = Plan{Op: "sum_where", Col: ItemPriceColumn, Pred: preds[i]}
				}
				return out
			},
			func(tbl *Table, p Plan) (Result, error) {
				sum, n, err := tbl.SumFloat64Where(p.Col, p.Pred)
				return Result{Sum: sum, Count: n}, err
			},
			func(recs []Record, p Plan) Result {
				var r Result
				for _, rec := range recs {
					if x := rec[p.Col].F; p.Pred.Match(x) {
						r.Sum += x
						r.Count++
					}
				}
				return r
			}},
		{"group_sum",
			func(k int) []Plan {
				return repeatPlan(Plan{Op: "group_sum", KeyCol: keyCol, Col: ItemPriceColumn}, k)
			},
			// No named method: the solo answer is the one-plan Execute.
			func(tbl *Table, p Plan) (Result, error) {
				res, err := tbl.Execute([]Plan{p})
				if err != nil {
					return Result{}, err
				}
				return res[0], nil
			},
			func(recs []Record, p Plan) Result { return groupOracle(recs, all) }},
		{"group_sum_where",
			func(k int) []Plan {
				out := make([]Plan, k)
				for i := range out {
					out[i] = Plan{Op: "group_sum_where", KeyCol: keyCol, Col: ItemPriceColumn, Pred: preds[i]}
				}
				return out
			},
			func(tbl *Table, p Plan) (Result, error) {
				g, err := tbl.GroupBySumWhere(p.KeyCol, p.Col, p.Pred)
				return Result{Groups: g}, err
			},
			func(recs []Record, p Plan) Result { return groupOracle(recs, p.Pred.Match) }},
	}
}

func repeatPlan(p Plan, k int) []Plan {
	out := make([]Plan, k)
	for i := range out {
		out[i] = p
	}
	return out
}

// sameResult compares two results; exact demands identical float bits,
// otherwise sums may differ by fold-order rounding (the serial oracle
// adds row by row, the engine chunk by chunk).
func sameResult(a, b Result, exact bool) bool {
	near := func(x, y float64) bool {
		if exact {
			return math.Float64bits(x) == math.Float64bits(y)
		}
		return math.Abs(x-y) <= 1e-9*math.Max(1, math.Abs(y))
	}
	if !near(a.Sum, b.Sum) || a.Count != b.Count || len(a.Groups) != len(b.Groups) || !reflect.DeepEqual(a.Rec, b.Rec) {
		return false
	}
	for i, g := range a.Groups {
		if h := b.Groups[i]; g.Key != h.Key || g.Count != h.Count || !near(g.Sum, h.Sum) {
			return false
		}
	}
	return true
}

// storageConfigs are the storage configurations the equivalence tables
// run under: plain host, device cache, compression, device placement,
// and placement beside the device cache.
var storageConfigs = []struct {
	name string
	opts Options
}{
	{"host", Options{ChunkRows: 128, HotChunks: 1}},
	{"devicecache", Options{ChunkRows: 128, HotChunks: 1, DeviceCache: true}},
	{"compress+cache", Options{ChunkRows: 128, HotChunks: 1, DeviceCache: true, Compress: true}},
	{"placement", Options{ChunkRows: 128, HotChunks: 1, DevicePlacement: true}},
	{"placement+cache", Options{ChunkRows: 128, HotChunks: 1, DevicePlacement: true, DeviceCache: true, Compress: true}},
}

// TestSharedScanMatchesSoloFacade is the end-to-end equivalence table of
// the one read entry: for every plan shape × result cache on/off ×
// cohort size K ∈ {1, 8}, Execute answers each plan with exactly the
// bits the named public method produces, and both agree with a serial
// fold over Get-materialized records (sums to rounding, everything else
// exactly) — across storage configurations (plain host, device cache,
// compression, device placement, and placement beside the device
// cache), with unmerged MVCC deltas in flight, after Merge, and after
// further updates + Merge. With the cache on, a clean table's answers
// must also be served by Peek.
func TestSharedScanMatchesSoloFacade(t *testing.T) {
	const rows = 1000
	cases := planCases(rows)
	for _, cfg := range storageConfigs {
		for _, cached := range []bool{false, true} {
			opts := cfg.opts
			name := cfg.name
			if cached {
				opts.ResultCache = ResultCacheOptions{Cap: 1 << 20}
				name += "/resultcache"
			}
			t.Run(name, func(t *testing.T) {
				db := Open(opts)
				tbl, err := db.CreateTable("item", ItemSchema())
				if err != nil {
					t.Fatal(err)
				}
				defer tbl.Free()
				for i := uint64(0); i < rows; i++ {
					if _, err := tbl.Insert(Item(i)); err != nil {
						t.Fatal(err)
					}
				}
				if opts.DevicePlacement {
					if err := tbl.PlaceColumn(ItemPriceColumn); err != nil {
						t.Fatal(err)
					}
				}
				update := func(step int) {
					for i := step; i < rows; i += 37 {
						if err := tbl.Update(uint64(i), ItemPriceColumn, FloatValue(float64(i%97)+0.1*float64(step))); err != nil {
							t.Fatal(err)
						}
					}
				}
				check := func(phase string, clean bool) {
					recs := make([]Record, rows)
					for r := range recs {
						if recs[r], err = tbl.Get(uint64(r)); err != nil {
							t.Fatal(err)
						}
					}
					// Two rounds so the second hits warm device-cache
					// images and, on a clean table, result-cache entries.
					for round := 0; round < 2; round++ {
						for _, c := range cases {
							for _, k := range []int{1, 8} {
								plans := c.plans(k)
								res, err := tbl.Execute(plans)
								if err != nil || len(res) != k {
									t.Fatalf("%s %s K=%d: %d results, %v", phase, c.name, k, len(res), err)
								}
								for i, p := range plans {
									named, err := c.named(tbl, p)
									if err != nil {
										t.Fatalf("%s %s: %v", phase, c.name, err)
									}
									if !sameResult(res[i], named, true) {
										t.Fatalf("%s round %d %s K=%d plan %d (%v): Execute %+v != named %+v", phase, round, c.name, k, i, p.Pred, res[i], named)
									}
									if want := c.oracle(recs, p); !sameResult(res[i], want, false) {
										t.Fatalf("%s round %d %s K=%d plan %d (%v): Execute %+v != serial %+v", phase, round, c.name, k, i, p.Pred, res[i], want)
									}
									// Peek answers an aggregate only over a delta-free
									// table; a point read only needs its own row clean.
									peek, hit := tbl.Peek(p)
									wrongHit := hit != (cached && clean) && (clean || p.Op != "get")
									if wrongHit || (hit && !sameResult(peek, res[i], true)) {
										t.Fatalf("%s round %d %s plan %d: Peek = %+v, %v (cache %v, clean %v)", phase, round, c.name, i, peek, hit, cached, clean)
									}
								}
							}
						}
					}
				}
				update(0)
				check("deltas", false)
				if err := tbl.Merge(); err != nil {
					t.Fatal(err)
				}
				check("merged", true)
				update(5)
				if err := tbl.Merge(); err != nil {
					t.Fatal(err)
				}
				update(11)
				check("remerged+deltas", false)
			})
		}
	}
}

// TestCachedMatchesUncachedWithDeltas is the result cache's row of the
// equivalence table. In every storage configuration, twin tables — one
// with the cache, one without — take one op sequence: updates that move
// a row to another group (column 1, i_im_id, also to keys no row held),
// updates that take a price a predicate matches in the base out of its
// range and others into it, and a Merge between rounds, after which the
// next round's updates patch the other way over the merged base. Every
// answer of every aggregate shape — unpredicated sum and group_sum, an
// unsatisfiable predicate, solo plans and K=8 cohorts that mix hits with
// misses — equals the uncached twin's bit for bit. With a delta live the
// cached twin's Peek misses, and each round's second pass, after more
// updates, is all hits: the hit path, a cached base plus this snapshot's
// patch, is what the comparison covers.
func TestCachedMatchesUncachedWithDeltas(t *testing.T) {
	const rows, keyCol = 1000, 1
	preds := []FloatPred{
		LtFloat(5), GtFloat(50), BetweenFloat(3, 60), EqFloat(42),
		BetweenFloat(2, 1), // unsatisfiable
		LtFloat(80), BetweenFloat(4.5, 7.25), GtFloat(90),
	}
	shapes := []Plan{
		{Op: "sum", Col: ItemPriceColumn},
		{Op: "sum_where", Col: ItemPriceColumn},
		{Op: "group_sum", KeyCol: keyCol, Col: ItemPriceColumn},
		{Op: "group_sum_where", KeyCol: keyCol, Col: ItemPriceColumn},
	}
	// cohort is shape's K plans; a predicated shape takes preds[lo:lo+k].
	cohort := func(shape Plan, lo, k int) []Plan {
		out := repeatPlan(shape, k)
		for i := range out {
			if shape.Op.Filtered() {
				out[i].Pred = preds[lo+i]
			}
		}
		return out
	}
	for _, cfg := range storageConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			var twins [2]*Table // cached, uncached
			db := Open(cfg.opts)
			cached := cfg.opts
			cached.ResultCache = ResultCacheOptions{Cap: 1 << 20}
			cdb := Open(cached)
			for i, d := range []*DB{cdb, db} {
				tbl, err := d.CreateTable("item", ItemSchema())
				if err != nil {
					t.Fatal(err)
				}
				defer tbl.Free()
				for r := uint64(0); r < rows; r++ {
					if _, err := tbl.Insert(Item(r)); err != nil {
						t.Fatal(err)
					}
				}
				if cfg.opts.DevicePlacement {
					if err := tbl.PlaceColumn(ItemPriceColumn); err != nil {
						t.Fatal(err)
					}
				}
				twins[i] = tbl
			}
			both := func(f func(tbl *Table) error) {
				t.Helper()
				for _, tbl := range twins {
					if err := f(tbl); err != nil {
						t.Fatal(err)
					}
				}
			}
			// update writes round r's deltas, pass p's share, over the same
			// rows every round: prices leave the predicates' ranges and
			// enter others (base prices are 1-10.99), and after a merge
			// fall back from the high base, and rows move between groups
			// and to keys no row held.
			update := func(r, p int) {
				both(func(tbl *Table) error {
					for row := uint64(p); row < rows; row += 53 {
						price := 70 + float64(row%29)
						if r%2 == 1 {
							price = 2 + float64(row%5)
						}
						if err := tbl.Update(row, ItemPriceColumn, FloatValue(price)); err != nil {
							return err
						}
						if err := tbl.Update((row+11)%rows, keyCol, Int32Value(int32((row*7+uint64(r))%(rows+40)))); err != nil {
							return err
						}
					}
					return nil
				})
			}
			live := false // deltas pending under the reads
			run := func(phase string, plans []Plan) {
				t.Helper()
				var res [2][]Result
				for i, tbl := range twins {
					var err error
					if res[i], err = tbl.Execute(plans); err != nil || len(res[i]) != len(plans) {
						t.Fatalf("%s %s K=%d: %d results, %v", phase, plans[0].Op, len(plans), len(res[i]), err)
					}
				}
				for k, p := range plans {
					if !sameResult(res[0][k], res[1][k], true) {
						t.Fatalf("%s %s K=%d plan %d (%v): cached %+v, uncached %+v", phase, p.Op, len(plans), k, p.Pred, res[0][k], res[1][k])
					}
					if _, hit := twins[0].Peek(p); hit && live {
						t.Fatalf("%s %s plan %d: Peek answered with deltas live", phase, p.Op, k)
					}
				}
			}
			for r := 0; r < 3; r++ {
				for pass := 0; pass < 2; pass++ {
					update(r, pass) // pass 1's deltas land under the bases pass 0 cached
					phase := fmt.Sprintf("round %d pass %d", r, pass)
					if live = twins[0].Stats().PendingVersions > 0; !live {
						t.Fatalf("%s: no delta pending", phase)
					}
					before := cdb.ResultCacheStats()
					for _, shape := range shapes {
						// Pass 0 caches every other plan solo first, so the
						// K=8 cohort meets hits, misses and a plan that
						// never reaches the cache.
						for lo := 0; pass == 0 && lo < len(preds); lo += 2 {
							run(phase, cohort(shape, lo, 1))
						}
						run(phase, cohort(shape, 0, 8))
						run(phase, cohort(shape, 3, 1))
					}
					after := cdb.ResultCacheStats()
					if hits, lookups := after.Hits-before.Hits, after.Lookups-before.Lookups; pass == 1 && (hits == 0 || hits != lookups) {
						t.Fatalf("%s: %d hits of %d lookups, want every lookup a hit", phase, hits, lookups)
					}
				}
				both(func(tbl *Table) error { return tbl.Merge() })
			}
			live = false
			for _, shape := range shapes {
				run("merged", cohort(shape, 0, 8))
			}
		})
	}
}

// TestFoldOrderUnderCompression is the fold-order row of the equivalence
// table: a price column answers sum and sum_where with the plain store's
// bits whether its cold chunks scan from base bytes, from sealed images
// on the host, from raw chunks on the card or from images on the card —
// and sum ≡ sum_where(−Inf, +Inf), group_sum ≡ group_sum_where(−Inf,
// +Inf) bit for bit under each. Three fixtures: chunks holding runs of
// mixed magnitudes (v × k rounds differently from adding v k times),
// seeded random prices in one cold chunk that dominates the sum, so a
// leg folding its chunk in another order shows in the total, and cold
// chunks alternating raw and dictionary-coded random prices, so a fold
// that adds the encoded chunks' partials out of chunk order shows.
func TestFoldOrderUnderCompression(t *testing.T) {
	const chunk, keyCol = 1024, 1
	all := BetweenFloat(math.Inf(-1), math.Inf(1))
	plans := []Plan{
		{Op: "sum", Col: ItemPriceColumn},
		{Op: "sum_where", Col: ItemPriceColumn, Pred: all},
		{Op: "group_sum", KeyCol: keyCol, Col: ItemPriceColumn},
		{Op: "group_sum_where", KeyCol: keyCol, Col: ItemPriceColumn, Pred: all},
	}
	type fixture struct {
		name  string
		rows  int
		price func(i int) (key int32, price float64)
	}
	fixtures := []fixture{{"runs", 4 * chunk, func(i int) (int32, float64) {
		switch j := i % chunk; {
		case j < 300:
			return 0, 0.1
		case j < 600:
			return 1, 1e16
		default:
			return 2, 1
		}
	}}}
	for seed := int64(1); seed <= 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		prices := make([]float64, chunk+1)
		for i := range prices {
			prices[i] = r.Float64() * 100
		}
		fixtures = append(fixtures, fixture{fmt.Sprintf("random/seed=%d", seed), len(prices),
			func(i int) (int32, float64) { return int32(i % 3), prices[i] }})
	}
	// Three cold chunks alternating random prices (no encoding shrinks
	// them: Raw, so no side-car) and prices drawn from 100 values (Dict):
	// a store whose cold pieces mix raw and encoded must still add the
	// chunks' partials in chunk order.
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		dict := make([]float64, 100)
		for i := range dict {
			dict[i] = r.Float64() * 100
		}
		prices := make([]float64, 3*chunk+1)
		for i := range prices {
			if prices[i] = r.Float64() * 100; i/chunk == 1 {
				prices[i] = dict[r.Intn(len(dict))]
			}
		}
		fixtures = append(fixtures, fixture{fmt.Sprintf("mixed/seed=%d", seed), len(prices),
			func(i int) (int32, float64) { return int32(i % 3), prices[i] }})
	}
	for _, fx := range fixtures {
		var want []Result
		for _, cfg := range []struct {
			name string
			opts Options
		}{
			{"plain", Options{ChunkRows: chunk, HotChunks: 1}},
			{"devicecache", Options{ChunkRows: chunk, HotChunks: 1, DeviceCache: true}},
			{"compress", Options{ChunkRows: chunk, HotChunks: 1, Compress: true}},
			{"compress+devicecache", Options{ChunkRows: chunk, HotChunks: 1, Compress: true, DeviceCache: true}},
		} {
			tbl, err := Open(cfg.opts).CreateTable("item", ItemSchema())
			if err != nil {
				t.Fatal(err)
			}
			defer tbl.Free()
			for i := 0; i < fx.rows; i++ {
				rec := Item(uint64(i))
				key, price := fx.price(i)
				rec[keyCol], rec[ItemPriceColumn] = Int32Value(key), FloatValue(price)
				if _, err := tbl.Insert(rec); err != nil {
					t.Fatal(err)
				}
			}
			got := make([]Result, len(plans))
			for i, p := range plans { // one shape per Execute
				res, err := tbl.Execute([]Plan{p})
				if err != nil {
					t.Fatalf("%s %s %s: %v", fx.name, cfg.name, p.Op, err)
				}
				got[i] = res[0]
			}
			if want == nil {
				want = got
			}
			// A scalar sum adds one partial per chunk, the same doubles in
			// every configuration; a group table accumulates across chunks,
			// so where a chunk's groups fold (host table, sealed image,
			// card) reassociates them — those compare to rounding across
			// configurations and exactly within one.
			for i, p := range plans {
				if !sameResult(got[i], want[i], !p.Op.Grouped()) {
					t.Errorf("%s %s %s: %x %+v, the plain store answers %x %+v", fx.name, cfg.name, p.Op,
						math.Float64bits(got[i].Sum), got[i].Groups, math.Float64bits(want[i].Sum), want[i].Groups)
				}
			}
			// The card has no unfiltered grouped kernel: under DeviceCache
			// group_sum folds on the host what group_sum_where folds per
			// launch, so only there the two reassociate.
			if got[0].Sum != got[1].Sum || !sameResult(Result{Groups: got[2].Groups}, Result{Groups: got[3].Groups}, !cfg.opts.DeviceCache) {
				t.Errorf("%s %s: sum %x, sum_where(-Inf, +Inf) %x; group_sum %+v, group_sum_where %+v", fx.name, cfg.name,
					math.Float64bits(got[0].Sum), math.Float64bits(got[1].Sum), got[2].Groups, got[3].Groups)
			}
		}
	}
}

// TestTableRegistry pins the name lookup the serving layer binds
// prepared statements through.
func TestTableRegistry(t *testing.T) {
	db := Open(Options{})
	if db.Table("nope") != nil {
		t.Fatal("lookup of absent table returned non-nil")
	}
	tbl, err := db.CreateTable("item", ItemSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Free()
	if got := db.Table("item"); got != tbl {
		t.Fatalf("Table(item) = %p, want %p", got, tbl)
	}
}
