package hybridstore

import (
	"fmt"
	"math"
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
				if cnt, cerr := tbl.CountWhereFloat64(p.Col, p.Pred); err == nil && (cerr != nil || cnt != n) {
					err = fmt.Errorf("CountWhereFloat64 = %d, %v; SumFloat64Where counted %d", cnt, cerr, n)
				}
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
			func(tbl *Table, p Plan) (Result, error) {
				g, err := tbl.GroupSumFloat64(p.KeyCol, p.Col)
				return Result{Groups: g}, err
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
	configs := []struct {
		name string
		opts Options
	}{
		{"host", Options{ChunkRows: 128, HotChunks: 1}},
		{"devicecache", Options{ChunkRows: 128, HotChunks: 1, DeviceCache: true}},
		{"compress+cache", Options{ChunkRows: 128, HotChunks: 1, DeviceCache: true, Compress: true}},
		{"placement", Options{ChunkRows: 128, HotChunks: 1, DevicePlacement: true}},
		{"placement+cache", Options{ChunkRows: 128, HotChunks: 1, DevicePlacement: true, DeviceCache: true, Compress: true}},
	}
	const rows = 1000
	cases := planCases(rows)
	for _, cfg := range configs {
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
									// Aggregates are cacheable only over a delta-free
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

// TestFoldOrderUnderCompression is the fold-order row of the equivalence
// table: a price column whose chunks hold runs of mixed magnitudes (v × k
// rounds differently from adding v k times) answers sum and sum_where
// with the plain store's bits whether its cold chunks scan from base
// bytes, from sealed images on the host or from images on the card — and
// sum ≡ sum_where(−Inf, +Inf), group_sum ≡ group_sum_where(−Inf, +Inf)
// bit for bit under each.
func TestFoldOrderUnderCompression(t *testing.T) {
	const rows, chunk, keyCol = 4096, 1024, 1
	all := BetweenFloat(math.Inf(-1), math.Inf(1))
	plans := []Plan{
		{Op: "sum", Col: ItemPriceColumn},
		{Op: "sum_where", Col: ItemPriceColumn, Pred: all},
		{Op: "group_sum", KeyCol: keyCol, Col: ItemPriceColumn},
		{Op: "group_sum_where", KeyCol: keyCol, Col: ItemPriceColumn, Pred: all},
	}
	var want []Result
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{ChunkRows: chunk, HotChunks: 1}},
		{"compress", Options{ChunkRows: chunk, HotChunks: 1, Compress: true}},
		{"compress+devicecache", Options{ChunkRows: chunk, HotChunks: 1, Compress: true, DeviceCache: true}},
	} {
		tbl, err := Open(cfg.opts).CreateTable("item", ItemSchema())
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Free()
		for i := uint64(0); i < rows; i++ {
			rec := Item(i)
			switch j := i % chunk; {
			case j < 300:
				rec[keyCol], rec[ItemPriceColumn] = Int32Value(0), FloatValue(0.1)
			case j < 600:
				rec[keyCol], rec[ItemPriceColumn] = Int32Value(1), FloatValue(1e16)
			default:
				rec[keyCol], rec[ItemPriceColumn] = Int32Value(2), FloatValue(1)
			}
			if _, err := tbl.Insert(rec); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]Result, len(plans))
		for i, p := range plans { // one shape per Execute
			res, err := tbl.Execute([]Plan{p})
			if err != nil {
				t.Fatalf("%s %s: %v", cfg.name, p.Op, err)
			}
			got[i] = res[0]
		}
		if want == nil {
			want = got
		}
		// A scalar sum adds one partial per chunk, the same doubles in
		// every configuration; a group table accumulates across chunks, so
		// where a chunk's groups fold (host table, sealed image, card)
		// reassociates them — those compare to rounding across
		// configurations and exactly within one.
		for i, p := range plans {
			if !sameResult(got[i], want[i], !p.Op.Grouped()) {
				t.Errorf("%s %s: %x %+v, the plain store answers %x %+v", cfg.name, p.Op,
					math.Float64bits(got[i].Sum), got[i].Groups, math.Float64bits(want[i].Sum), want[i].Groups)
			}
		}
		// The card has no unfiltered grouped kernel: under DeviceCache
		// group_sum folds on the host what group_sum_where folds per
		// launch, so only there the two reassociate.
		if got[0].Sum != got[1].Sum || !sameResult(Result{Groups: got[2].Groups}, Result{Groups: got[3].Groups}, !cfg.opts.DeviceCache) {
			t.Errorf("%s: sum %x, sum_where(-Inf, +Inf) %x; group_sum %+v, group_sum_where %+v", cfg.name,
				math.Float64bits(got[0].Sum), math.Float64bits(got[1].Sum), got[2].Groups, got[3].Groups)
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
