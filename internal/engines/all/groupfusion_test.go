package all

import (
	"math"
	"math/rand"
	"testing"

	"hybridstore/internal/core"
	"hybridstore/internal/device"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/obs"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// groupItem is workload.Item with the i_im_id column re-purposed as a
// small int32 group key (7 groups) and the price column as an
// integer-valued aggregate over [0, 97) — integer-valued so group sums
// are exact in any accumulation order — poisoned with NaN on every
// 53rd-ish row to pin the predicate (not the arithmetic) as the only
// NaN filter.
func groupItem(i uint64) schema.Record {
	rec := workload.Item(i)
	rec[1] = schema.Int32Value(int32((i * 31) % 7))
	price := float64(int64((i * 13) % 97))
	if i%53 == 9 {
		price = math.NaN()
	}
	rec[workload.ItemPriceCol] = schema.FloatValue(price)
	return rec
}

// randomGroupPred draws predicates over the [0, 97) price domain plus
// the post-update outliers (599, 800): point, half-open, interval,
// outlier-only and provably-empty shapes.
func randomGroupPred(r *rand.Rand) exec.Pred {
	switch r.Intn(6) {
	case 0:
		return exec.Eq(float64(r.Intn(97)))
	case 1:
		return exec.Lt(r.Float64() * 97)
	case 2:
		return exec.Gt(r.Float64() * 97)
	case 3:
		lo := r.Float64() * 80
		return exec.Between(lo, lo+r.Float64()*25)
	case 4:
		// Catches only the post-update outliers.
		return exec.Gt(400)
	default:
		// Provably empty: above the domain and the outliers.
		return exec.Between(2000, 3000)
	}
}

// TestGroupFusionPropertyAllEngines is the fused group-by correctness
// property: for randomized predicates across all selectivities, the
// single-pass fused operator must return exactly the groups the
// record-centric path computes row by row — on every surveyed engine
// plus the reference engine, under every host execution policy, through
// updates that move a row between groups and push values outside sealed
// zones. NaN values must fall out of every group via the predicate.
func TestGroupFusionPropertyAllEngines(t *testing.T) {
	const n = 600
	const keyCol = 1 // int32 group key: exercises the 4-byte key path
	before := obs.TakeSnapshot()
	for _, policy := range []exec.Policy{exec.SingleThreaded, exec.MultiThreaded, exec.MorselDriven} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			env := engine.NewEnv()
			env.ExecPolicy = policy
			engines := Engines(env)
			engines = append(engines, core.New(env, core.Options{ChunkRows: 128}))
			for _, e := range engines {
				e := e
				t.Run(e.Name(), func(t *testing.T) {
					tbl, err := e.Create("item", workload.ItemSchema())
					if err != nil {
						t.Fatalf("Create: %v", err)
					}
					defer tbl.Free()
					if err := workload.Generate(n, groupItem, func(i uint64, rec schema.Record) error {
						_, err := tbl.Insert(rec)
						return err
					}); err != nil {
						t.Fatalf("load: %v", err)
					}
					// Seal zones at the engine's natural freeze point…
					if c, ok := tbl.(interface{ Compact() (int, error) }); ok {
						if _, err := c.Compact(); err != nil {
							t.Fatalf("Compact: %v", err)
						}
					}
					if m, ok := tbl.(interface{ Merge() error }); ok {
						if err := m.Merge(); err != nil {
							t.Fatalf("Merge: %v", err)
						}
					}
					// …then update through it: row 5 moves to a brand-new
					// group, rows 99 and 300 take values far outside the
					// sealed zone bounds.
					if err := tbl.Update(5, keyCol, schema.Int32Value(99)); err != nil {
						t.Fatalf("Update key: %v", err)
					}
					if err := tbl.Update(99, workload.ItemPriceCol, schema.FloatValue(599)); err != nil {
						t.Fatalf("Update(99): %v", err)
					}
					if err := tbl.Update(300, workload.ItemPriceCol, schema.FloatValue(800)); err != nil {
						t.Fatalf("Update(300): %v", err)
					}

					// One record-centric pass caches the authoritative
					// key/value columns; every predicate checks against them.
					keys := make([]int64, n)
					vals := make([]float64, n)
					for row := uint64(0); row < n; row++ {
						rec, err := tbl.Get(row)
						if err != nil {
							t.Fatalf("Get(%d): %v", row, err)
						}
						keys[row] = rec[keyCol].I
						vals[row] = rec[workload.ItemPriceCol].F
					}

					r := rand.New(rand.NewSource(int64(37*len(e.Name())) + int64(policy)))
					for i := 0; i < 24; i++ {
						p := randomGroupPred(r)
						want := map[int64]*exec.GroupResult{}
						for row := 0; row < n; row++ {
							if p.Match(vals[row]) {
								g := want[keys[row]]
								if g == nil {
									g = &exec.GroupResult{Key: keys[row]}
									want[keys[row]] = g
								}
								g.Sum += vals[row]
								g.Count++
							}
						}
						got, err := groupSumWhere(tbl, keyCol, workload.ItemPriceCol, p)
						if err != nil {
							t.Fatalf("GroupSumFloat64Where(%v): %v", p, err)
						}
						if len(got) != len(want) {
							t.Fatalf("%v: %d groups, want %d", p, len(got), len(want))
						}
						for j, g := range got {
							if j > 0 && got[j-1].Key >= g.Key {
								t.Fatalf("%v: groups not key-sorted at %d", p, j)
							}
							if g.Count <= 0 {
								t.Fatalf("%v: empty group %d survived", p, g.Key)
							}
							w := want[g.Key]
							if w == nil {
								t.Fatalf("%v: unexpected group %d", p, g.Key)
							}
							if g.Count != w.Count {
								t.Errorf("%v: group %d count = %d, want %d", p, g.Key, g.Count, w.Count)
							}
							if math.Abs(g.Sum-w.Sum) > 1e-9 {
								t.Errorf("%v: group %d sum = %v, want %v", p, g.Key, g.Sum, w.Sum)
							}
						}
					}
				})
			}
		})
	}
	// The fused operator must have been exercised and produced groups.
	after := obs.TakeSnapshot()
	if after.Counter("exec.groupby.fused.ops") <= before.Counter("exec.groupby.fused.ops") {
		t.Error("exec.groupby.fused.ops did not advance over the property suite")
	}
	if after.Counter("exec.groupby.fused.groups") <= before.Counter("exec.groupby.fused.groups") {
		t.Error("exec.groupby.fused.groups did not advance over the property suite")
	}
}

// TestGroupFusionDeviceFallback gives the reference engine a card too
// small to hold any fragment image, DeviceCache on: every plan a kernel
// exists for ships its cold chunks, the card refuses them, and the scan
// body must answer exactly from the host pieces instead of failing the
// query — one rule for all four kinds — counting the abandonment.
func TestGroupFusionDeviceFallback(t *testing.T) {
	const n = 600
	const keyCol, valCol = 1, workload.ItemPriceCol
	env := engine.NewEnv()
	prof := perfmodel.DefaultDevice()
	prof.GlobalMemory = 64 // no fragment fits: every Alloc refuses
	env.GPU = device.New(prof, env.Clock)
	env.Cache = device.NewFragCache(env.GPU)

	e := core.New(env, core.Options{ChunkRows: 128, DeviceCache: true})
	tbl, err := e.Create("item", workload.ItemSchema())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer tbl.Free()
	// Integer-valued, NaN-free prices: every sum is exact in any fold
	// order, so the answers compare with ==.
	item := func(i uint64) schema.Record {
		rec := groupItem(i)
		if math.IsNaN(rec[valCol].F) {
			rec[valCol] = schema.FloatValue(3)
		}
		return rec
	}
	if err := workload.Generate(n, item, func(i uint64, rec schema.Record) error {
		_, err := tbl.Insert(rec)
		return err
	}); err != nil {
		t.Fatalf("load: %v", err)
	}

	p := exec.Between(5, 90)
	for _, tc := range []struct {
		plan    exec.Plan
		counter string // "" where no kernel exists: nothing ships, nothing falls back
	}{
		{exec.Plan{Op: exec.KindSum, Col: valCol}, "exec.device_scan.sum_fallbacks"},
		{exec.Plan{Op: exec.KindSumWhere, Col: valCol, Pred: p}, "exec.device_scan.sum_fallbacks"},
		{exec.Plan{Op: exec.KindGroupSum, KeyCol: keyCol, Col: valCol}, ""},
		{exec.Plan{Op: exec.KindGroupSumWhere, KeyCol: keyCol, Col: valCol, Pred: p}, "exec.groupby.fused.fallbacks"},
	} {
		tc := tc
		t.Run(string(tc.plan.Op), func(t *testing.T) {
			before := obs.TakeSnapshot()
			got, err := tbl.Scan(tc.plan)
			if err != nil {
				t.Fatalf("a card that cannot hold an image failed the query: %v", err)
			}
			after := obs.TakeSnapshot()
			if tc.counter != "" && after.Counter(tc.counter) <= before.Counter(tc.counter) {
				t.Errorf("%s did not advance when the device refused", tc.counter)
			}

			var want exec.Result
			groups := map[int64]*exec.GroupResult{}
			for i := uint64(0); i < n; i++ {
				rec := item(i)
				x := rec[valCol].F
				if tc.plan.Op.Filtered() && !p.Match(x) {
					continue
				}
				if !tc.plan.Op.Grouped() {
					want.Sum += x
					want.Count++
					continue
				}
				g := groups[rec[keyCol].I]
				if g == nil {
					g = &exec.GroupResult{Key: rec[keyCol].I}
					groups[g.Key] = g
				}
				g.Sum += x
				g.Count++
			}
			if tc.plan.Op == exec.KindSum {
				want.Count = 0 // an unfiltered sum reports no count
			}
			if got.Sum != want.Sum || got.Count != want.Count || len(got.Groups) != len(groups) {
				t.Fatalf("got (%v, %d, %d groups), want (%v, %d, %d groups)",
					got.Sum, got.Count, len(got.Groups), want.Sum, want.Count, len(groups))
			}
			for _, g := range got.Groups {
				if w := groups[g.Key]; w == nil || g != *w {
					t.Errorf("group %d = (%v, %d), want %+v", g.Key, g.Sum, g.Count, w)
				}
			}
		})
	}
}
