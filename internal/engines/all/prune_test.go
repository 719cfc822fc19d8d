package all

import (
	"math"
	"math/rand"
	"testing"

	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/obs"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// randomPred draws a predicate over the item price domain ([1, ~7) for
// the row counts used here, plus post-update outliers around 500-800),
// spanning empty, sliver, moderate and full-range selectivities.
func randomPred(r *rand.Rand) exec.Pred {
	switch r.Intn(6) {
	case 0:
		return exec.Eq(workload.ItemPrice(uint64(r.Intn(1000))))
	case 1:
		return exec.Lt(r.Float64() * 9)
	case 2:
		return exec.Gt(r.Float64() * 9)
	case 3:
		lo := 1 + r.Float64()*6
		return exec.Between(lo, lo+r.Float64()*1.5)
	case 4:
		// Catches only the post-update outliers (if any match).
		return exec.Gt(100)
	default:
		// Provably empty between the generated domain and the outliers.
		return exec.Between(20, 30)
	}
}

// TestPrunePropertyAllEngines is the zone-map correctness property: for
// randomized predicates across all selectivities, the pruned fused
// operators must return exactly the answer the record-centric path
// computes row by row — on every surveyed engine plus the reference
// engine, under every host execution policy. Counts are compared
// bit-exactly; sums to a float tolerance (the accumulation order over
// partitions differs from the sequential ground-truth loop).
func TestPrunePropertyAllEngines(t *testing.T) {
	const n = 600
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
					tbl := loadItems(t, e, n)
					defer tbl.Free()
					// Seal zones at the engine's natural freeze point first…
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
					// …then update through it: outliers far outside the
					// sealed bounds exercise widening, invalidation and the
					// delta/tail patch paths under pruning.
					for _, row := range []uint64{5, 99, 300} {
						if err := tbl.Update(row, workload.ItemPriceCol, schema.FloatValue(float64(row)+500)); err != nil {
							t.Fatalf("Update(%d): %v", row, err)
						}
					}

					// One record-centric pass caches the authoritative
					// column; every predicate checks against it.
					prices := make([]float64, n)
					for row := uint64(0); row < n; row++ {
						rec, err := tbl.Get(row)
						if err != nil {
							t.Fatalf("Get(%d): %v", row, err)
						}
						prices[row] = rec[workload.ItemPriceCol].F
					}

					r := rand.New(rand.NewSource(int64(31*len(e.Name())) + int64(policy)))
					for i := 0; i < 24; i++ {
						p := randomPred(r)
						var wantSum float64
						var wantN int64
						for _, x := range prices {
							if p.Match(x) {
								wantSum += x
								wantN++
							}
						}
						gotSum, gotN, err := sumWhere(tbl, workload.ItemPriceCol, p)
						if err != nil {
							t.Fatalf("sum_where(%v): %v", p, err)
						}
						if gotN != wantN {
							t.Errorf("%v: count = %d, want %d", p, gotN, wantN)
						}
						if math.Abs(gotSum-wantSum) > 1e-6 {
							t.Errorf("%v: sum = %v, want %v", p, gotSum, wantSum)
						}
					}
				})
			}
		})
	}
	// The monotone price data gives every engine narrow per-fragment
	// zones, so the range predicates above must have pruned somewhere.
	after := obs.TakeSnapshot()
	if after.Counter("exec.zonemap.pruned") <= before.Counter("exec.zonemap.pruned") {
		t.Error("exec.zonemap.pruned did not advance over the property suite")
	}
	if after.Counter("exec.zonemap.scanned") <= before.Counter("exec.zonemap.scanned") {
		t.Error("exec.zonemap.scanned did not advance over the property suite")
	}
}

// TestPruneSelectionMatchesClosureSelect pins the specialized
// selection kernel to the generic closure path bit-for-bit: position
// lists are integers, so pruned and unpruned executions must agree
// exactly over the pieces every engine that scans raw host columns
// hands the scan body (the operator pair has its own test over chunked
// NSM and DSM views in internal/exec).
func TestPruneSelectionMatchesClosureSelect(t *testing.T) {
	const n = 500
	env := engine.NewEnv()
	for _, e := range Engines(env) {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			tbl := loadItems(t, e, n)
			defer tbl.Free()
			src, ok := tbl.(engine.Source)
			if !ok {
				t.Skipf("%s is not a piece source", e.Name())
			}
			_, pieces, err := src.Pieces(exec.Plan{Op: exec.KindSumWhere, Col: workload.ItemPriceCol})
			if err != nil {
				t.Fatal(err)
			}
			for _, pc := range pieces {
				if pc.Place != exec.OnHost || pc.Comp != nil {
					t.Skipf("%s scans placed or compressed pieces; selection takes raw host ones", e.Name())
				}
			}
			for _, p := range []exec.Pred{
				exec.Between(2, 3),
				exec.Lt(1.5),
				exec.Gt(4.25),
				exec.Eq(workload.ItemPrice(123)),
				exec.Between(20, 30),
			} {
				sv, err := exec.SelectFloat64Pred(exec.Single(), pieces, p)
				if err != nil {
					t.Fatalf("SelectFloat64Pred(%v): %v", p, err)
				}
				want, err := exec.SelectFloat64(exec.Single(), pieces, p.Match)
				if err != nil {
					t.Fatalf("SelectFloat64(%v): %v", p, err)
				}
				got := sv.Positions()
				if len(got) != len(want) {
					t.Fatalf("%v: %d positions, want %d", p, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v: position[%d] = %d, want %d", p, i, got[i], want[i])
					}
				}
				sv.Release()
			}
		})
	}
}
