package all

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/engines/hyper"
	"hybridstore/internal/engines/lstore"
	"hybridstore/internal/exec"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// TestConcurrentMixedWorkload is the engine concurrency property:
// 16 goroutines of mixed point writes, predicate aggregations and fused
// group-bys — with compaction/merge maintenance racing them — must never
// trip the race detector, never return a malformed mid-flight answer,
// and must leave the table in exactly the state a serial replay of the
// writes produces. Runs on the three engines that synchronise their
// own tables: the reference engine (the one the facade and the server
// open), HyPer and L-Store.
//
// Writers own disjoint row partitions and each ends on a deterministic
// final value, so the final state is independent of interleaving. All
// written prices are integer-valued floats, so aggregate sums are exact
// in any accumulation order and compare bit-for-bit against the replay.
func TestConcurrentMixedWorkload(t *testing.T) {
	const (
		n        = 512
		writers  = 8           // goroutines updating disjoint partitions
		scanners = 5           // sum_where loops
		groupers = 2           // group_sum_where loops
		part     = n / writers // rows per writer
		keyCol   = 1           // int32 group key column
		groups   = 7
	)
	const rounds = 12 // update rounds per writer
	// finalPrice is each writer's deterministic last write per row.
	finalPrice := func(row uint64) float64 { return float64(row % 97) }
	preds := []exec.Pred{
		exec.Lt(40),
		exec.Gt(60),
		exec.Between(10, 80),
		exec.Eq(13),
		exec.Between(5000, 6000), // empty against all written values
	}
	makers := []struct {
		name string
		make func(env *engine.Env) engine.Engine
	}{
		{"core", func(env *engine.Env) engine.Engine {
			return core.New(env, core.Options{ChunkRows: 128})
		}},
		{"HyPer", func(env *engine.Env) engine.Engine { return hyper.New(env, 128) }},
		{"L-Store", func(env *engine.Env) engine.Engine { return lstore.New(env) }},
	}
	for _, m := range makers {
		m := m
		t.Run(m.name, func(t *testing.T) {
			env := engine.NewEnv()
			tbl := loadItems(t, m.make(env), n)
			defer tbl.Free()
			for row := uint64(0); row < n; row++ {
				if err := tbl.Update(row, keyCol, schema.Int32Value(int32(row%groups))); err != nil {
					t.Fatalf("seed key %d: %v", row, err)
				}
			}
			seal := func() error {
				if c, ok := tbl.(interface{ Compact() (int, error) }); ok {
					if _, err := c.Compact(); err != nil {
						return err
					}
				}
				if mg, ok := tbl.(interface{ Merge() error }); ok {
					return mg.Merge()
				}
				return nil
			}
			if err := seal(); err != nil {
				t.Fatalf("seal: %v", err)
			}

			var (
				done     atomic.Bool // set when writers finish or anything fails
				writerWG sync.WaitGroup
				loopWG   sync.WaitGroup
				errOnce  sync.Once
				firstErr error
			)
			fail := func(err error) {
				errOnce.Do(func() { firstErr = err })
				done.Store(true)
			}

			// Writers: disjoint partitions, integer-valued prices, a
			// deterministic final write per row.
			for w := 0; w < writers; w++ {
				w := w
				writerWG.Add(1)
				go func() {
					defer writerWG.Done()
					lo := uint64(w * part)
					for iter := 0; iter < rounds && !done.Load(); iter++ {
						for off := uint64(0); off < part; off++ {
							row := lo + off
							v := float64((w*131 + iter*17 + int(off)) % 500)
							if iter == rounds-1 {
								v = finalPrice(row)
							}
							if err := tbl.Update(row, workload.ItemPriceCol, schema.FloatValue(v)); err != nil {
								fail(err)
								return
							}
						}
						// Stretch the write phase so scans and merges
						// genuinely interleave with it.
						time.Sleep(200 * time.Microsecond)
					}
				}()
			}

			// Maintenance: fold deltas into base storage while writes and
			// scans are in flight. Paced — merges are O(table) and a hot
			// loop would dominate the run without adding interleavings.
			loopWG.Add(1)
			go func() {
				defer loopWG.Done()
				for !done.Load() {
					if err := seal(); err != nil {
						fail(err)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()

			// Scanners: every mid-flight answer must be well-formed — a
			// finite sum, a count within [0, n], the empty predicate
			// staying empty — even though the exact value races writers.
			for s := 0; s < scanners; s++ {
				s := s
				loopWG.Add(1)
				go func() {
					defer loopWG.Done()
					r := rand.New(rand.NewSource(int64(1000 + s)))
					for !done.Load() {
						k := r.Intn(len(preds))
						p := preds[k]
						sum, cnt, err := sumWhere(tbl, workload.ItemPriceCol, p)
						if err != nil {
							fail(err)
							return
						}
						if math.IsNaN(sum) || math.IsInf(sum, 0) || cnt < 0 || cnt > n {
							t.Errorf("mid-flight sum malformed: (%v, %d)", sum, cnt)
							done.Store(true)
							return
						}
						if k == len(preds)-1 && (cnt != 0 || sum != 0) {
							t.Errorf("empty predicate matched mid-flight: (%v, %d)", sum, cnt)
							done.Store(true)
							return
						}
						// Yield between scans: a continuous reader stream
						// would serialize every write behind a full scan.
						time.Sleep(100 * time.Microsecond)
					}
				}()
			}

			// Group-by scanners: keys sorted and in-domain, cardinalities
			// within [1, n], totals no larger than the table.
			for g := 0; g < groupers; g++ {
				g := g
				loopWG.Add(1)
				go func() {
					defer loopWG.Done()
					r := rand.New(rand.NewSource(int64(2000 + g)))
					for !done.Load() {
						p := preds[r.Intn(len(preds))]
						res, err := groupSumWhere(tbl, keyCol, workload.ItemPriceCol, p)
						if err != nil {
							fail(err)
							return
						}
						var total int64
						for i, gr := range res {
							if i > 0 && res[i-1].Key >= gr.Key {
								t.Errorf("group keys out of order: %v", res)
								done.Store(true)
								return
							}
							if gr.Key < 0 || gr.Key >= groups || gr.Count < 1 || gr.Count > n {
								t.Errorf("malformed group %+v", gr)
								done.Store(true)
								return
							}
							total += gr.Count
						}
						if total > n {
							t.Errorf("group counts total %d > %d rows", total, n)
							done.Store(true)
							return
						}
						time.Sleep(100 * time.Microsecond)
					}
				}()
			}

			writerWG.Wait()
			done.Store(true)
			loopWG.Wait()
			if firstErr != nil {
				t.Fatalf("concurrent phase: %v", firstErr)
			}
			if t.Failed() {
				return
			}
			if err := seal(); err != nil {
				t.Fatalf("final seal: %v", err)
			}

			// Serial replay: the quiesced table must equal the final write
			// set exactly — point reads, predicate aggregates, and grouped
			// aggregates, all bit-identical.
			prices := make([]float64, n)
			for row := uint64(0); row < n; row++ {
				prices[row] = finalPrice(row)
				rec, err := tbl.Get(row)
				if err != nil {
					t.Fatalf("Get(%d): %v", row, err)
				}
				if got := rec[workload.ItemPriceCol].F; math.Float64bits(got) != math.Float64bits(prices[row]) {
					t.Fatalf("row %d: price %v, want %v", row, got, prices[row])
				}
			}
			for k, p := range preds {
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
					t.Fatalf("final SumFloat64Where(%v): %v", p, err)
				}
				if gotSum != wantSum || gotN != wantN {
					t.Errorf("pred %d (%v): final (%v, %d), replay (%v, %d)", k, p, gotSum, gotN, wantSum, wantN)
				}
				want := make(map[int64]*exec.GroupResult)
				for row, x := range prices {
					if !p.Match(x) {
						continue
					}
					key := int64(row % groups)
					gr := want[key]
					if gr == nil {
						gr = &exec.GroupResult{Key: key}
						want[key] = gr
					}
					gr.Sum += x
					gr.Count++
				}
				res, err := groupSumWhere(tbl, keyCol, workload.ItemPriceCol, p)
				if err != nil {
					t.Fatalf("final GroupSumFloat64Where(%v): %v", p, err)
				}
				if len(res) != len(want) {
					t.Fatalf("pred %d: %d groups, replay has %d", k, len(res), len(want))
				}
				for _, gr := range res {
					w := want[gr.Key]
					if w == nil || gr.Sum != w.Sum || gr.Count != w.Count {
						t.Errorf("pred %d group %d: (%v, %d), replay %+v", k, gr.Key, gr.Sum, gr.Count, w)
					}
				}
			}
		})
	}
}
