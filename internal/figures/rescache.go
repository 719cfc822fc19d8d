package figures

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hybridstore/internal/core"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/schema"
	"hybridstore/internal/workload"
)

// The resultcache panel measures the version-stamped cross-request
// result cache on the serving path: twin engines — one with the cache,
// one without — execute an identical operation sequence, and every
// answer pair is compared bit for bit. An aggregate's entry is its
// settled base, the answer over the base fragments before the MVCC
// patch, which every request replays on its own. Three legs span the
// reuse spectrum:
//
//   - read-heavy: pure repeats of a small dashboard cut set over a
//     merged table. A hit is one epoch compare and an empty patch
//     instead of a column scan — this is the headline p50 speedup.
//   - mixed: every 8th query a point write lands and is merged. Merges
//     move the base epoch, so cached bases go stale and are recomputed
//     and re-published — the leg exercises invalidation-by-epoch under
//     a realistic HTAP rhythm.
//   - write-storm: a write lands before every query and nothing merges.
//     The base never moves, so past the first miss per plan every query
//     reuses its settled base and replays a patch that grows by one row
//     per query — the leg proves a patched hit is the uncached answer
//     to the bit however fast the deltas pile up.
//
// Correctness is structural, not sampled: a single divergent bit in any
// leg fails the measurement, and the cache's own accounting must
// satisfy hits+misses == lookups with stale counted on every
// invalidation.

// ResultCacheLeg is one workload leg of the sweep.
type ResultCacheLeg struct {
	// Name is "read-heavy", "mixed" or "write-storm".
	Name string
	// Queries is the number of timed query pairs the leg executed.
	Queries int
	// CachedP50Ns and UncachedP50Ns are the median per-query latencies
	// of the cached and uncached engines.
	CachedP50Ns, UncachedP50Ns float64
	// Speedup is UncachedP50Ns / CachedP50Ns.
	Speedup float64
	// Cache accounting deltas over the leg (cached engine only).
	Lookups, Hits, Misses, Stale int64
	// BitIdentical reports that every cached answer equalled the
	// uncached answer bit for bit.
	BitIdentical bool
}

// ResultCacheSweep is the full panel.
type ResultCacheSweep struct {
	// Rows is the item-table size; ChunkRows the fragment granularity.
	Rows, ChunkRows uint64
	// CacheBytes is the cache capacity the cached engine ran with.
	CacheBytes int64
	Legs       []ResultCacheLeg
}

// MeasureResultCache executes the sweep for real. rows is the item
// table size; queriesPerLeg the number of timed query pairs per leg.
func MeasureResultCache(rows uint64, queriesPerLeg int) (*ResultCacheSweep, error) {
	const chunkRows = 4096
	const cacheBytes = 64 << 20
	sweep := &ResultCacheSweep{Rows: rows, ChunkRows: chunkRows, CacheBytes: cacheBytes}

	// Twin engines: identical data, one result cache between them.
	engC := core.New(engine.NewEnv(), core.Options{ChunkRows: chunkRows, ResultCacheBytes: cacheBytes})
	engP := core.New(engine.NewEnv(), core.Options{ChunkRows: chunkRows})
	var twins [2]*core.Table // cached, uncached
	for i, eng := range []*core.Engine{engC, engP} {
		t, err := eng.Create("item", workload.ItemSchema())
		if err != nil {
			return nil, err
		}
		twins[i] = t.(*core.Table)
		defer twins[i].Free()
	}
	both := func(f func(t *core.Table) error) error {
		if err := f(twins[0]); err != nil {
			return err
		}
		return f(twins[1])
	}
	for i := uint64(0); i < rows; i++ {
		rec := workload.Item(i)
		if err := both(func(t *core.Table) error { _, err := t.Insert(rec); return err }); err != nil {
			return nil, err
		}
	}
	if err := both(func(t *core.Table) error { return t.Merge() }); err != nil {
		return nil, err
	}

	// The dashboard cut set, inside the generator's price domain
	// [1, 101): repeats across queries are what the cache monetizes.
	preds := []exec.Pred{
		exec.Lt(30),
		exec.Gt(50),
		exec.Between(10, 60),
		exec.Between(42, 42), // normalizes to eq(42)
	}
	const keyCol = 1 // i_im_id, the grouping key

	// runLeg runs every query pair of a leg on both engines, times each
	// side, and verifies bit-identity. Every 4th query is the fused
	// group-by.
	runLeg := func(name string, pre func(q int) error) error {
		leg := ResultCacheLeg{Name: name, BitIdentical: true}
		s0 := engC.ResultCache().Stats()
		var ns [2][]float64
		for q := 0; q < queriesPerLeg; q++ {
			if pre != nil {
				if err := pre(q); err != nil {
					return err
				}
			}
			plan := exec.Plan{Op: exec.KindSumWhere, Col: workload.ItemPriceCol, Pred: preds[q%len(preds)]}
			if q%4 == 3 {
				plan.Op, plan.KeyCol = exec.KindGroupSumWhere, keyCol
			}
			var answers [2]exec.Result
			for i, t := range twins {
				t0 := time.Now()
				res, err := t.Scan(plan)
				ns[i] = append(ns[i], float64(time.Since(t0).Nanoseconds()))
				if err != nil {
					return err
				}
				answers[i] = res
			}
			if !sameBits(answers[0], answers[1]) {
				leg.BitIdentical = false
			}
			leg.Queries++
		}
		s1 := engC.ResultCache().Stats()
		leg.Lookups = s1.Lookups - s0.Lookups
		leg.Hits = s1.Hits - s0.Hits
		leg.Misses = s1.Misses - s0.Misses
		leg.Stale = s1.Stale - s0.Stale
		leg.CachedP50Ns = p50(ns[0])
		leg.UncachedP50Ns = p50(ns[1])
		leg.Speedup = leg.UncachedP50Ns / math.Max(leg.CachedP50Ns, 1)
		sweep.Legs = append(sweep.Legs, leg)
		return nil
	}

	// Leg 1 — read-heavy: pure repeats over a quiesced table.
	if err := runLeg("read-heavy", nil); err != nil {
		return nil, err
	}

	// Leg 2 — mixed: every 8th query a point write lands and is merged,
	// so the cut set repeats inside each epoch (hits) and every merge
	// moves the epoch under published bases (stale). Both engines take
	// identical writes so answers stay comparable.
	wrow := uint64(0)
	err := runLeg("mixed", func(q int) error {
		if q%8 != 0 {
			return nil
		}
		wrow = (wrow + 7919) % rows
		v := schema.FloatValue(float64(30 + q%40))
		return both(func(t *core.Table) error {
			if err := t.Update(wrow, workload.ItemPriceCol, v); err != nil {
				return err
			}
			return t.Merge()
		})
	})
	if err != nil {
		return nil, err
	}

	// Leg 3 — write-storm: a write lands before every single query, and
	// no merge folds it: the settled bases stay current, the patch grows.
	err = runLeg("write-storm", func(q int) error {
		wrow = (wrow + 104729) % rows
		v := schema.FloatValue(float64(1 + q%100))
		return both(func(t *core.Table) error {
			return t.Update(wrow, workload.ItemPriceCol, v)
		})
	})
	if err != nil {
		return nil, err
	}
	return sweep, nil
}

// p50 is the median of xs (xs is consumed).
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// sameBits reports whether two answers are identical bit for bit.
func sameBits(a, b exec.Result) bool {
	if math.Float64bits(a.Sum) != math.Float64bits(b.Sum) || a.Count != b.Count || len(a.Groups) != len(b.Groups) {
		return false
	}
	for i, g := range a.Groups {
		if h := b.Groups[i]; g.Key != h.Key || g.Count != h.Count || math.Float64bits(g.Sum) != math.Float64bits(h.Sum) {
			return false
		}
	}
	return true
}

// Tables renders the sweep, one row per leg.
func (s *ResultCacheSweep) Tables() []Table {
	t := Table{
		Caption: []string{
			fmt.Sprintf("resultcache panel: version-stamped result cache, %d item rows (%d-row chunks, %d B cache)",
				s.Rows, s.ChunkRows, s.CacheBytes),
			"twin engines run identical ops; every cached answer is bit-compared against uncached execution",
		},
		Columns: []Column{
			{CSV: "leg", Text: "leg"},
			{CSV: "queries", Text: "queries"},
			{CSV: "cached_p50_us", CSVVerb: "%.1f", Text: "cached p50", TextVerb: "%.1fµs"},
			{CSV: "uncached_p50_us", CSVVerb: "%.1f", Text: "uncached p50", TextVerb: "%.1fµs"},
			{CSV: "speedup", CSVVerb: "%.2f", Text: "speedup", TextVerb: "%.1fx"},
			{CSV: "lookups"},
			{CSV: "hits", Text: "hits"},
			{CSV: "misses", Text: "misses"},
			{CSV: "stale", Text: "stale"},
			{CSV: "bit_identical", Text: "bit-identical"},
		},
	}
	for _, l := range s.Legs {
		t.Rows = append(t.Rows, []any{l.Name, l.Queries, l.CachedP50Ns / 1e3, l.UncachedP50Ns / 1e3, l.Speedup,
			l.Lookups, l.Hits, l.Misses, l.Stale, l.BitIdentical})
	}
	return []Table{t}
}
