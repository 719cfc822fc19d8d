package exec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridstore/internal/exec/pool"
	"hybridstore/internal/layout"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/schema"
)

// forceMorsels shrinks the morsel granularity and grows the pool so that
// even the small layouts tests build dispatch as multi-morsel jobs on
// real pool workers (this container has one CPU, so the defaults would
// take the inline single-morsel fast path everywhere).
func forceMorsels(t *testing.T, morsel, workers int) {
	t.Helper()
	pool.SetMorselSize(morsel)
	pool.SetWorkers(workers)
	t.Cleanup(func() {
		pool.SetMorselSize(0)
		pool.SetWorkers(0)
	})
}

// buildRandomLayout fills a layout with n random rows and returns it;
// chunked horizontal layouts produce multi-piece column views.
func buildRandomLayout(r *rand.Rand, n uint64, vertical bool) (*layout.Layout, error) {
	s := itemSchema()
	var l *layout.Layout
	var err error
	if vertical {
		l, err = layout.Vertical(host(), "v", s, [][]int{{0}, {1}, {2}, {3}}, n,
			func([]int) layout.Linearization { return layout.Direct })
	} else {
		chunk := n/3 + 1
		l, err = layout.Horizontal(host(), "h", s, n, chunk, layout.NSM)
	}
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		rec := schema.Record{
			schema.IntValue(r.Int63n(1000)), schema.Int32Value(int32(r.Intn(5))),
			schema.CharValue("x"), schema.FloatValue(math.Floor(r.Float64() * 100)),
		}
		for _, f := range l.Fragments() {
			if !f.Rows().Contains(i) {
				continue
			}
			vals := make([]schema.Value, 0, f.Arity())
			for _, c := range f.Cols() {
				vals = append(vals, rec[c])
			}
			if err := f.AppendTuplet(vals); err != nil {
				return nil, err
			}
		}
	}
	return l, nil
}

// TestQuickMorselEqualsSequential is the ISSUE's property test: for
// random layouts, every operator returns identical results under
// MorselDriven and SingleThreaded — sums, selections, counts, extrema,
// materialization and grouped aggregation.
func TestQuickMorselEqualsSequential(t *testing.T) {
	forceMorsels(t, 64, 4)
	f := func(seed int64, nRaw uint16, vertical bool) bool {
		n := uint64(nRaw)%3000 + 1
		r := rand.New(rand.NewSource(seed))
		l, err := buildRandomLayout(r, n, vertical)
		if err != nil {
			return false
		}
		prices, err := ColumnView(l, 3, n)
		if err != nil {
			return false
		}
		warehouses, err := ColumnView(l, 1, n)
		if err != nil {
			return false
		}
		single, morsel := Single(), Morsel()

		s1, e1 := SumFloat64(single, prices)
		s2, e2 := SumFloat64(morsel, prices)
		if e1 != nil || e2 != nil || math.Abs(s1-s2) > 1e-6 {
			t.Logf("SumFloat64: %v/%v vs %v/%v", s1, e1, s2, e2)
			return false
		}
		pred := func(x float64) bool { return x < 50 }
		p1, e1 := SelectFloat64(single, prices, pred)
		p2, e2 := SelectFloat64(morsel, prices, pred)
		if e1 != nil || e2 != nil || !equalPositions(p1, p2) {
			t.Logf("SelectFloat64: %d vs %d matches", len(p1), len(p2))
			return false
		}
		c1, e1 := CountFloat64(single, prices, pred)
		c2, e2 := CountFloat64(morsel, prices, pred)
		if e1 != nil || e2 != nil || c1 != c2 {
			t.Logf("CountFloat64: %d vs %d", c1, c2)
			return false
		}
		r1, e1 := Materialize(single, l, p1)
		r2, e2 := Materialize(morsel, l, p2)
		if e1 != nil || e2 != nil || len(r1) != len(r2) {
			return false
		}
		for i := range r1 {
			if r1[i][0].I != r2[i][0].I || r1[i][3].F != r2[i][3].F {
				return false
			}
		}
		g1, e1 := GroupSumFloat64(single, warehouses, prices)
		g2, e2 := GroupSumFloat64(morsel, warehouses, prices)
		if e1 != nil || e2 != nil || len(g1) != len(g2) {
			t.Logf("GroupSum: %d vs %d groups", len(g1), len(g2))
			return false
		}
		for i := range g1 {
			if g1[i].Key != g2[i].Key || g1[i].Count != g2[i].Count ||
				math.Abs(g1[i].Sum-g2[i].Sum) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func equalPositions(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPoolHygieneNoRowLeaks is the ISSUE's buffer-hygiene test: a query
// with a large result fills the recycled position and partial buffers,
// and subsequent queries with tiny or empty results must not see any of
// those rows or partial sums again.
func TestPoolHygieneNoRowLeaks(t *testing.T) {
	forceMorsels(t, 32, 4)
	l, _ := buildLayout(t, layout.NSM, false, 2000)
	prices, err := ColumnView(l, 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// Query 1: ~all rows match, stuffing pooled buffers with positions
	// and every partial-sum slot with non-zero values.
	big, err := SelectFloat64(Morsel(), prices, func(x float64) bool { return x >= 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(big) != 2000 {
		t.Fatalf("query 1 matched %d rows, want 2000", len(big))
	}
	// Query 2: zero matches. Any leaked row from query 1 shows up here.
	none, err := SelectFloat64(Morsel(), prices, func(x float64) bool { return x < 0 })
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("empty query leaked %d recycled rows: %v", len(none), none[:min(4, len(none))])
	}
	// Query 3: three known matches; recycled buffers must contribute
	// nothing beyond them. price(i) = i%101+0.25 < 1 ⟺ i%101 == 0.
	few, err := SelectFloat64(Morsel(), prices, func(x float64) bool { return x < 1 })
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0, 101, 202, 303, 404, 505, 606, 707, 808, 909,
		1010, 1111, 1212, 1313, 1414, 1515, 1616, 1717, 1818, 1919}
	if !equalPositions(few, want) {
		t.Fatalf("selective query = %v, want %v", few, want)
	}
	// Partial-sum hygiene: repeated sums must stay exact even though
	// earlier queries left non-zero partials in the recycled scratch.
	sum1, err := SumFloat64(Single(), prices)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sumN, err := SumFloat64(Morsel(), prices)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sumN-sum1) > 1e-6 {
			t.Fatalf("iteration %d: recycled partials drifted: %v vs %v", i, sumN, sum1)
		}
	}
}

// TestMorselChargingAmortizesManagement checks the simulated-time
// interaction: on a tiny input the morsel policy must charge close to
// the single-threaded cost (one pool wake, no per-thread management),
// strictly between single and the paper's 8-thread blockwise policy.
func TestMorselChargingAmortizesManagement(t *testing.T) {
	l, _ := buildLayout(t, layout.Direct, true, 10_000)
	pieces, _ := ColumnView(l, 3, 10_000)
	h := perfmodel.DefaultHost()
	run := func(cfg Config) float64 {
		var clk perfmodel.Clock
		cfg.Host, cfg.Clock = h, &clk
		if _, err := SumFloat64(cfg, pieces); err != nil {
			t.Fatal(err)
		}
		return clk.ElapsedNs()
	}
	single := run(Single())
	multi := run(MultiN(8))
	morsel := run(Morsel())
	if morsel <= single {
		t.Errorf("morsel %.0f <= single %.0f ns: the pool wake must cost something", morsel, single)
	}
	if morsel >= multi {
		t.Errorf("morsel %.0f >= blockwise %.0f ns on a tiny input: amortization failed", morsel, multi)
	}
	// The wake overhead is microseconds, not the ~100µs of 8 spawns.
	if morsel-single > 10*h.PoolWakeNs {
		t.Errorf("morsel overhead %.0f ns, want within ~10 wakes", morsel-single)
	}
}

// TestMorselMaterializeError checks error propagation through the pool.
func TestMorselMaterializeError(t *testing.T) {
	forceMorsels(t, 16, 3)
	l, _ := buildLayout(t, layout.NSM, false, 100)
	positions := make([]uint64, 90)
	for i := range positions {
		positions[i] = uint64(i)
	}
	positions[77] = 5000 // out of range
	if _, err := Materialize(Morsel(), l, positions); err == nil {
		t.Fatal("out-of-range position accepted under MorselDriven")
	}
}
