package exec

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/schema"
)

func host() *mem.Allocator { return mem.NewAllocator(mem.Host, 0) }

// sumOf runs a sum scan over pieces under cfg.
func sumOf(cfg Config, pieces []Piece) (float64, error) {
	r, err := solo(cfg, Scan{Plan: Plan{Op: KindSum}, Vals: pieces})
	return r.Sum, err
}

// groupSumOf runs a group_sum scan over aligned key and value pieces.
func groupSumOf(cfg Config, keys, vals []Piece) ([]GroupResult, error) {
	r, err := solo(cfg, Scan{Plan: Plan{Op: KindGroupSum}, Keys: keys, Vals: vals})
	return r.Groups, err
}

func itemSchema() *schema.Schema {
	return schema.MustNew(
		schema.Int64Attr("id"),
		schema.Int32Attr("warehouse"),
		schema.CharAttr("name", 8),
		schema.Float64Attr("price"),
	)
}

// buildLayout fills a layout in the given shape with n rows where
// price(i) = i%101 + 0.25 and id(i) = i.
func buildLayout(t *testing.T, lin layout.Linearization, vertical bool, n uint64) (*layout.Layout, float64) {
	t.Helper()
	s := itemSchema()
	var l *layout.Layout
	var err error
	if vertical {
		l, err = layout.Vertical(host(), "col", s, [][]int{{0}, {1}, {2}, {3}}, n,
			func([]int) layout.Linearization { return layout.Direct })
	} else {
		l, err = layout.Horizontal(host(), "row", s, n, n, lin)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := uint64(0); i < n; i++ {
		price := float64(i%101) + 0.25
		want += price
		rec := schema.Record{
			schema.IntValue(int64(i)),
			schema.Int32Value(int32(i % 7)),
			schema.CharValue("itm"),
			schema.FloatValue(price),
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
				t.Fatal(err)
			}
		}
	}
	return l, want
}

func TestColumnViewContiguity(t *testing.T) {
	l, _ := buildLayout(t, layout.NSM, false, 100)
	pieces, err := ColumnView(l, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 1 || pieces[0].Vec.Len != 100 {
		t.Fatalf("pieces = %+v", pieces)
	}
	if pieces[0].Vec.Contiguous() {
		t.Error("NSM column view should be strided")
	}
	lv, _ := buildLayout(t, layout.Direct, true, 100)
	pieces, err = ColumnView(lv, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !pieces[0].Vec.Contiguous() {
		t.Error("DSM-emulated column view should be contiguous")
	}
}

func TestColumnViewChunked(t *testing.T) {
	s := itemSchema()
	l, err := layout.Horizontal(host(), "chunks", s, 100, 32, layout.NSM)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		for _, f := range l.Fragments() {
			if f.Rows().Contains(i) {
				f.AppendTuplet([]schema.Value{
					schema.IntValue(int64(i)), schema.Int32Value(0),
					schema.CharValue("x"), schema.FloatValue(1),
				})
			}
		}
	}
	pieces, err := ColumnView(l, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 4 { // 32+32+32+4
		t.Fatalf("pieces = %d, want 4", len(pieces))
	}
	if pieces[3].Rows.Begin != 96 || pieces[3].Vec.Len != 4 {
		t.Fatalf("tail piece = %+v", pieces[3])
	}
	var sum int64
	for _, p := range pieces {
		for i := 0; i < p.Vec.Len; i++ {
			sum += p.Vec.Int(i)
		}
	}
	if sum != 99*100/2 {
		t.Fatalf("chunked sum = %d", sum)
	}
}

func TestColumnViewGap(t *testing.T) {
	s := itemSchema()
	l := layout.NewLayout("gap", s)
	f, _ := layout.NewFragment(host(), s, layout.AllCols(s), layout.RowRange{Begin: 0, End: 10}, layout.NSM)
	l.Add(f)
	// Fragment allocated for 10 rows but only 5 filled: view must not
	// read unfilled slots.
	for i := 0; i < 5; i++ {
		f.AppendTuplet([]schema.Value{
			schema.IntValue(int64(i)), schema.Int32Value(0),
			schema.CharValue("x"), schema.FloatValue(1),
		})
	}
	if _, err := ColumnView(l, 0, 10); !errors.Is(err, ErrGap) {
		t.Fatalf("unfilled view err = %v, want ErrGap", err)
	}
	pieces, err := ColumnView(l, 0, 5)
	if err != nil || totalLen(pieces) != 5 {
		t.Fatalf("filled prefix view: %v, len %d", err, totalLen(pieces))
	}
	// Entirely missing rows.
	if _, err := ColumnView(l, 0, 20); !errors.Is(err, ErrGap) {
		t.Fatalf("uncovered view err = %v", err)
	}
}

func TestSumFloat64AllPolicies(t *testing.T) {
	for _, vertical := range []bool{false, true} {
		l, want := buildLayout(t, layout.NSM, vertical, 1000)
		pieces, err := ColumnView(l, 3, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{Single(), Config{Policy: MultiThreaded}, MultiN(3), Morsel()} {
			got, err := sumOf(cfg, pieces)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-6 {
				t.Errorf("vertical=%v cfg=%v: sum = %v, want %v", vertical, cfg.Policy, got, want)
			}
		}
	}
}

func TestSumRejectsWrongWidth(t *testing.T) {
	l, _ := buildLayout(t, layout.NSM, false, 10)
	pieces, _ := ColumnView(l, 1, 10) // int32 column
	if _, err := sumOf(Single(), pieces); !errors.Is(err, ErrBadColumn) {
		t.Errorf("float sum err = %v", err)
	}
	if _, err := SelectFloat64Pred(Single(), pieces, Lt(1)); !errors.Is(err, ErrBadColumn) {
		t.Errorf("select err = %v", err)
	}
	if _, err := CountFloat64(Single(), pieces, func(float64) bool { return true }); !errors.Is(err, ErrBadColumn) {
		t.Errorf("count err = %v", err)
	}
}

func TestMaterialize(t *testing.T) {
	l, _ := buildLayout(t, layout.NSM, false, 500)
	positions := []uint64{0, 42, 499}
	for _, cfg := range []Config{Single(), MultiN(8), Morsel()} {
		recs, err := Materialize(cfg, l, positions)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 3 {
			t.Fatalf("materialized %d", len(recs))
		}
		for i, pos := range positions {
			if recs[i][0].I != int64(pos) {
				t.Errorf("rec %d id = %d, want %d", i, recs[i][0].I, pos)
			}
		}
	}
	if _, err := Materialize(Single(), l, []uint64{1000}); err == nil {
		t.Error("out-of-range position accepted")
	}
	if _, err := Materialize(Config{Policy: MultiThreaded}, l, []uint64{0, 1000}); err == nil {
		t.Error("multi-threaded out-of-range position accepted")
	}
}

func TestSelectFloat64(t *testing.T) {
	l, _ := buildLayout(t, layout.NSM, false, 300)
	pieces, _ := ColumnView(l, 3, 300)
	for _, cfg := range []Config{Single(), MultiN(8), Morsel()} {
		pos, err := selectPred(cfg, pieces, Lt(1))
		if err != nil {
			t.Fatal(err)
		}
		// price(i) = i%101 + 0.25 < 1 ⟺ i%101 == 0 → i ∈ {0,101,202}.
		want := []uint64{0, 101, 202}
		if len(pos) != len(want) {
			t.Fatalf("cfg=%v positions = %v", cfg.Policy, pos)
		}
		for i := range want {
			if pos[i] != want[i] {
				t.Fatalf("cfg=%v positions = %v, want %v", cfg.Policy, pos, want)
			}
		}
	}
}

func TestCountFloat64(t *testing.T) {
	l, _ := buildLayout(t, layout.NSM, false, 100)
	prices, _ := ColumnView(l, 3, 100)
	n, err := CountFloat64(Single(), prices, func(x float64) bool { return x > 50 })
	if err != nil {
		t.Fatal(err)
	}
	// price(i) = i%101 + 0.25 > 50 ⟺ i%101 >= 50 → i ∈ {50..99}: 50 rows.
	if n != 50 {
		t.Fatalf("count = %d, want 50", n)
	}
}

func TestVolcanoIterator(t *testing.T) {
	l, want := buildLayout(t, layout.NSM, false, 200)
	it := NewRowIterator(l, 200)
	got, err := SumFloat64Volcano(it, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("volcano sum = %v, want %v", got, want)
	}
	it.Reset()
	rec, err := it.Next()
	if err != nil || rec[0].I != 0 {
		t.Fatalf("after Reset: %v, %v", rec, err)
	}
}

func TestSimulatedTimeCharging(t *testing.T) {
	l, _ := buildLayout(t, layout.Direct, true, 10_000)
	pieces, _ := ColumnView(l, 3, 10_000)
	var clk perfmodel.Clock
	cfg := Config{Policy: SingleThreaded, Host: perfmodel.DefaultHost(), Clock: &clk}
	if _, err := sumOf(cfg, pieces); err != nil {
		t.Fatal(err)
	}
	if clk.ElapsedNs() <= 0 {
		t.Fatal("no simulated time charged")
	}
	single := clk.ElapsedNs()
	clk.Reset()
	cfg.Policy, cfg.Threads = MultiThreaded, 8
	if _, err := sumOf(cfg, pieces); err != nil {
		t.Fatal(err)
	}
	multi := clk.ElapsedNs()
	// 10k rows is tiny: thread management must dominate (paper finding i).
	if multi <= single {
		t.Errorf("tiny input: multi %.0f <= single %.0f ns", multi, single)
	}
	// Materialization charging.
	clk.Reset()
	if _, err := Materialize(Config{Policy: SingleThreaded, Host: perfmodel.DefaultHost(), Clock: &clk}, l, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if clk.ElapsedNs() <= 0 {
		t.Error("materialize charged no time")
	}
}

func TestPolicyString(t *testing.T) {
	if SingleThreaded.String() != "single-threaded" || MultiThreaded.String() != "multi-threaded" ||
		MorselDriven.String() != "morsel-driven" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy String empty")
	}
}

// Property: for random row counts and thread counts, the parallel sum
// equals the sequential sum on the same layout.
func TestQuickParallelEqualsSequential(t *testing.T) {
	f := func(seed int64, nRaw uint16, threadsRaw uint8, vertical bool) bool {
		n := uint64(nRaw)%3000 + 1
		threads := int(threadsRaw)%15 + 2
		r := rand.New(rand.NewSource(seed))
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
			return false
		}
		for i := uint64(0); i < n; i++ {
			rec := schema.Record{
				schema.IntValue(r.Int63n(1000)), schema.Int32Value(0),
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
				if f.AppendTuplet(vals) != nil {
					return false
				}
			}
		}
		pieces, err := ColumnView(l, 3, n)
		if err != nil {
			return false
		}
		seq, err1 := sumOf(Single(), pieces)
		par, err2 := sumOf(Config{Policy: MultiThreaded, Threads: threads}, pieces)
		return err1 == nil && err2 == nil && math.Abs(seq-par) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
