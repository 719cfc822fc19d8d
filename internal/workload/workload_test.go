package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridstore/internal/schema"
)

// TestCustomerGeometryMatchesPaper pins the paper's record geometry: "a
// customer record has a size of 96 bytes for 21 fields".
func TestCustomerGeometryMatchesPaper(t *testing.T) {
	s := CustomerSchema()
	if s.Arity() != 21 {
		t.Errorf("customer arity = %d, want 21", s.Arity())
	}
	if s.Width() != 96 {
		t.Errorf("customer width = %d, want 96", s.Width())
	}
}

// TestItemGeometryMatchesPaper pins "an item record has a size of 20
// bytes for 4 fields + 8 bytes for the price field".
func TestItemGeometryMatchesPaper(t *testing.T) {
	s := ItemSchema()
	if s.Arity() != 5 {
		t.Errorf("item arity = %d, want 5 (4 fields + price)", s.Arity())
	}
	if s.Width() != 28 {
		t.Errorf("item width = %d, want 28", s.Width())
	}
	if s.Attr(ItemPriceCol).Name != "i_price" || s.Attr(ItemPriceCol).Size != 8 {
		t.Errorf("price column misplaced: %v", s.Attr(ItemPriceCol))
	}
	nonPrice := s.Width() - s.Attr(ItemPriceCol).Size
	if nonPrice != 20 {
		t.Errorf("non-price bytes = %d, want 20", nonPrice)
	}
}

func TestRecordsMatchSchemas(t *testing.T) {
	cs, is := CustomerSchema(), ItemSchema()
	for i := uint64(0); i < 100; i++ {
		c := Customer(i)
		if len(c) != cs.Arity() {
			t.Fatalf("customer record arity %d", len(c))
		}
		if err := encodes(cs, c); err != nil {
			t.Fatalf("customer %d does not encode: %v", i, err)
		}
		it := Item(i)
		if len(it) != is.Arity() {
			t.Fatalf("item record arity %d", len(it))
		}
		if err := encodes(is, it); err != nil {
			t.Fatalf("item %d does not encode: %v", i, err)
		}
	}
}

// encodes reports whether every value of rec fits its attribute.
func encodes(s *schema.Schema, rec schema.Record) error {
	for i, v := range rec {
		if err := schema.EncodeValue(make([]byte, s.Attr(i).Size), s.Attr(i), v); err != nil {
			return err
		}
	}
	return nil
}

func TestExpectedItemPriceSumClosedForm(t *testing.T) {
	for _, n := range []uint64{0, 1, 57, 10_000, 12_345, 100_000} {
		var want float64
		for i := uint64(0); i < n; i++ {
			want += ItemPrice(i)
		}
		got := ExpectedItemPriceSum(n)
		if math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Errorf("ExpectedItemPriceSum(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestExpectedCustomerBalanceSumClosedForm(t *testing.T) {
	for _, n := range []uint64{0, 1, 4_999, 5_000, 12_345} {
		var want float64
		for i := uint64(0); i < n; i++ {
			want += CustomerBalance(i)
		}
		got := ExpectedCustomerBalanceSum(n)
		if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Errorf("ExpectedCustomerBalanceSum(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestGenerateStopsOnError(t *testing.T) {
	calls := 0
	err := Generate(10, Item, func(i uint64, r schema.Record) error {
		calls++
		if i == 3 {
			return schema.ErrArityMismatch
		}
		return nil
	})
	if err == nil || calls != 4 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	a := Item(42)
	b := Item(42)
	if !a.Equal(b) {
		t.Error("Item not deterministic")
	}
	if !Customer(7).Equal(Customer(7)) {
		t.Error("Customer not deterministic")
	}
}

func TestPositionList(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pos := PositionList(r, 150, 1_000_000)
	if len(pos) != 150 {
		t.Fatalf("len = %d", len(pos))
	}
	seen := map[uint64]bool{}
	for i, p := range pos {
		if p >= 1_000_000 {
			t.Fatalf("position %d out of range", p)
		}
		if seen[p] {
			t.Fatal("duplicate position")
		}
		seen[p] = true
		if i > 0 && pos[i-1] > p {
			t.Fatal("positions not sorted")
		}
	}
	// k > n clamps.
	small := PositionList(r, 10, 4)
	if len(small) != 4 {
		t.Fatalf("clamped len = %d", len(small))
	}
}

func TestSortUint64(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	xs := make([]uint64, 500)
	for i := range xs {
		xs[i] = uint64(r.Int63n(10_000))
	}
	sortUint64(xs)
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			t.Fatal("not sorted")
		}
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{
		PointRead: "point-read", PointUpdate: "point-update",
		Insert: "insert", ColumnScan: "column-scan", OpKind(9): "OpKind(9)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q", k, got)
		}
	}
}

func TestMonitorCounts(t *testing.T) {
	m := NewMonitor(4)
	m.Observe(Op{Kind: PointRead, Cols: []int{0, 1, 2, 3}})
	m.Observe(Op{Kind: PointUpdate, Cols: []int{1}})
	m.Observe(Op{Kind: ColumnScan, Cols: []int{3}})
	m.Observe(Op{Kind: ColumnScan, Cols: []int{3}})
	m.Observe(Op{Kind: Insert})
	s := m.Snapshot()
	if s.Point[0] != 1 || s.Point[1] != 2 || s.Scan[3] != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Inserts != 1 || s.Updates != 1 {
		t.Fatalf("writes = %d/%d", s.Inserts, s.Updates)
	}
	want := 2.0 / 7.0 // 2 scans, 5 point touches
	if math.Abs(s.AttrCentricRatio-want) > 1e-9 {
		t.Fatalf("ratio = %v, want %v", s.AttrCentricRatio, want)
	}
	m.Reset()
	if m.Snapshot().AttrCentricRatio != 0 {
		t.Error("Reset did not clear")
	}
}

func TestMonitorIgnoresOutOfRangeCols(t *testing.T) {
	m := NewMonitor(2)
	m.Observe(Op{Kind: PointRead, Cols: []int{-1, 5, 1}})
	m.Observe(Op{Kind: ColumnScan, Cols: []int{7}})
	s := m.Snapshot()
	if s.Point[1] != 1 || s.Point[0] != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSuggestGroupsFusesCoAccessedColumns(t *testing.T) {
	m := NewMonitor(5)
	// Columns 0-2 always read together (record-centric); 3 and 4 scanned.
	for i := 0; i < 100; i++ {
		m.Observe(Op{Kind: PointRead, Cols: []int{0, 1, 2}})
		m.Observe(Op{Kind: ColumnScan, Cols: []int{3}})
		m.Observe(Op{Kind: ColumnScan, Cols: []int{4}})
	}
	groups := m.SuggestGroups(0.5)
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0]) != 3 || groups[0][0] != 0 || groups[0][2] != 2 {
		t.Fatalf("fused group = %v", groups[0])
	}
	if len(groups[1]) != 1 || len(groups[2]) != 1 {
		t.Fatalf("scan columns not thin: %v", groups)
	}
}

func TestSuggestGroupsKeepsScanDominatedThin(t *testing.T) {
	m := NewMonitor(3)
	// Point reads touch all three columns, but column 2 is also scanned
	// heavily — it must stay thin despite co-access.
	for i := 0; i < 50; i++ {
		m.Observe(Op{Kind: PointRead, Cols: []int{0, 1, 2}})
	}
	for i := 0; i < 500; i++ {
		m.Observe(Op{Kind: ColumnScan, Cols: []int{2}})
	}
	groups := m.SuggestGroups(0.5)
	for _, g := range groups {
		for _, c := range g {
			if c == 2 && len(g) > 1 {
				t.Fatalf("scan-dominated column fused: %v", groups)
			}
		}
	}
}

func TestSuggestGroupsEmptyMonitor(t *testing.T) {
	m := NewMonitor(4)
	groups := m.SuggestGroups(0.5)
	if len(groups) != 4 {
		t.Fatalf("empty monitor should keep all columns thin: %v", groups)
	}
}

func TestSuggestGroupsBadAffinityDefaults(t *testing.T) {
	m := NewMonitor(2)
	for i := 0; i < 10; i++ {
		m.Observe(Op{Kind: PointRead, Cols: []int{0, 1}})
	}
	for _, aff := range []float64{-1, 0, 2} {
		groups := m.SuggestGroups(aff)
		if len(groups) != 1 {
			t.Fatalf("affinity %v: groups = %v", aff, groups)
		}
	}
}

// Property: SuggestGroups always returns a partition of [0, arity).
func TestQuickSuggestGroupsIsPartition(t *testing.T) {
	f := func(seed int64, arityRaw, opsRaw uint8) bool {
		arity := int(arityRaw)%10 + 1
		ops := int(opsRaw)%200 + 1
		r := rand.New(rand.NewSource(seed))
		m := NewMonitor(arity)
		for i := 0; i < ops; i++ {
			op := Op{Kind: OpKind(r.Intn(4)), Cols: []int{r.Intn(arity)}}
			if op.Kind == PointRead {
				op.Cols = r.Perm(arity)[:1+r.Intn(arity)]
			}
			m.Observe(op)
		}
		groups := m.SuggestGroups(r.Float64())
		seen := make(map[int]int)
		for _, g := range groups {
			if len(g) == 0 {
				return false
			}
			for _, c := range g {
				seen[c]++
			}
		}
		if len(seen) != arity {
			return false
		}
		for c, n := range seen {
			if n != 1 || c < 0 || c >= arity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
