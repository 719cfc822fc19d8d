package layout

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridstore/internal/mem"
	"hybridstore/internal/schema"
)

func hostAlloc() *mem.Allocator { return mem.NewAllocator(mem.Host, 0) }

// twoColSchema is a two-int64-attribute schema used by byte-layout tests.
func twoColSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustNew(schema.Int64Attr("a"), schema.Int64Attr("b"))
}

func appendRows(t *testing.T, f *Fragment, rows [][]int64) {
	t.Helper()
	for _, r := range rows {
		vals := make([]schema.Value, len(r))
		for i, v := range r {
			vals[i] = schema.IntValue(v)
		}
		if err := f.AppendTuplet(vals); err != nil {
			t.Fatalf("AppendTuplet(%v): %v", r, err)
		}
	}
}

func u64at(b []byte, off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }

func TestNSMByteLayout(t *testing.T) {
	s := twoColSchema(t)
	f, err := NewFragment(hostAlloc(), s, []int{0, 1}, RowRange{0, 4}, NSM)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, f, [][]int64{{1, 10}, {2, 20}, {3, 30}})
	raw := f.Raw()
	// NSM: a1 b1 a2 b2 a3 b3
	want := []uint64{1, 10, 2, 20, 3, 30}
	for i, w := range want {
		if got := u64at(raw, i*8); got != w {
			t.Errorf("NSM byte %d: got %d, want %d", i, got, w)
		}
	}
}

func TestDSMByteLayout(t *testing.T) {
	s := twoColSchema(t)
	f, err := NewFragment(hostAlloc(), s, []int{0, 1}, RowRange{0, 4}, DSM)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, f, [][]int64{{1, 10}, {2, 20}, {3, 30}})
	raw := f.Raw()
	// DSM with capacity 4: a1 a2 a3 _ b1 b2 b3 _  (column region sized by capacity)
	wantA := []uint64{1, 2, 3}
	wantB := []uint64{10, 20, 30}
	for i, w := range wantA {
		if got := u64at(raw, i*8); got != w {
			t.Errorf("DSM col a slot %d: got %d, want %d", i, got, w)
		}
	}
	for i, w := range wantB {
		if got := u64at(raw, (4+i)*8); got != w {
			t.Errorf("DSM col b slot %d: got %d, want %d", i, got, w)
		}
	}
}

func TestDirectByteLayout(t *testing.T) {
	s := twoColSchema(t)
	f, err := NewFragment(hostAlloc(), s, []int{1}, RowRange{0, 3}, Direct)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, f, [][]int64{{7}, {8}, {9}})
	raw := f.Raw()
	for i, w := range []uint64{7, 8, 9} {
		if got := u64at(raw, i*8); got != w {
			t.Errorf("direct slot %d: got %d, want %d", i, got, w)
		}
	}
}

func TestNewFragmentValidation(t *testing.T) {
	s := twoColSchema(t)
	a := hostAlloc()
	cases := []struct {
		name string
		cols []int
		rows RowRange
		lin  Linearization
		want error
	}{
		{"no cols", nil, RowRange{0, 4}, NSM, ErrBadFragment},
		{"empty rows", []int{0}, RowRange{4, 4}, Direct, ErrBadFragment},
		{"col out of range", []int{2}, RowRange{0, 4}, Direct, ErrBadFragment},
		{"negative col", []int{-1}, RowRange{0, 4}, Direct, ErrBadFragment},
		{"duplicate col", []int{0, 0}, RowRange{0, 4}, NSM, ErrBadFragment},
		{"direct on fat", []int{0, 1}, RowRange{0, 4}, Direct, ErrBadLinearization},
		{"unknown lin", []int{0, 1}, RowRange{0, 4}, Linearization(9), ErrBadLinearization},
	}
	for _, c := range cases {
		if _, err := NewFragment(a, s, c.cols, c.rows, c.lin); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := NewFragment(a, nil, []int{0}, RowRange{0, 1}, Direct); !errors.Is(err, ErrBadFragment) {
		t.Error("nil schema accepted")
	}
}

func TestDegenerateFatAllowsNSMAndDSM(t *testing.T) {
	s := twoColSchema(t)
	// Single column with NSM/DSM: both orders coincide; allowed.
	for _, lin := range []Linearization{NSM, DSM} {
		f, err := NewFragment(hostAlloc(), s, []int{0}, RowRange{0, 4}, lin)
		if err != nil {
			t.Fatalf("single-col %v: %v", lin, err)
		}
		if f.IsFat() {
			t.Errorf("single-col fragment reported fat")
		}
	}
	// Single row, two cols: thin by the paper's definition.
	f, err := NewFragment(hostAlloc(), s, []int{0, 1}, RowRange{0, 1}, NSM)
	if err != nil {
		t.Fatal(err)
	}
	if f.IsFat() {
		t.Error("1-row fragment reported fat")
	}
}

func TestFragmentFull(t *testing.T) {
	s := twoColSchema(t)
	f, _ := NewFragment(hostAlloc(), s, []int{0, 1}, RowRange{0, 2}, NSM)
	appendRows(t, f, [][]int64{{1, 1}, {2, 2}})
	err := f.AppendTuplet([]schema.Value{schema.IntValue(3), schema.IntValue(3)})
	if !errors.Is(err, ErrFragmentFull) {
		t.Fatalf("err = %v, want ErrFragmentFull", err)
	}
}

func TestAppendTupletArityAndRollback(t *testing.T) {
	s := twoColSchema(t)
	f, _ := NewFragment(hostAlloc(), s, []int{0, 1}, RowRange{0, 2}, NSM)
	if err := f.AppendTuplet([]schema.Value{schema.IntValue(1)}); !errors.Is(err, schema.ErrArityMismatch) {
		t.Fatalf("arity err = %v", err)
	}
	// Kind mismatch mid-tuplet must roll back the length reservation.
	err := f.AppendTuplet([]schema.Value{schema.IntValue(1), schema.FloatValue(2)})
	if err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if f.Len() != 0 {
		t.Fatalf("failed append left Len = %d, want 0", f.Len())
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	s := twoColSchema(t)
	for _, lin := range []Linearization{NSM, DSM} {
		f, _ := NewFragment(hostAlloc(), s, []int{0, 1}, RowRange{0, 4}, lin)
		appendRows(t, f, [][]int64{{1, 10}, {2, 20}})
		if err := f.Set(1, 1, schema.IntValue(99)); err != nil {
			t.Fatalf("%v Set: %v", lin, err)
		}
		v, err := f.Get(1, 1)
		if err != nil || v.I != 99 {
			t.Fatalf("%v Get = %v, %v; want 99", lin, v, err)
		}
		v, _ = f.Get(0, 0)
		if v.I != 1 {
			t.Fatalf("%v neighbouring field clobbered: %v", lin, v)
		}
	}
}

func TestGetSetErrors(t *testing.T) {
	s := twoColSchema(t)
	f, _ := NewFragment(hostAlloc(), s, []int{0}, RowRange{0, 4}, Direct)
	appendRows(t, f, [][]int64{{1}})
	if _, err := f.Get(0, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Get missing col: %v", err)
	}
	if _, err := f.Get(1, 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Get beyond len: %v", err)
	}
	if err := f.Set(0, 1, schema.IntValue(1)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Set missing col: %v", err)
	}
	if err := f.Set(-1, 0, schema.IntValue(1)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Set negative: %v", err)
	}
}

func TestTuplet(t *testing.T) {
	s := twoColSchema(t)
	f, _ := NewFragment(hostAlloc(), s, []int{1, 0}, RowRange{0, 2}, NSM) // reversed col order
	appendRows(t, f, [][]int64{{10, 1}})                                  // b=10, a=1
	tp, err := f.Tuplet(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tp[0].I != 10 || tp[1].I != 1 {
		t.Fatalf("Tuplet = %v, want [10 1]", tp)
	}
	if _, err := f.Tuplet(1, nil); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Tuplet(1) err = %v", err)
	}
}

func TestColVectorStrides(t *testing.T) {
	s := twoColSchema(t)
	nsm, _ := NewFragment(hostAlloc(), s, []int{0, 1}, RowRange{0, 4}, NSM)
	dsm, _ := NewFragment(hostAlloc(), s, []int{0, 1}, RowRange{0, 4}, DSM)
	appendRows(t, nsm, [][]int64{{1, 10}, {2, 20}})
	appendRows(t, dsm, [][]int64{{1, 10}, {2, 20}})

	v, err := nsm.ColVector(1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Contiguous() || v.Stride != 16 || v.Base != 8 || v.Len != 2 {
		t.Fatalf("NSM ColVector = %+v", v)
	}
	if got := u64at(v.Data, v.Base+v.Stride); got != 20 {
		t.Fatalf("NSM strided read = %d, want 20", got)
	}

	v, err = dsm.ColVector(1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Contiguous() || v.Base != 32 {
		t.Fatalf("DSM ColVector = %+v", v)
	}
	if _, err := dsm.ColVector(5); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("missing col err = %v", err)
	}
}

func TestCloneToOtherSpace(t *testing.T) {
	s := twoColSchema(t)
	f, _ := NewFragment(hostAlloc(), s, []int{0, 1}, RowRange{0, 4}, DSM)
	appendRows(t, f, [][]int64{{1, 10}, {2, 20}})
	dev := mem.NewAllocator(mem.Device, 1<<20)
	g, err := f.CloneTo(dev)
	if err != nil {
		t.Fatal(err)
	}
	if g.Space() != mem.Device || g.Len() != 2 {
		t.Fatalf("clone: space=%v len=%d", g.Space(), g.Len())
	}
	v, _ := g.Get(1, 1)
	if v.I != 20 {
		t.Fatalf("clone data mismatch: %v", v)
	}
}

func TestSetLen(t *testing.T) {
	s := twoColSchema(t)
	f, _ := NewFragment(hostAlloc(), s, []int{0}, RowRange{0, 4}, Direct)
	if err := f.SetLen(3); err != nil || f.Len() != 3 {
		t.Fatalf("SetLen(3): %v, len=%d", err, f.Len())
	}
	if err := f.SetLen(5); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("SetLen(5) err = %v", err)
	}
	if err := f.SetLen(-1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("SetLen(-1) err = %v", err)
	}
}

func TestRowRange(t *testing.T) {
	r := RowRange{2, 5}
	if r.Len() != 3 || !r.Contains(2) || r.Contains(5) || r.Contains(1) {
		t.Fatalf("RowRange basics broken: %v", r)
	}
	if !r.Overlaps(RowRange{4, 9}) || r.Overlaps(RowRange{5, 9}) {
		t.Fatal("Overlaps broken")
	}
	if (RowRange{5, 2}).Len() != 0 {
		t.Fatal("inverted range Len should be 0")
	}
}

func TestLinearizationString(t *testing.T) {
	cases := map[Linearization]string{Direct: "direct", NSM: "NSM", DSM: "DSM", Linearization(7): "Linearization(7)"}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", l, got, want)
		}
	}
}

// Property: NSM and DSM fragments with identical appends agree on every
// Get.
func TestQuickLinearizationEquivalence(t *testing.T) {
	s := schema.MustNew(
		schema.Int64Attr("a"), schema.Float64Attr("b"),
		schema.Int32Attr("c"), schema.CharAttr("d", 5),
	)
	f := func(seed int64, nRows uint8) bool {
		n := int(nRows)%32 + 2
		r := rand.New(rand.NewSource(seed))
		a := hostAlloc()
		nsm, err := NewFragment(a, s, []int{0, 1, 2, 3}, RowRange{0, uint64(n)}, NSM)
		if err != nil {
			return false
		}
		dsm, err := NewFragment(a, s, []int{0, 1, 2, 3}, RowRange{0, uint64(n)}, DSM)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			vals := []schema.Value{
				schema.IntValue(r.Int63()),
				schema.FloatValue(r.NormFloat64()),
				schema.Int32Value(int32(r.Int31())),
				schema.CharValue(string([]byte{byte('a' + r.Intn(26))})),
			}
			if nsm.AppendTuplet(vals) != nil || dsm.AppendTuplet(vals) != nil {
				return false
			}
		}
		for i := 0; i < n; i++ {
			for c := 0; c < 4; c++ {
				va, e1 := nsm.Get(i, c)
				vb, e2 := dsm.Get(i, c)
				if e1 != nil || e2 != nil || !va.Equal(vb) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentString(t *testing.T) {
	s := twoColSchema(t)
	f, _ := NewFragment(hostAlloc(), s, []int{0, 1}, RowRange{0, 4}, NSM)
	got := f.String()
	for _, want := range []string{"fat", "NSM", "host", "0/4"} {
		if !contains(got, want) {
			t.Errorf("String() = %q missing %q", got, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
