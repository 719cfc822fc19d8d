package layout

import (
	"errors"
	"testing"

	"hybridstore/internal/mem"
	"hybridstore/internal/schema"
)

// figure3Schema is the paper's Figure 3 relation R(A,B,C,D,E).
func figure3Schema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.MustNew(
		schema.Int64Attr("A"), schema.Int64Attr("B"), schema.Int64Attr("C"),
		schema.Int64Attr("D"), schema.Int64Attr("E"),
	)
}

// buildFigure3Layout2 builds the paper's "Layout 2 for R (strong
// flexible)": a fat fragment over {A,B,C} plus thin fragments over {D} and
// {E}, all spanning the full 4-row relation.
func buildFigure3Layout2(t *testing.T, lin Linearization) *Layout {
	t.Helper()
	s := figure3Schema(t)
	a := hostAlloc()
	l := NewLayout("layout2", s)
	fat, err := NewFragment(a, s, []int{0, 1, 2}, RowRange{0, 4}, lin)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewFragment(a, s, []int{3}, RowRange{0, 4}, Direct)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFragment(a, s, []int{4}, RowRange{0, 4}, Direct)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Fragment{fat, d, e} {
		if err := l.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	// Fill rows r_i = (a_i, b_i, c_i, d_i, e_i) with a_i = 10i+1 etc.
	for i := int64(0); i < 4; i++ {
		if err := fat.AppendTuplet([]schema.Value{
			schema.IntValue(10*i + 1), schema.IntValue(10*i + 2), schema.IntValue(10*i + 3),
		}); err != nil {
			t.Fatal(err)
		}
		if err := d.AppendTuplet([]schema.Value{schema.IntValue(10*i + 4)}); err != nil {
			t.Fatal(err)
		}
		if err := e.AppendTuplet([]schema.Value{schema.IntValue(10*i + 5)}); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestFigure3StrongFlexibleLayout(t *testing.T) {
	l := buildFigure3Layout2(t, NSM)
	if !l.Covers(4) {
		t.Error("layout 2 should cover the 4-row relation")
	}
	if l.VerticalOnly() {
		// {A,B,C} vs {D} vs {E} all span the full row range and partition
		// the schema — this IS a pure vertical fragmentation.
		_ = l
	} else {
		t.Error("figure 3 layout 2 is a vertical fragmentation into sub-relations")
	}
	// Record materialization crosses fragments.
	rec, err := l.Record(2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{21, 22, 23, 24, 25}
	for i, w := range want {
		if rec[i].I != w {
			t.Errorf("Record(2)[%d] = %d, want %d", i, rec[i].I, w)
		}
	}
}

func TestFigure3Linearizations(t *testing.T) {
	// NSM-fixed on the fat {A,B,C} fragment: a1 b1 c1 a2 b2 c2 ...
	l := buildFigure3Layout2(t, NSM)
	fat := l.Fragments()[0]
	raw := fat.Raw()
	wantNSM := []uint64{1, 2, 3, 11, 12, 13, 21, 22, 23, 31, 32, 33}
	for i, w := range wantNSM {
		if got := u64at(raw, i*8); got != w {
			t.Errorf("NSM-fixed slot %d = %d, want %d", i, got, w)
		}
	}
	// DSM-fixed: a1 a2 a3 a4 b1 b2 b3 b4 c1 c2 c3 c4.
	l2 := buildFigure3Layout2(t, DSM)
	raw = l2.Fragments()[0].Raw()
	wantDSM := []uint64{1, 11, 21, 31, 2, 12, 22, 32, 3, 13, 23, 33}
	for i, w := range wantDSM {
		if got := u64at(raw, i*8); got != w {
			t.Errorf("DSM-fixed slot %d = %d, want %d", i, got, w)
		}
	}
	// DSM-emulated on thin {D}: d1 d2 d3 d4 in its own block.
	dRaw := l.Fragments()[1].Raw()
	for i, w := range []uint64{4, 14, 24, 34} {
		if got := u64at(dRaw, i*8); got != w {
			t.Errorf("DSM-emulated D slot %d = %d, want %d", i, got, w)
		}
	}
}

func TestLayoutAddRejectsForeignSchema(t *testing.T) {
	s1 := figure3Schema(t)
	s2 := schema.MustNew(schema.Int64Attr("x"))
	l := NewLayout("l", s1)
	f, _ := NewFragment(hostAlloc(), s2, []int{0}, RowRange{0, 2}, Direct)
	if err := l.Add(f); !errors.Is(err, ErrBadFragment) {
		t.Fatalf("err = %v, want ErrBadFragment", err)
	}
}

func TestLayoutAddAcceptsEqualSchema(t *testing.T) {
	// A structurally equal but distinct schema object must be accepted.
	s1 := figure3Schema(t)
	s2 := figure3Schema(t)
	l := NewLayout("l", s1)
	f, _ := NewFragment(hostAlloc(), s2, []int{0}, RowRange{0, 2}, Direct)
	if err := l.Add(f); err != nil {
		t.Fatalf("Add with equal schema: %v", err)
	}
}

func TestCoversDetectsGaps(t *testing.T) {
	s := figure3Schema(t)
	a := hostAlloc()
	l := NewLayout("gappy", s)
	// Cover rows [0,2) and [3,5) of all columns: gap at row 2.
	f1, _ := NewFragment(a, s, AllCols(s), RowRange{0, 2}, NSM)
	f2, _ := NewFragment(a, s, AllCols(s), RowRange{3, 5}, NSM)
	l.Add(f1)
	l.Add(f2)
	if l.Covers(5) {
		t.Error("gap at row 2 not detected")
	}
	if !l.Covers(2) {
		t.Error("prefix [0,2) should be covered")
	}
	if !l.Covers(0) {
		t.Error("empty relation should always be covered")
	}
}

func TestCoversDetectsMissingColumn(t *testing.T) {
	s := figure3Schema(t)
	l := NewLayout("partial", s)
	f, _ := NewFragment(hostAlloc(), s, []int{0, 1}, RowRange{0, 4}, NSM)
	l.Add(f)
	if l.Covers(4) {
		t.Error("columns C,D,E uncovered but Covers returned true")
	}
}

func TestHorizontalOnly(t *testing.T) {
	s := figure3Schema(t)
	l, err := Horizontal(hostAlloc(), "h", s, 10, 4, NSM)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Fragments()) != 3 {
		t.Fatalf("chunks = %d, want 3 (4+4+2)", len(l.Fragments()))
	}
	if got := l.Fragments()[2].Cap(); got != 2 {
		t.Fatalf("tail chunk capacity = %d, want 2", got)
	}
	if !l.HorizontalOnly() || l.VerticalOnly() || l.Combined() {
		t.Error("pure horizontal layout misclassified")
	}
}

func TestHorizontalRejectsZeroChunk(t *testing.T) {
	s := figure3Schema(t)
	if _, err := Horizontal(hostAlloc(), "h", s, 10, 0, NSM); !errors.Is(err, ErrBadFragment) {
		t.Fatalf("err = %v, want ErrBadFragment", err)
	}
}

func TestVerticalBuilder(t *testing.T) {
	s := figure3Schema(t)
	l, err := Vertical(hostAlloc(), "v", s, [][]int{{0, 1, 2}, {3}, {4}}, 8,
		func([]int) Linearization { return NSM })
	if err != nil {
		t.Fatal(err)
	}
	if !l.VerticalOnly() || l.HorizontalOnly() {
		t.Error("pure vertical layout misclassified")
	}
	if l.Fragments()[1].Lin() != Direct {
		t.Error("thin group not forced to Direct")
	}
	if l.Fragments()[0].Lin() != NSM {
		t.Error("fat group linearization not honored")
	}
}

func TestVerticalBuilderPropagatesErrors(t *testing.T) {
	s := figure3Schema(t)
	_, err := Vertical(hostAlloc(), "v", s, [][]int{{0, 9}}, 8,
		func([]int) Linearization { return NSM })
	if !errors.Is(err, ErrBadFragment) {
		t.Fatalf("err = %v, want ErrBadFragment", err)
	}
}

func TestCombinedLayout(t *testing.T) {
	s := figure3Schema(t)
	a := hostAlloc()
	l := NewLayout("grid", s)
	// Vertical split {A,B} vs {C,D,E}, with {A,B} further chunked.
	f1, _ := NewFragment(a, s, []int{0, 1}, RowRange{0, 2}, NSM)
	f2, _ := NewFragment(a, s, []int{0, 1}, RowRange{2, 4}, NSM)
	f3, _ := NewFragment(a, s, []int{2, 3, 4}, RowRange{0, 4}, DSM)
	for _, f := range []*Fragment{f1, f2, f3} {
		l.Add(f)
	}
	if !l.Combined() {
		t.Error("mixed layout not reported Combined")
	}
	if !l.Covers(4) {
		t.Error("grid should cover relation")
	}
}

func TestFragmentAtAndRecordErrors(t *testing.T) {
	s := figure3Schema(t)
	l := NewLayout("empty", s)
	if _, err := l.FragmentAt(0, 0); !errors.Is(err, ErrNotCovered) {
		t.Errorf("err = %v, want ErrNotCovered", err)
	}
	if _, err := l.Record(0); !errors.Is(err, ErrNotCovered) {
		t.Errorf("Record err = %v, want ErrNotCovered", err)
	}
}

func TestReplaceAndRemove(t *testing.T) {
	s := figure3Schema(t)
	a := hostAlloc()
	l := NewLayout("l", s)
	f1, _ := NewFragment(a, s, []int{0}, RowRange{0, 2}, Direct)
	f2, _ := NewFragment(a, s, []int{0}, RowRange{0, 2}, Direct)
	l.Add(f1)
	if err := l.Replace(f1, f2); err != nil {
		t.Fatal(err)
	}
	if l.Fragments()[0] != f2 {
		t.Error("Replace did not swap")
	}
	if err := l.Replace(f1, f2); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("Replace missing: %v", err)
	}
	l.Remove(f2)
	if len(l.Fragments()) != 0 {
		t.Error("Remove failed")
	}
	l.Remove(f2) // removing absent fragment is a no-op
}

func TestSpaces(t *testing.T) {
	s := figure3Schema(t)
	host := hostAlloc()
	dev := mem.NewAllocator(mem.Device, 1<<20)
	l := NewLayout("mixed", s)
	f1, _ := NewFragment(host, s, []int{0}, RowRange{0, 2}, Direct)
	f2, _ := NewFragment(dev, s, []int{1}, RowRange{0, 2}, Direct)
	l.Add(f1)
	l.Add(f2)
	fr := l.Digest().Fragments
	if len(fr) != 2 || fr[0].Space != mem.Host || fr[1].Space != mem.Device {
		t.Fatalf("fragment spaces = %+v", fr)
	}
}

func TestRelationLifecycle(t *testing.T) {
	s := figure3Schema(t)
	r := NewRelation("R", s)
	if _, err := r.Primary(); !errors.Is(err, ErrNoLayout) {
		t.Errorf("Primary on empty: %v", err)
	}
	l1 := NewLayout("row", s)
	l2 := NewLayout("col", s)
	r.AddLayout(l1)
	r.AddLayout(l2)
	p, err := r.Primary()
	if err != nil || p != l1 {
		t.Fatalf("Primary = %v, %v", p, err)
	}
	r.SetRows(7)
	if r.Rows() != 7 {
		t.Error("SetRows")
	}
	r.RemoveLayout(l1)
	if len(r.Layouts()) != 1 || r.Layouts()[0] != l2 {
		t.Error("RemoveLayout")
	}
	r.Free()
	if len(r.Layouts()) != 0 || r.Rows() != 0 {
		t.Error("Free did not reset")
	}
}

func TestDigests(t *testing.T) {
	l := buildFigure3Layout2(t, NSM)
	s := figure3Schema(t)
	r := NewRelation("R", s)
	r.AddLayout(l)
	r.SetRows(4)
	snap := r.Digest()
	if snap.Relation != "R" || snap.Arity != 5 || snap.Rows != 4 {
		t.Fatalf("snapshot header = %+v", snap)
	}
	if len(snap.Layouts) != 1 {
		t.Fatalf("layouts = %d", len(snap.Layouts))
	}
	li := snap.Layouts[0]
	if !li.VerticalOnly || li.Combined || len(li.Fragments) != 3 {
		t.Fatalf("layout digest = %+v", li)
	}
	if !li.Fragments[0].Fat || li.Fragments[1].Fat {
		t.Error("fat/thin digest wrong")
	}
	if li.Fragments[0].Lin != NSM || li.Fragments[1].Lin != Direct {
		t.Error("linearization digest wrong")
	}
	if li.Fragments[0].Space != mem.Host {
		t.Error("space digest wrong")
	}
}

func TestStringers(t *testing.T) {
	s := figure3Schema(t)
	r := NewRelation("R", s)
	l := NewLayout("l", s)
	if r.String() == "" || l.String() == "" {
		t.Error("empty String()")
	}
}
