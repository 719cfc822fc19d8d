package layout

import (
	"errors"
	"fmt"
	"sort"

	"hybridstore/internal/mem"
	"hybridstore/internal/schema"
)

// Layout errors.
var (
	// ErrNotCovered is returned when a requested cell is not covered by
	// any fragment of the layout.
	ErrNotCovered = errors.New("layout: cell not covered by any fragment")
)

// Layout is one alternative physical organization of a relation: a named
// set of possibly overlapping fragments. Whether fragments may overlap,
// whether the layout must cover the relation, and how appends are routed
// is engine policy; Layout provides the mechanics plus structural
// predicates the taxonomy classifier consumes.
type Layout struct {
	name  string
	rel   *schema.Schema
	frags []*Fragment
}

// NewLayout creates an empty layout over the relation schema rel.
func NewLayout(name string, rel *schema.Schema) *Layout {
	return &Layout{name: name, rel: rel}
}

// Name returns the layout's name.
func (l *Layout) Name() string { return l.name }

// Schema returns the relation schema.
func (l *Layout) Schema() *schema.Schema { return l.rel }

// Fragments returns the fragment list (shared slice; do not mutate).
func (l *Layout) Fragments() []*Fragment { return l.frags }

// Add appends a fragment to the layout. The fragment must belong to the
// same relation schema.
func (l *Layout) Add(f *Fragment) error {
	if f.Schema() != l.rel && !f.Schema().Equal(l.rel) {
		return fmt.Errorf("%w: fragment schema differs from layout schema", ErrBadFragment)
	}
	l.frags = append(l.frags, f)
	return nil
}

// Remove deletes the fragment from the layout (without freeing it).
func (l *Layout) Remove(f *Fragment) {
	for i, g := range l.frags {
		if g == f {
			l.frags = append(l.frags[:i], l.frags[i+1:]...)
			return
		}
	}
}

// Replace swaps old for new in place, preserving order.
func (l *Layout) Replace(old, new *Fragment) error {
	for i, g := range l.frags {
		if g == old {
			l.frags[i] = new
			return nil
		}
	}
	return fmt.Errorf("%w: fragment not in layout", ErrOutOfRange)
}

// Free releases every fragment in the layout.
func (l *Layout) Free() {
	for _, f := range l.frags {
		f.Free()
	}
	l.frags = nil
}

// FragmentAt returns the first fragment covering cell (row, col), or an
// ErrNotCovered error.
func (l *Layout) FragmentAt(row uint64, col int) (*Fragment, error) {
	for _, f := range l.frags {
		if f.Rows().Contains(row) && f.HasCol(col) {
			return f, nil
		}
	}
	return nil, fmt.Errorf("%w: row %d, col %d in layout %q", ErrNotCovered, row, col, l.name)
}

// Covers reports whether every cell (row, col) for row < rows and every
// attribute is covered by at least one fragment. A covering layout is a
// "complete relation divided into fragments" in the paper's sense.
func (l *Layout) Covers(rows uint64) bool {
	for c := 0; c < l.rel.Arity(); c++ {
		if !l.coversColumn(c, rows) {
			return false
		}
	}
	return true
}

// coversColumn checks row coverage of one attribute via interval merging.
func (l *Layout) coversColumn(col int, rows uint64) bool {
	if rows == 0 {
		return true
	}
	var ivals []RowRange
	for _, f := range l.frags {
		if f.HasCol(col) {
			ivals = append(ivals, f.Rows())
		}
	}
	sort.Slice(ivals, func(i, j int) bool { return ivals[i].Begin < ivals[j].Begin })
	var covered uint64
	for _, iv := range ivals {
		if iv.Begin > covered {
			return false
		}
		if iv.End > covered {
			covered = iv.End
		}
		if covered >= rows {
			return true
		}
	}
	return covered >= rows
}

// VerticalOnly reports whether the layout is a pure vertical fragmentation:
// all fragments span the same row range and their column sets partition the
// schema. Such fragments are the paper's sub-relations.
func (l *Layout) VerticalOnly() bool {
	if len(l.frags) == 0 {
		return false
	}
	rows := l.frags[0].Rows()
	seen := make(map[int]bool)
	for _, f := range l.frags {
		if f.Rows() != rows {
			return false
		}
		for _, c := range f.cols {
			if seen[c] {
				return false
			}
			seen[c] = true
		}
	}
	return len(seen) == l.rel.Arity()
}

// HorizontalOnly reports whether the layout is a pure horizontal
// fragmentation: every fragment spans the full schema and the row ranges
// are disjoint.
func (l *Layout) HorizontalOnly() bool {
	if len(l.frags) == 0 {
		return false
	}
	for _, f := range l.frags {
		if f.Arity() != l.rel.Arity() {
			return false
		}
	}
	for i := 0; i < len(l.frags); i++ {
		for j := i + 1; j < len(l.frags); j++ {
			if l.frags[i].Rows().Overlaps(l.frags[j].Rows()) {
				return false
			}
		}
	}
	return true
}

// Combined reports whether the layout mixes vertical and horizontal
// partitioning (the structural signature of a strong flexible layout).
func (l *Layout) Combined() bool {
	return len(l.frags) > 1 && !l.VerticalOnly() && !l.HorizontalOnly()
}

// Record materializes the full record at relation row position row,
// reading each attribute from the first covering fragment. The row index
// inside each fragment is row - fragment.Rows().Begin.
func (l *Layout) Record(row uint64) (schema.Record, error) {
	rec := make(schema.Record, l.rel.Arity())
	for c := 0; c < l.rel.Arity(); c++ {
		f, err := l.FragmentAt(row, c)
		if err != nil {
			return nil, err
		}
		v, err := f.Get(int(row-f.Rows().Begin), c)
		if err != nil {
			return nil, fmt.Errorf("layout %q row %d col %d: %w", l.name, row, c, err)
		}
		rec[c] = v
	}
	return rec, nil
}

// Vertical builds a pure vertical layout: groups lists the column groups
// (each a set of relation attribute indexes); every group becomes one
// fragment spanning rows [0, rowCap). lin picks the linearization per
// group; thin groups (single column) are forced to Direct.
func Vertical(alloc *mem.Allocator, name string, rel *schema.Schema, groups [][]int, rowCap uint64, lin func(group []int) Linearization) (*Layout, error) {
	l := NewLayout(name, rel)
	for _, g := range groups {
		gl := Direct
		if len(g) > 1 {
			gl = lin(g)
		}
		f, err := NewFragment(alloc, rel, g, RowRange{0, rowCap}, gl)
		if err != nil {
			l.Free()
			return nil, err
		}
		if err := l.Add(f); err != nil {
			f.Free()
			l.Free()
			return nil, err
		}
	}
	return l, nil
}

// Horizontal builds a pure horizontal layout: the relation's full schema is
// chunked into fragments of chunkRows rows each up to totalRows, all with
// the same linearization.
func Horizontal(alloc *mem.Allocator, name string, rel *schema.Schema, totalRows, chunkRows uint64, lin Linearization) (*Layout, error) {
	if chunkRows == 0 {
		return nil, fmt.Errorf("%w: zero chunk size", ErrBadFragment)
	}
	l := NewLayout(name, rel)
	all := make([]int, rel.Arity())
	for i := range all {
		all[i] = i
	}
	for begin := uint64(0); begin < totalRows; begin += chunkRows {
		end := begin + chunkRows
		if end > totalRows {
			end = totalRows
		}
		f, err := NewFragment(alloc, rel, all, RowRange{begin, end}, lin)
		if err != nil {
			l.Free()
			return nil, err
		}
		if err := l.Add(f); err != nil {
			f.Free()
			l.Free()
			return nil, err
		}
	}
	return l, nil
}

// AllCols returns [0, 1, ..., arity-1] for a schema; a convenience for
// full-width fragments.
func AllCols(rel *schema.Schema) []int {
	all := make([]int, rel.Arity())
	for i := range all {
		all[i] = i
	}
	return all
}

// String summarizes the layout.
func (l *Layout) String() string {
	return fmt.Sprintf("layout{%q, %d fragments}", l.name, len(l.frags))
}
