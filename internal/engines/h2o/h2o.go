// Package h2o implements the H₂O adaptive store (Alagiannis, Idreos,
// Ailamaki, 2014; paper Section IV-A.5): a single-layout, weak flexible
// engine whose relations are horizontally partitioned into fragments that
// are NSM-fixed fat by default, but that can degenerate per attribute
// into thin directly-linearized columns — "variable NSM-fixed partially
// DSM-emulated" linearization. Layout alternatives live in a pool, are
// costed lazily against the observed workload with the calibrated model,
// and the cheapest one is adopted.
package h2o

import (
	"fmt"
	"maps"

	"hybridstore/internal/engine"
	"hybridstore/internal/engines/common"
	"hybridstore/internal/layout"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
	"hybridstore/internal/workload"
)

// Engine is the H₂O storage engine.
type Engine struct {
	env *engine.Env
}

// New creates the engine.
func New(env *engine.Env) *Engine { return &Engine{env: env} }

// Name returns the survey name.
func (e *Engine) Name() string { return "H2O" }

// Capabilities declares the paper's Table-1 row.
func (e *Engine) Capabilities() taxonomy.Capabilities {
	return taxonomy.Capabilities{
		Responsive: true,
		Processors: taxonomy.CPUOnly,
		Workloads:  taxonomy.HTAP,
		Year:       2014,
	}
}

// candidate is one pooled layout alternative: the set of attributes kept
// as thin DSM-emulated columns (the rest stay in the NSM-fixed fat
// fragment).
type candidate struct {
	thin map[int]bool
}

// Table is an H₂O relation.
type Table struct {
	*common.Table
	mon *workload.Monitor
	// thin is the adopted candidate: attributes currently stored as thin
	// columns.
	thin map[int]bool
	pool []candidate
}

// Create makes an empty relation in the default all-NSM layout, with a
// layout pool containing per-attribute thin alternatives.
func (e *Engine) Create(name string, s *schema.Schema) (engine.Table, error) {
	rel := layout.NewRelation(name, s)
	l, err := buildLayout(e.env, s, nil, 64)
	if err != nil {
		return nil, err
	}
	rel.AddLayout(l)
	t := &Table{
		Table: common.NewTable(e.env, rel),
		mon:   workload.NewMonitor(s.Arity()),
		thin:  map[int]bool{},
	}
	// The pool holds "thin {c}" plus "all columns thin" alternatives; the
	// workload evaluation composes them per attribute.
	for c := 0; c < s.Arity(); c++ {
		t.pool = append(t.pool, candidate{thin: map[int]bool{c: true}})
	}
	all := map[int]bool{}
	for c := 0; c < s.Arity(); c++ {
		all[c] = true
	}
	t.pool = append(t.pool, candidate{thin: all})
	t.Append = t.appendRecord
	return t, nil
}

// buildLayout creates the H₂O structure: one NSM fragment over the
// non-thin attributes (if two or more remain) plus one thin Direct
// fragment per degenerated attribute.
func buildLayout(env *engine.Env, s *schema.Schema, thin map[int]bool, rowCap uint64) (*layout.Layout, error) {
	l := layout.NewLayout("h2o", s)
	var fatCols []int
	for c := 0; c < s.Arity(); c++ {
		if !thin[c] {
			fatCols = append(fatCols, c)
		}
	}
	addFrag := func(cols []int, lin layout.Linearization) error {
		f, err := layout.NewFragment(env.Host, s, cols, layout.RowRange{Begin: 0, End: rowCap}, lin)
		if err != nil {
			return err
		}
		return l.Add(f)
	}
	switch len(fatCols) {
	case 0:
	case 1:
		if err := addFrag(fatCols, layout.Direct); err != nil {
			l.Free()
			return nil, fmt.Errorf("h2o: %w", err)
		}
	default:
		if err := addFrag(fatCols, layout.NSM); err != nil {
			l.Free()
			return nil, fmt.Errorf("h2o: %w", err)
		}
	}
	for c := 0; c < s.Arity(); c++ {
		if thin[c] {
			if err := addFrag([]int{c}, layout.Direct); err != nil {
				l.Free()
				return nil, fmt.Errorf("h2o: %w", err)
			}
		}
	}
	return l, nil
}

// appendRecord appends to all fragments, growing in lockstep.
func (t *Table) appendRecord(row uint64, rec schema.Record) error {
	l, err := t.Rel.Primary()
	if err != nil {
		return err
	}
	for _, f := range l.Fragments() {
		if f.Len() == f.Cap() {
			grown, gerr := f.Grow(t.Env.Host, f.Cap()*2)
			if gerr != nil {
				return fmt.Errorf("h2o: growing fragment: %w", gerr)
			}
			if err := l.Replace(f, grown); err != nil {
				return err
			}
			f = grown
		}
		vals := make([]schema.Value, 0, f.Arity())
		for _, c := range f.Cols() {
			vals = append(vals, rec[c])
		}
		if err := f.AppendTuplet(vals); err != nil {
			return err
		}
	}
	return nil
}

// Observe feeds a workload operation into the layout advisor.
func (t *Table) Observe(op workload.Op) { t.mon.Observe(op) }

// Adapt evaluates the layout pool against the observed workload using
// the calibrated cost model and lazily adopts the cheapest composition:
// an attribute goes thin when its scans would save more than its point
// reads lose. Returns whether the layout changed.
func (t *Table) Adapt() (bool, error) {
	if t.mon.Observations() == 0 {
		return false, nil
	}
	stats := t.mon.Snapshot()
	want := map[int]bool{}
	h := t.Cfg.Host
	if h.CacheLine == 0 {
		h = perfmodel.DefaultHost()
	}
	s := t.Rel.Schema()
	n := int64(t.Rel.Rows())
	if n == 0 {
		return false, nil
	}
	for c := 0; c < s.Arity(); c++ {
		size := s.Attr(c).Size
		// Cost of this attribute's observed operations under fat (NSM) vs
		// thin (direct) storage.
		fat := float64(stats.Scan[c]) * h.ScanSumNs(n, size, s.Width(), 1)
		fat += float64(stats.Point[c]) * h.MaterializeNs(1, n, s.Width(), 1, 1)
		thin := float64(stats.Scan[c]) * h.ScanSumNs(n, size, size, 1)
		thin += float64(stats.Point[c]) * h.MaterializeNs(1, n, s.Width(), 2, 1)
		if thin < fat {
			want[c] = true
		}
	}
	if maps.Equal(want, t.thin) {
		return false, nil
	}
	old, err := t.Rel.Primary()
	if err != nil {
		return false, err
	}
	rows := t.Rel.Rows()
	rowCap := rows
	if rowCap < 64 {
		rowCap = 64
	}
	nl, err := buildLayout(t.Env, s, want, rowCap)
	if err != nil {
		return false, err
	}
	for row := uint64(0); row < rows; row++ {
		rec, err := old.Record(row)
		if err != nil {
			nl.Free()
			return false, fmt.Errorf("h2o: migrating row %d: %w", row, err)
		}
		if err := common.AppendToFragments(rec, nl.Fragments()...); err != nil {
			nl.Free()
			return false, err
		}
	}
	t.Rel.RemoveLayout(old)
	old.Free()
	t.Rel.AddLayout(nl)
	t.thin = want
	t.mon.Reset()
	return true, nil
}
