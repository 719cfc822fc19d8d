// Package common provides the shared layout-backed table implementation
// the surveyed engines build on. Each engine contributes its distinctive
// structure (page geometry, mirrors, containers, tile groups, …) by
// constructing layouts and an append router; common supplies the generic
// query paths over any layout composition:
//
//   - reads route to the first covering fragment,
//   - updates write through to every covering fragment of every layout
//     (keeping replication-based multi-layout engines coherent),
//   - attribute-centric scans pick the cheapest layout by the calibrated
//     cost model (which is how Fractured Mirrors sends Q2 to its DSM
//     mirror and Q1 to its NSM mirror),
//   - record-centric materialization picks the layout with the smallest
//     per-record fragment spread.
package common

import (
	"fmt"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/perfmodel"
	"hybridstore/internal/schema"
)

// Table is the shared layout-backed table. Engines embed it and set
// Append to their routing logic.
type Table struct {
	// Env is the platform environment.
	Env *engine.Env
	// Rel is the relation with its layout set.
	Rel *layout.Relation
	// Cfg is the execution configuration for the bulk operators.
	Cfg exec.Config
	// Append routes one record into the engine's fragments and must
	// account for growth (new chunks, grown mirrors, …). It runs with the
	// row position the record will occupy.
	Append func(row uint64, rec schema.Record) error
	// Run answers one aggregate plan. NewTable installs the shared scan
	// body over the table's own Pieces; engines with their own pieces,
	// lock or placement set it to theirs. Scan goes through it, so an
	// embedding engine cannot be bypassed by a promoted method.
	Run func(p exec.Plan) (exec.Result, error)
}

// NewTable wires a table over a relation using the environment's host
// profile and clock for cost accounting.
func NewTable(env *engine.Env, rel *layout.Relation) *Table {
	t := &Table{
		Env: env,
		Rel: rel,
		Cfg: exec.Config{
			Policy: env.ExecPolicy,
			Host:   env.HostProfile,
			Clock:  env.Clock,
		},
	}
	t.Run = func(p exec.Plan) (exec.Result, error) { return engine.Scan(t, t.Cfg, nil, p) }
	return t
}

// Schema returns the relation schema.
func (t *Table) Schema() *schema.Schema { return t.Rel.Schema() }

// Rows returns the row count.
func (t *Table) Rows() uint64 { return t.Rel.Rows() }

// Snapshot digests the live structure.
func (t *Table) Snapshot() layout.Snapshot { return t.Rel.Digest() }

// Free releases all layouts.
func (t *Table) Free() { t.Rel.Free() }

// Insert appends the record via the engine's router. The record is
// validated whole before the router writes any fragment, so a rejected
// insert leaves no partial tuplet behind to shift later rows.
func (t *Table) Insert(rec schema.Record) (uint64, error) {
	if err := schema.ValidateRecord(t.Rel.Schema(), rec); err != nil {
		return 0, err
	}
	row := t.Rel.Rows()
	if t.Append == nil {
		return 0, fmt.Errorf("%w: engine did not install an append router", engine.ErrUnsupported)
	}
	if err := t.Append(row, rec); err != nil {
		return 0, err
	}
	t.Rel.SetRows(row + 1)
	return row, nil
}

// Get materializes the record at row from the cheapest layout.
func (t *Table) Get(row uint64) (schema.Record, error) {
	if row >= t.Rel.Rows() {
		return nil, fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, t.Rel.Rows())
	}
	l := t.LayoutForMaterialize()
	if l == nil {
		return nil, layout.ErrNoLayout
	}
	return l.Record(row)
}

// Update writes v through to every fragment covering (row, col) in every
// layout, keeping replicas coherent.
func (t *Table) Update(row uint64, col int, v schema.Value) error {
	if row >= t.Rel.Rows() {
		return fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, t.Rel.Rows())
	}
	touched := 0
	for _, l := range t.Rel.Layouts() {
		for _, f := range l.Fragments() {
			if !f.Rows().Contains(row) || !f.HasCol(col) {
				continue
			}
			i := int(row - f.Rows().Begin)
			if i >= f.Len() {
				continue
			}
			if err := f.Set(i, col, v); err != nil {
				return err
			}
			touched++
		}
	}
	if touched == 0 {
		return fmt.Errorf("%w: no fragment covers row %d col %d", layout.ErrNotCovered, row, col)
	}
	return nil
}

// LayoutForScan returns the layout with the cheapest attribute-centric
// scan of col under the calibrated cost model.
func (t *Table) LayoutForScan(col int) *layout.Layout {
	var best *layout.Layout
	bestBytes := int64(-1)
	h := t.Cfg.Host
	if h.CacheLine == 0 {
		h = perfmodel.DefaultHost()
	}
	for _, l := range t.Rel.Layouts() {
		pieces, err := exec.ColumnView(l, col, t.Rel.Rows())
		if err != nil {
			continue
		}
		var bytes int64
		for _, p := range pieces {
			bytes += h.StridedBytes(int64(p.Vec.Len), p.Vec.Size, p.Vec.Stride)
		}
		if bestBytes < 0 || bytes < bestBytes {
			best, bestBytes = l, bytes
		}
	}
	if best == nil && len(t.Rel.Layouts()) > 0 {
		return t.Rel.Layouts()[0]
	}
	return best
}

// LayoutForMaterialize returns the layout whose records span the fewest
// fragments (cheapest record-centric access).
func (t *Table) LayoutForMaterialize() *layout.Layout {
	var best *layout.Layout
	bestSpread := -1
	rows := t.Rel.Rows()
	for _, l := range t.Rel.Layouts() {
		spread := recordSpread(l, rows)
		if spread < 0 {
			continue
		}
		if bestSpread < 0 || spread < bestSpread {
			best, bestSpread = l, spread
		}
	}
	if best == nil && len(t.Rel.Layouts()) > 0 {
		return t.Rel.Layouts()[0]
	}
	return best
}

// recordSpread counts the fragments covering one representative record,
// or -1 when the layout does not cover the relation.
func recordSpread(l *layout.Layout, rows uint64) int {
	if rows == 0 {
		return len(l.Fragments())
	}
	probe := rows - 1
	seen := make(map[*layout.Fragment]bool)
	for c := 0; c < l.Schema().Arity(); c++ {
		f, err := l.FragmentAt(probe, c)
		if err != nil {
			return -1
		}
		seen[f] = true
	}
	return len(seen)
}

// Pieces is the table as a scan source: the column pieces of the layout
// with the cheapest scan of the aggregate column, all in host memory
// (exec.ColumnView attaches each fragment's zone, so the executor prunes
// fragments a predicate provably cannot match). A grouped plan needs
// both columns from one layout so the piece lists stay row-aligned: the
// value column's cheapest layout is preferred, falling back to any
// layout covering both.
func (t *Table) Pieces(p exec.Plan) (keys, vals []exec.Piece, err error) {
	rows := t.Rel.Rows()
	candidates := make([]*layout.Layout, 0, len(t.Rel.Layouts())+1)
	if l := t.LayoutForScan(p.Col); l != nil {
		candidates = append(candidates, l)
	}
	if p.Op.Grouped() {
		candidates = append(candidates, t.Rel.Layouts()...)
	}
	err = layout.ErrNoLayout
	for _, l := range candidates {
		if vals, err = exec.ColumnView(l, p.Col, rows); err != nil {
			continue
		}
		if !p.Op.Grouped() {
			return nil, vals, nil
		}
		if keys, err = exec.ColumnView(l, p.KeyCol, rows); err == nil {
			return keys, vals, nil
		}
	}
	return nil, nil, err
}

// Scan answers one aggregate plan.
func (t *Table) Scan(p exec.Plan) (exec.Result, error) { return t.Run(p) }

// Materialize resolves the position list against the cheapest layout.
func (t *Table) Materialize(positions []uint64) ([]schema.Record, error) {
	for _, p := range positions {
		if p >= t.Rel.Rows() {
			return nil, fmt.Errorf("%w: position %d of %d", engine.ErrNoSuchRow, p, t.Rel.Rows())
		}
	}
	l := t.LayoutForMaterialize()
	if l == nil {
		return nil, layout.ErrNoLayout
	}
	return exec.Materialize(t.Cfg, l, positions)
}

// AppendToFragments writes the record's tuplet pieces into each given
// fragment (projecting to the fragment's columns); a convenience for
// append routers.
func AppendToFragments(rec schema.Record, frags ...*layout.Fragment) error {
	for _, f := range frags {
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
