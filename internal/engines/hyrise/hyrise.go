// Package hyrise implements the HYRISE storage engine (Grund et al.,
// 2010; paper Section IV-A.3): a single-layout, weak flexible engine that
// lays a relation out as vertical sub-relations ("containers"), each
// linearized NSM or DSM, and responds to workload changes by re-adapting
// the per-container widths. The width advisor is the co-access clustering
// of workload.Monitor: attributes touched together by record-centric
// operations fuse into NSM containers, scan-dominated attributes stay in
// thin columns.
package hyrise

import (
	"fmt"
	"slices"

	"hybridstore/internal/engine"
	"hybridstore/internal/engines/common"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
	"hybridstore/internal/workload"
)

// affinity is the co-access threshold for container fusion.
const affinity = 0.5

// Engine is the HYRISE storage engine.
type Engine struct{ env *engine.Env }

// New creates the engine.
func New(env *engine.Env) *Engine { return &Engine{env: env} }

// Name returns the survey name.
func (e *Engine) Name() string { return "HYRISE" }

// Capabilities declares the paper's Table-1 row.
func (e *Engine) Capabilities() taxonomy.Capabilities {
	return taxonomy.Capabilities{
		Responsive:            true,
		VariableLinearization: true,
		Processors:            taxonomy.CPUOnly,
		Workloads:             taxonomy.HTAP,
		Year:                  2010,
	}
}

// Table is a HYRISE relation.
type Table struct {
	*common.Table
	mon    *workload.Monitor
	groups [][]int
}

// Create makes an empty relation with the all-thin (DSM-emulated)
// starting layout; adaptation fuses containers as the workload demands.
func (e *Engine) Create(name string, s *schema.Schema) (engine.Table, error) {
	rel := layout.NewRelation(name, s)
	groups := make([][]int, s.Arity())
	for c := 0; c < s.Arity(); c++ {
		groups[c] = []int{c}
	}
	l, err := buildContainers(e.env, s, groups, 64)
	if err != nil {
		return nil, err
	}
	rel.AddLayout(l)
	t := &Table{
		Table:  common.NewTable(e.env, rel),
		mon:    workload.NewMonitor(s.Arity()),
		groups: groups,
	}
	t.Append = t.appendRecord
	return t, nil
}

// buildContainers creates one fragment per column group spanning
// [0, rowCap): fat groups are NSM containers, singleton groups thin
// columns.
func buildContainers(env *engine.Env, s *schema.Schema, groups [][]int, rowCap uint64) (*layout.Layout, error) {
	l, err := layout.Vertical(env.Host, "containers", s, groups, rowCap,
		func([]int) layout.Linearization { return layout.NSM })
	if err != nil {
		return nil, fmt.Errorf("hyrise: building containers: %w", err)
	}
	return l, nil
}

// appendRecord appends to every container, growing them in lockstep.
func (t *Table) appendRecord(row uint64, rec schema.Record) error {
	l, err := t.Rel.Primary()
	if err != nil {
		return err
	}
	for _, f := range l.Fragments() {
		if f.Len() == f.Cap() {
			grown, gerr := f.Grow(t.Env.Host, f.Cap()*2)
			if gerr != nil {
				return fmt.Errorf("hyrise: growing container: %w", gerr)
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

// Observe feeds a workload operation into the width advisor.
func (t *Table) Observe(op workload.Op) { t.mon.Observe(op) }

// Adapt re-partitions the containers to the advisor's suggestion if it
// differs from the current grouping, migrating all data. It returns
// whether the layout changed.
func (t *Table) Adapt() (bool, error) {
	if t.mon.Observations() == 0 {
		return false, nil
	}
	suggestion := t.mon.SuggestGroups(affinity)
	if slices.EqualFunc(suggestion, t.groups, slices.Equal) {
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
	nl, err := buildContainers(t.Env, t.Rel.Schema(), suggestion, rowCap)
	if err != nil {
		return false, err
	}
	// Migrate row by row through the old layout's record view.
	for row := uint64(0); row < rows; row++ {
		rec, err := old.Record(row)
		if err != nil {
			nl.Free()
			return false, fmt.Errorf("hyrise: migrating row %d: %w", row, err)
		}
		if err := common.AppendToFragments(rec, nl.Fragments()...); err != nil {
			nl.Free()
			return false, err
		}
	}
	t.Rel.RemoveLayout(old)
	old.Free()
	t.Rel.AddLayout(nl)
	t.groups = suggestion
	t.mon.Reset()
	return true, nil
}
