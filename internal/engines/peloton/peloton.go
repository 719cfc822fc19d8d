// Package peloton implements the tile-based architecture of Arulraj,
// Pavlo & Menon (2016; paper Section IV-B.5), the storage engine of the
// Peloton DBMS: a relation is a sequence of tile groups (horizontal
// fragments), each vertically partitioned into physical tiles whose
// column grouping is chosen per group — the flexible storage model (FSM).
// New tile groups adopt the currently-advised grouping while old groups
// keep theirs, so the relation's layout evolves incrementally with the
// workload.
package peloton

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

const (
	// GroupRows is the capacity of one tile group.
	GroupRows = 1024
	// affinity is the co-access threshold for column grouping.
	affinity = 0.5
)

// Engine is the Peloton storage engine.
type Engine struct{ env *engine.Env }

// New creates the engine.
func New(env *engine.Env) *Engine { return &Engine{env: env} }

// Name returns the survey name.
func (e *Engine) Name() string { return "Peloton" }

// Capabilities declares the paper's Table-1 row.
func (e *Engine) Capabilities() taxonomy.Capabilities {
	return taxonomy.Capabilities{
		BuiltInMultiLayout:    true,
		Responsive:            true,
		VariableLinearization: true,
		Scheme:                taxonomy.SchemeDelegation,
		Processors:            taxonomy.CPUOnly,
		Workloads:             taxonomy.HTAP,
		Year:                  2016,
	}
}

// tileGroup is one horizontal slice with its own vertical tile layout.
type tileGroup struct {
	rows  layout.RowRange
	tiles []*layout.Fragment
}

// len returns the filled tuplets.
func (g *tileGroup) len() int {
	if len(g.tiles) == 0 {
		return 0
	}
	return g.tiles[0].Len()
}

// Table is a Peloton relation.
type Table struct {
	*common.Table
	mon    *workload.Monitor
	groups []*tileGroup
	// advised is the grouping new tile groups adopt.
	advised [][]int
}

// Create makes an empty relation advised to the all-columns-NSM grouping
// (Peloton's default row-friendly layout for fresh, OLTP-hot data).
func (e *Engine) Create(name string, s *schema.Schema) (engine.Table, error) {
	rel := layout.NewRelation(name, s)
	rel.AddLayout(layout.NewLayout("tile-groups", s))
	t := &Table{
		Table:   common.NewTable(e.env, rel),
		mon:     workload.NewMonitor(s.Arity()),
		advised: [][]int{layout.AllCols(s)},
	}
	t.Append = t.appendRecord
	return t, nil
}

// newGroup allocates a tile group at row begin with the advised layout.
func (t *Table) newGroup(begin uint64) (*tileGroup, error) {
	s := t.Rel.Schema()
	g := &tileGroup{rows: layout.RowRange{Begin: begin, End: begin + GroupRows}}
	for _, cols := range t.advised {
		lin := layout.Direct
		if len(cols) > 1 {
			lin = layout.NSM
		}
		f, err := layout.NewFragment(t.Env.Host, s, cols, g.rows, lin)
		if err != nil {
			for _, done := range g.tiles {
				done.Free()
			}
			return nil, fmt.Errorf("peloton: allocating physical tile: %w", err)
		}
		g.tiles = append(g.tiles, f)
	}
	return g, nil
}

// attach adds the group's tiles to the relation layout.
func (t *Table) attach(g *tileGroup) error {
	l, err := t.Rel.Primary()
	if err != nil {
		return err
	}
	for _, f := range g.tiles {
		if err := l.Add(f); err != nil {
			return err
		}
	}
	return nil
}

// appendRecord routes an insert to the tail tile group.
func (t *Table) appendRecord(row uint64, rec schema.Record) error {
	var tail *tileGroup
	if n := len(t.groups); n > 0 && t.groups[n-1].len() < GroupRows {
		tail = t.groups[n-1]
	}
	if tail == nil {
		g, err := t.newGroup(row)
		if err != nil {
			return err
		}
		if err := t.attach(g); err != nil {
			return err
		}
		t.groups = append(t.groups, g)
		tail = g
	}
	return common.AppendToFragments(rec, tail.tiles...)
}

// Observe feeds a workload operation into the layout advisor.
func (t *Table) Observe(op workload.Op) { t.mon.Observe(op) }

// Adapt re-derives the advised grouping from the monitor. It only
// changes what FUTURE tile groups look like (Peloton's incremental FSM).
// Returns whether the advice changed.
func (t *Table) Adapt() (bool, error) {
	if t.mon.Observations() == 0 {
		return false, nil
	}
	advice := t.mon.SuggestGroups(affinity)
	if slices.EqualFunc(advice, t.advised, slices.Equal) {
		return false, nil
	}
	t.advised = advice
	t.mon.Reset()
	return true, nil
}
