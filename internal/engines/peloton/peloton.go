// Package peloton implements the tile-based architecture of Arulraj,
// Pavlo & Menon (2016; paper Section IV-B.5), the storage engine of the
// Peloton DBMS: a relation is a sequence of tile groups (horizontal
// fragments), each vertically partitioned into physical tiles whose
// column grouping is chosen per group — the flexible storage model (FSM).
// New tile groups adopt the currently-advised grouping while old groups
// keep theirs, so the relation's layout evolves incrementally with the
// workload; TransformGroup migrates cold groups in the background.
// Logical tiles provide layout transparency: they reference tuplets
// stored in physical tiles (possibly shared by several logical tiles — a
// delegation-based scheme) without exposing their linearization.
package peloton

import (
	"fmt"

	"hybridstore/internal/engine"
	"hybridstore/internal/engines/common"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
	"hybridstore/internal/workload"
)

// DefaultGroupRows is the default tile-group capacity.
const DefaultGroupRows = 1024

// Engine is the Peloton storage engine.
type Engine struct {
	env       *engine.Env
	groupRows uint64
	affinity  float64
}

// New creates the engine; groupRows 0 uses DefaultGroupRows, affinity
// outside (0,1] uses 0.5.
func New(env *engine.Env, groupRows uint64, affinity float64) *Engine {
	if groupRows == 0 {
		groupRows = DefaultGroupRows
	}
	if affinity <= 0 || affinity > 1 {
		affinity = 0.5
	}
	return &Engine{env: env, groupRows: groupRows, affinity: affinity}
}

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
	rows   layout.RowRange
	groups [][]int
	tiles  []*layout.Fragment
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
	eng    *Engine
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
		eng:     e,
		mon:     workload.NewMonitor(s.Arity()),
		advised: [][]int{layout.AllCols(s)},
	}
	t.Append = t.appendRecord
	return t, nil
}

// newGroup allocates a tile group at row begin with the advised layout.
func (t *Table) newGroup(begin uint64) (*tileGroup, error) {
	s := t.Rel.Schema()
	g := &tileGroup{
		rows:   layout.RowRange{Begin: begin, End: begin + t.eng.groupRows},
		groups: t.advised,
	}
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
	if n := len(t.groups); n > 0 && t.groups[n-1].len() < int(t.eng.groupRows) {
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

// TileGroups returns the group count.
func (t *Table) TileGroups() int { return len(t.groups) }

// GroupLayout returns the column grouping of tile group i.
func (t *Table) GroupLayout(i int) [][]int {
	if i < 0 || i >= len(t.groups) {
		return nil
	}
	return t.groups[i].groups
}

// Observe feeds a workload operation into the layout advisor.
func (t *Table) Observe(op workload.Op) { t.mon.Observe(op) }

// Adapt re-derives the advised grouping from the monitor. It only
// changes what FUTURE tile groups look like (Peloton's incremental FSM);
// TransformGroup migrates existing groups. Returns whether the advice
// changed.
func (t *Table) Adapt() (bool, error) {
	if t.mon.Observations() == 0 {
		return false, nil
	}
	advice := t.mon.SuggestGroups(t.eng.affinity)
	if groupingEqual(advice, t.advised) {
		return false, nil
	}
	t.advised = advice
	t.mon.Reset()
	return true, nil
}

// TransformGroup migrates tile group i to the currently advised layout
// (the background transformation of cold tile groups).
func (t *Table) TransformGroup(i int) error {
	if i < 0 || i >= len(t.groups) {
		return fmt.Errorf("%w: tile group %d of %d", layout.ErrOutOfRange, i, len(t.groups))
	}
	old := t.groups[i]
	if groupingEqual(old.groups, t.advised) {
		return nil
	}
	s := t.Rel.Schema()
	ng := &tileGroup{rows: old.rows, groups: t.advised}
	for _, cols := range t.advised {
		lin := layout.Direct
		if len(cols) > 1 {
			lin = layout.NSM
		}
		f, err := layout.NewFragment(t.Env.Host, s, cols, old.rows, lin)
		if err != nil {
			for _, done := range ng.tiles {
				done.Free()
			}
			return fmt.Errorf("peloton: transforming tile group: %w", err)
		}
		ng.tiles = append(ng.tiles, f)
	}
	// Migrate tuplets through a logical tile over the old group.
	lt := t.LogicalTile(i, layout.AllCols(s))
	for pos := 0; pos < old.len(); pos++ {
		rec, err := lt.Record(pos)
		if err != nil {
			for _, done := range ng.tiles {
				done.Free()
			}
			return err
		}
		if err := common.AppendToFragments(rec, ng.tiles...); err != nil {
			for _, done := range ng.tiles {
				done.Free()
			}
			return err
		}
	}
	l, _ := t.Rel.Primary()
	for _, f := range old.tiles {
		l.Remove(f)
		f.Free()
	}
	t.groups[i] = ng
	return t.attach(ng)
}

// LogicalTile is Peloton's layout-transparency abstraction: a projection
// over one tile group that resolves attributes to whatever physical tile
// stores them, without exposing linearization. Several logical tiles may
// reference the same physical tuplets (delegation).
type LogicalTile struct {
	group *tileGroup
	cols  []int
}

// LogicalTile builds a logical tile over tile group i with the given
// attribute projection.
func (t *Table) LogicalTile(i int, cols []int) *LogicalTile {
	if i < 0 || i >= len(t.groups) {
		return nil
	}
	return &LogicalTile{group: t.groups[i], cols: cols}
}

// Len returns the tuplet count of the logical tile.
func (lt *LogicalTile) Len() int { return lt.group.len() }

// Value resolves (pos, col) through the physical tiles.
func (lt *LogicalTile) Value(pos int, col int) (schema.Value, error) {
	for _, f := range lt.group.tiles {
		if f.HasCol(col) {
			return f.Get(pos, col)
		}
	}
	return schema.Value{}, fmt.Errorf("%w: attribute %d", layout.ErrOutOfRange, col)
}

// Record materializes the logical tile's projection at pos.
func (lt *LogicalTile) Record(pos int) (schema.Record, error) {
	rec := make(schema.Record, len(lt.cols))
	for i, c := range lt.cols {
		v, err := lt.Value(pos, c)
		if err != nil {
			return nil, err
		}
		rec[i] = v
	}
	return rec, nil
}

// groupingEqual compares two column groupings.
func groupingEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
