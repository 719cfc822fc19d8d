// Package es2 implements ES², the elastic storage engine of the epiC
// cloud platform (Cao et al., 2011; paper Section IV-A.4), over a
// simulated shared-nothing cluster. The built-in two-step fragmentation
// is reproduced: (1) columns that are frequently accessed together fuse
// into vertical sub-relations (driven by workload traces through the
// co-access monitor), then (2) each sub-relation is horizontally split
// into partitions placed round-robin across the cluster nodes. Tuplets
// are written PAX-formatted (DSM-fixed fat fragments) onto each node's
// DFS-backed storage, the primary key goes through a distributed
// secondary index, and every partition is replicated onto the next node.
package es2

import (
	"fmt"
	"slices"

	"hybridstore/internal/engine"
	"hybridstore/internal/engines/common"
	"hybridstore/internal/index"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
	"hybridstore/internal/workload"
)

const (
	// Nodes is the simulated cluster size.
	Nodes = 4
	// PartitionRows is the horizontal partition size.
	PartitionRows = 512
	// affinity is the co-access share above which two columns fuse into
	// one sub-relation.
	affinity = 0.5
)

// Engine is the ES² storage engine.
type Engine struct{ env *engine.Env }

// New creates the engine over a simulated cluster of Nodes nodes.
func New(env *engine.Env) *Engine { return &Engine{env: env} }

// Name returns the survey name.
func (e *Engine) Name() string { return "ES2" }

// Capabilities declares the paper's Table-1 row.
func (e *Engine) Capabilities() taxonomy.Capabilities {
	return taxonomy.Capabilities{
		BuiltInMultiLayout: true,
		Responsive:         true,
		ClusterDistributed: true,
		Scheme:             taxonomy.SchemeDelegation,
		Processors:         taxonomy.CPUOnly,
		Workloads:          taxonomy.HTAP,
		PrimaryDeclared:    taxonomy.LocSecondary,
		HasPrimaryDeclared: true,
		Year:               2011,
	}
}

// partition is one (column group × row range) cell with its primary and
// replica fragments.
type partition struct {
	rows             layout.RowRange
	group            int
	primary, replica *layout.Fragment
}

// Table is an ES² relation.
type Table struct {
	*common.Table
	// nodes holds each cluster node's DFS-backed storage.
	nodes  []*mem.Allocator
	groups [][]int
	parts  []*partition
	mon    *workload.Monitor
	// pkIndex is the distributed secondary index: primary key value
	// (attribute 0, int64) → row position.
	pkIndex *index.Hash
}

// Create makes an empty relation with the all-thin initial grouping.
func (e *Engine) Create(name string, s *schema.Schema) (engine.Table, error) {
	rel := layout.NewRelation(name, s)
	rel.AddLayout(layout.NewLayout("primary", s))
	rel.AddLayout(layout.NewLayout("replica", s))
	t := &Table{
		mon:     workload.NewMonitor(s.Arity()),
		pkIndex: index.NewHash(),
	}
	for i := 0; i < Nodes; i++ {
		t.nodes = append(t.nodes, mem.NewAllocator(mem.Secondary, 0))
	}
	for c := 0; c < s.Arity(); c++ {
		t.groups = append(t.groups, []int{c})
	}
	t.Table = common.NewTable(e.env, rel)
	t.Append = t.appendRecord
	return t, nil
}

// newPartition allocates primary+replica fragments for (group, rows) on
// consecutive nodes.
func (t *Table) newPartition(group int, rows layout.RowRange, idx int) (*partition, error) {
	s := t.Rel.Schema()
	cols := t.groups[group]
	// Partitions are PAX-formatted pages: DSM-fixed even for degenerate
	// single-attribute sub-relations (the paper notes ES² "inherits the
	// fragmentation linearization property of PAX").
	lin := layout.DSM
	prim, err := layout.NewFragment(t.nodes[idx%Nodes], s, cols, rows, lin)
	if err != nil {
		return nil, fmt.Errorf("es2: allocating partition: %w", err)
	}
	repl, err := layout.NewFragment(t.nodes[(idx+1)%Nodes], s, cols, rows, lin)
	if err != nil {
		prim.Free()
		return nil, fmt.Errorf("es2: allocating replica: %w", err)
	}
	p := &partition{rows: rows, group: group, primary: prim, replica: repl}
	if err := t.Rel.Layouts()[0].Add(prim); err != nil {
		return nil, err
	}
	if err := t.Rel.Layouts()[1].Add(repl); err != nil {
		return nil, err
	}
	return p, nil
}

// appendRecord routes the insert into the tail partitions of every
// column group, creating a new partition stripe when the tail is full.
// The pk index is probed before any fragment is written, so a rejected
// duplicate leaves no tuplet behind.
func (t *Table) appendRecord(row uint64, rec schema.Record) error {
	if _, dup := t.pkIndex.Lookup(rec[0].I); dup {
		return fmt.Errorf("es2: indexing pk %d: %w", rec[0].I, index.ErrDuplicate)
	}
	stripe := int(row / PartitionRows)
	begin := uint64(stripe) * PartitionRows
	rows := layout.RowRange{Begin: begin, End: begin + PartitionRows}
	for g := range t.groups {
		p := t.findPartition(g, row)
		if p == nil {
			var err error
			p, err = t.newPartition(g, rows, stripe*len(t.groups)+g)
			if err != nil {
				return err
			}
			t.parts = append(t.parts, p)
		}
		if err := common.AppendToFragments(rec, p.primary, p.replica); err != nil {
			return err
		}
	}
	return t.pkIndex.Put(rec[0].I, row)
}

// findPartition locates the partition of group g covering row.
func (t *Table) findPartition(g int, row uint64) *partition {
	for _, p := range t.parts {
		if p.group == g && p.rows.Contains(row) {
			return p
		}
	}
	return nil
}

// Observe feeds a workload operation into the fragmentation advisor.
func (t *Table) Observe(op workload.Op) { t.mon.Observe(op) }

// Adapt re-runs the built-in two-step fragmentation against the observed
// trace: step one re-derives the vertical sub-relations from co-access,
// step two re-partitions them horizontally across the nodes. Returns
// whether the grouping changed.
func (t *Table) Adapt() (bool, error) {
	if t.mon.Observations() == 0 {
		return false, nil
	}
	suggestion := t.mon.SuggestGroups(affinity)
	if slices.EqualFunc(suggestion, t.groups, slices.Equal) {
		return false, nil
	}
	rows := t.Rel.Rows()
	// Materialize all rows through the old structure, then rebuild.
	recs := make([]schema.Record, rows)
	for row := uint64(0); row < rows; row++ {
		rec, err := t.Get(row)
		if err != nil {
			return false, fmt.Errorf("es2: migrating row %d: %w", row, err)
		}
		recs[row] = rec
	}
	for _, l := range t.Rel.Layouts() {
		l.Free()
	}
	t.Rel.RemoveLayout(t.Rel.Layouts()[0])
	t.Rel.RemoveLayout(t.Rel.Layouts()[0])
	s := t.Rel.Schema()
	t.Rel.AddLayout(layout.NewLayout("primary", s))
	t.Rel.AddLayout(layout.NewLayout("replica", s))
	t.parts = nil
	t.groups = suggestion
	t.Rel.SetRows(0)
	t.pkIndex = index.NewHash()
	for row, rec := range recs {
		if err := t.appendRecord(uint64(row), rec); err != nil {
			return false, err
		}
		t.Rel.SetRows(uint64(row) + 1)
	}
	t.mon.Reset()
	return true, nil
}
