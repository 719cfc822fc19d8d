// Package es2 implements ES², the elastic storage engine of the epiC
// cloud platform (Cao et al., 2011; paper Section IV-A.4), over a
// simulated shared-nothing cluster. The built-in two-step fragmentation
// is reproduced: (1) columns that are frequently accessed together fuse
// into vertical sub-relations (driven by workload traces through the
// co-access monitor), then (2) each sub-relation is horizontally split
// into partitions placed round-robin across the cluster nodes. Tuplets
// are written PAX-formatted (DSM-fixed fat fragments) onto each node's
// DFS-backed storage, record-centric access goes through a distributed
// secondary index, and every partition is replicated onto the next node
// for load balancing and fault tolerance — FailNode flips reads over to
// the replicas.
package es2

import (
	"fmt"

	"hybridstore/internal/engine"
	"hybridstore/internal/engines/common"
	"hybridstore/internal/index"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
	"hybridstore/internal/workload"
)

// DefaultPartitionRows is the default horizontal partition size.
const DefaultPartitionRows = 512

// Engine is the ES² storage engine.
type Engine struct {
	env      *engine.Env
	nodes    int
	partRows uint64
	affinity float64
}

// New creates the engine over a simulated cluster of the given size
// (minimum 2 nodes); partRows 0 uses DefaultPartitionRows.
func New(env *engine.Env, nodes int, partRows uint64) *Engine {
	if nodes < 2 {
		nodes = 2
	}
	if partRows == 0 {
		partRows = DefaultPartitionRows
	}
	return &Engine{env: env, nodes: nodes, partRows: partRows, affinity: 0.5}
}

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

// node is one simulated cluster node with its own DFS-backed storage.
type node struct {
	id     int
	dfs    *mem.Allocator
	failed bool
}

// partition is one (column group × row range) cell with its primary and
// replica fragments and their nodes.
type partition struct {
	rows        layout.RowRange
	group       int
	primary     *layout.Fragment
	replica     *layout.Fragment
	primaryNode int
	replicaNode int
}

// Table is an ES² relation.
type Table struct {
	*common.Table
	eng    *Engine
	nodes  []*node
	groups [][]int
	parts  []*partition
	mon    *workload.Monitor
	// pkIndex is the distributed secondary index: primary key value
	// (attribute 0, int64) → row position.
	pkIndex *index.Hash
	adapts  int
}

// Create makes an empty relation with the all-thin initial grouping.
func (e *Engine) Create(name string, s *schema.Schema) (engine.Table, error) {
	rel := layout.NewRelation(name, s)
	rel.AddLayout(layout.NewLayout("primary", s))
	rel.AddLayout(layout.NewLayout("replica", s))
	t := &Table{
		eng:     e,
		mon:     workload.NewMonitor(s.Arity()),
		pkIndex: index.NewHash(64),
	}
	for i := 0; i < e.nodes; i++ {
		t.nodes = append(t.nodes, &node{id: i, dfs: mem.NewAllocator(mem.Secondary, 0)})
	}
	for c := 0; c < s.Arity(); c++ {
		t.groups = append(t.groups, []int{c})
	}
	t.Table = common.NewTable(e.env, rel)
	t.Append = t.appendRecord
	return t, nil
}

// Nodes returns the cluster size.
func (t *Table) Nodes() int { return len(t.nodes) }

// Groups returns the current sub-relation column groups.
func (t *Table) Groups() [][]int { return t.groups }

// Adapts returns the number of re-fragmentations.
func (t *Table) Adapts() int { return t.adapts }

// Partitions returns the partition count.
func (t *Table) Partitions() int { return len(t.parts) }

// newPartition allocates primary+replica fragments for (group, rows) on
// consecutive nodes, skipping failed ones.
func (t *Table) newPartition(group int, rows layout.RowRange, idx int) (*partition, error) {
	s := t.Rel.Schema()
	cols := t.groups[group]
	// Partitions are PAX-formatted pages: DSM-fixed even for degenerate
	// single-attribute sub-relations (the paper notes ES² "inherits the
	// fragmentation linearization property of PAX").
	lin := layout.DSM
	pn := t.pickNode(idx)
	rn := t.pickNode(idx + 1)
	prim, err := layout.NewFragment(t.nodes[pn].dfs, s, cols, rows, lin)
	if err != nil {
		return nil, fmt.Errorf("es2: allocating partition: %w", err)
	}
	repl, err := layout.NewFragment(t.nodes[rn].dfs, s, cols, rows, lin)
	if err != nil {
		prim.Free()
		return nil, fmt.Errorf("es2: allocating replica: %w", err)
	}
	p := &partition{rows: rows, group: group, primary: prim, replica: repl, primaryNode: pn, replicaNode: rn}
	if err := t.Rel.Layouts()[0].Add(prim); err != nil {
		return nil, err
	}
	if err := t.Rel.Layouts()[1].Add(repl); err != nil {
		return nil, err
	}
	return p, nil
}

// pickNode maps a partition index to a live node round-robin.
func (t *Table) pickNode(idx int) int {
	n := len(t.nodes)
	for probe := 0; probe < n; probe++ {
		cand := (idx + probe) % n
		if !t.nodes[cand].failed {
			return cand
		}
	}
	return idx % n
}

// appendRecord routes the insert into the tail partitions of every
// column group, creating a new partition stripe when the tail is full.
func (t *Table) appendRecord(row uint64, rec schema.Record) error {
	stripe := int(row / t.eng.partRows)
	begin := uint64(stripe) * t.eng.partRows
	rows := layout.RowRange{Begin: begin, End: begin + t.eng.partRows}
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
		targets := []*layout.Fragment{p.primary}
		if p.replica != p.primary {
			targets = append(targets, p.replica)
		}
		if err := common.AppendToFragments(rec, targets...); err != nil {
			return err
		}
	}
	if err := t.pkIndex.Put(rec[0].I, row); err != nil {
		return fmt.Errorf("es2: indexing pk: %w", err)
	}
	return nil
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

// LookupPK resolves a primary-key value through the distributed secondary
// index to a row position.
func (t *Table) LookupPK(pk int64) (uint64, bool) {
	return t.pkIndex.Lookup(pk)
}

// FailNode marks a node as failed and promotes the replicas of its
// primary partitions into the read path, so every row stays readable
// after a single-node failure (the fractured-mirror-style guarantee the
// replica placement exists for).
func (t *Table) FailNode(id int) error {
	if id < 0 || id >= len(t.nodes) {
		return fmt.Errorf("%w: node %d of %d", layout.ErrOutOfRange, id, len(t.nodes))
	}
	t.nodes[id].failed = true
	primaryLayout := t.Rel.Layouts()[0]
	for _, p := range t.parts {
		if p.primaryNode == id && p.replicaNode != id {
			if err := primaryLayout.Replace(p.primary, p.replica); err != nil {
				return err
			}
			p.primary.Free()
			p.primary, p.primaryNode = p.replica, p.replicaNode
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
	suggestion := t.mon.SuggestGroups(t.eng.affinity)
	if groupingEqual(suggestion, t.groups) {
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
	t.pkIndex = index.NewHash(int(rows))
	for row, rec := range recs {
		if err := t.appendRecord(uint64(row), rec); err != nil {
			return false, err
		}
		t.Rel.SetRows(uint64(row) + 1)
	}
	t.adapts++
	t.mon.Reset()
	return true, nil
}

// NodeBytes returns each node's stored bytes (for balance tests).
func (t *Table) NodeBytes() []int64 {
	out := make([]int64, len(t.nodes))
	for i, n := range t.nodes {
		out[i] = n.dfs.Used()
	}
	return out
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

// AddNode grows the simulated cluster by one node (epiC's elasticity:
// the storage layer absorbs new machines at runtime). New partition
// stripes consider the node immediately; Rebalance moves existing
// partitions onto it.
func (t *Table) AddNode() int {
	id := len(t.nodes)
	t.nodes = append(t.nodes, &node{id: id, dfs: mem.NewAllocator(mem.Secondary, 0)})
	return id
}

// Rebalance migrates partitions from the most- to the least-loaded live
// nodes until every node is within one partition-size of the mean —
// epiC's elastic load balancing after cluster growth. Primary and
// replica of one partition never co-locate. Returns the number of
// fragment moves.
func (t *Table) Rebalance() (int, error) {
	moved := 0
	for {
		src, dst := t.mostLoaded(), t.leastLoaded()
		if src < 0 || dst < 0 || src == dst {
			return moved, nil
		}
		gap := t.nodes[src].dfs.Used() - t.nodes[dst].dfs.Used()
		p, isPrimary := t.victimOn(src, dst)
		if p == nil {
			return moved, nil
		}
		frag := p.primary
		if !isPrimary {
			frag = p.replica
		}
		if gap <= int64(frag.SizeBytes()) {
			return moved, nil
		}
		clone, err := frag.CloneTo(t.nodes[dst].dfs)
		if err != nil {
			return moved, fmt.Errorf("es2: rebalancing: %w", err)
		}
		layoutIdx := 0
		if !isPrimary {
			layoutIdx = 1
		}
		if err := t.Rel.Layouts()[layoutIdx].Replace(frag, clone); err != nil {
			clone.Free()
			return moved, err
		}
		frag.Free()
		if isPrimary {
			p.primary, p.primaryNode = clone, dst
		} else {
			p.replica, p.replicaNode = clone, dst
		}
		moved++
	}
}

// mostLoaded and leastLoaded pick live nodes by stored bytes.
func (t *Table) mostLoaded() int {
	best, bytes := -1, int64(-1)
	for i, n := range t.nodes {
		if !n.failed && n.dfs.Used() > bytes {
			best, bytes = i, n.dfs.Used()
		}
	}
	return best
}

func (t *Table) leastLoaded() int {
	best := -1
	var bytes int64
	for i, n := range t.nodes {
		if !n.failed && (best < 0 || n.dfs.Used() < bytes) {
			best, bytes = i, n.dfs.Used()
		}
	}
	return best
}

// victimOn finds a fragment on src movable to dst without co-locating a
// partition's primary and replica.
func (t *Table) victimOn(src, dst int) (*partition, bool) {
	for _, p := range t.parts {
		if p.primaryNode == src && p.replicaNode != dst {
			return p, true
		}
		if p.replicaNode == src && p.primaryNode != dst && p.replica != p.primary {
			return p, false
		}
	}
	return nil, false
}
