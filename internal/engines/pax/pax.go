// Package pax implements the PAX storage model (Ailamaki et al., 2002;
// paper Section IV-A.1): a single-layout, page-level decomposition.
// A relation is horizontally split into page-sized fat fragments; each
// page is linearized DSM-fixed, i.e. the page holds one minipage per
// attribute. Fragmentation is dictated by the page size, which is why the
// paper classifies PAX as inflexible and static despite its many
// fragments. PAX targets disk-based systems: the primary copy is declared
// on secondary storage while the working set lives in host memory.
package pax

import (
	"fmt"

	"hybridstore/internal/engine"
	"hybridstore/internal/engines/common"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
)

// PageBytes is the classic 8 KiB page size.
const PageBytes = 8 << 10

// Engine is the PAX storage engine.
type Engine struct{ env *engine.Env }

// New creates a PAX engine.
func New(env *engine.Env) *Engine { return &Engine{env: env} }

// Name returns the survey name.
func (e *Engine) Name() string { return "PAX" }

// Capabilities declares the paper's Table-1 row for PAX.
func (e *Engine) Capabilities() taxonomy.Capabilities {
	return taxonomy.Capabilities{
		FixedFragmentation: true,
		Processors:         taxonomy.CPUOnly,
		Workloads:          taxonomy.HTAP,
		PrimaryDeclared:    taxonomy.LocSecondary,
		HasPrimaryDeclared: true,
		Year:               2002,
	}
}

// Table is a PAX relation.
type Table struct {
	*common.Table
	rowsPerPage uint64
}

// Create makes an empty PAX relation.
func (e *Engine) Create(name string, s *schema.Schema) (engine.Table, error) {
	rowsPerPage := uint64(PageBytes / s.Width())
	if rowsPerPage < 2 {
		return nil, fmt.Errorf("pax: page of %d bytes holds %d records of %d bytes; need >= 2",
			PageBytes, rowsPerPage, s.Width())
	}
	rel := layout.NewRelation(name, s)
	rel.AddLayout(layout.NewLayout("pages", s))
	t := &Table{Table: common.NewTable(e.env, rel), rowsPerPage: rowsPerPage}
	t.Append = t.appendRecord
	return t, nil
}

// appendRecord routes an insert into the last page, allocating a new
// page-sized DSM fragment when full.
func (t *Table) appendRecord(row uint64, rec schema.Record) error {
	l, err := t.Rel.Primary()
	if err != nil {
		return err
	}
	frags := l.Fragments()
	var page *layout.Fragment
	if n := len(frags); n > 0 && frags[n-1].Len() < frags[n-1].Cap() {
		page = frags[n-1]
	} else {
		begin := row
		page, err = layout.NewFragment(t.Env.Host, t.Rel.Schema(), layout.AllCols(t.Rel.Schema()),
			layout.RowRange{Begin: begin, End: begin + t.rowsPerPage}, layout.DSM)
		if err != nil {
			return fmt.Errorf("pax: allocating page: %w", err)
		}
		if err := l.Add(page); err != nil {
			page.Free()
			return err
		}
	}
	return common.AppendToFragments(rec, page)
}
