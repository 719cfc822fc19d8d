// Package mirrors implements Fractured Mirrors (Ramamurthy, DeWitt, Su,
// 2002; paper Section IV-A.2): a replication-based, inflexible,
// multi-layout engine holding two logical copies of each relation — one
// NSM-linearized, one DSM-linearized — rather than two identical physical
// copies. Writes go to both mirrors; reads route by access pattern (the
// common table base picks the NSM mirror for record-centric access and
// the DSM mirror for attribute-centric scans via its cost model).
package mirrors

import (
	"fmt"

	"hybridstore/internal/engine"
	"hybridstore/internal/engines/common"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
)

// Engine is the Fractured Mirrors storage engine.
type Engine struct{ env *engine.Env }

// New creates the engine.
func New(env *engine.Env) *Engine { return &Engine{env: env} }

// Name returns the survey name.
func (e *Engine) Name() string { return "Fractured Mirrors" }

// Capabilities declares the paper's Table-1 row.
func (e *Engine) Capabilities() taxonomy.Capabilities {
	return taxonomy.Capabilities{
		BuiltInMultiLayout: true,
		FixedFragmentation: true, // one full-relation fragment per mirror
		Scheme:             taxonomy.SchemeReplication,
		Processors:         taxonomy.CPUOnly,
		Workloads:          taxonomy.HTAP,
		PrimaryDeclared:    taxonomy.LocSecondary,
		HasPrimaryDeclared: true,
		Year:               2002,
	}
}

// Table is a fractured-mirrors relation.
type Table struct {
	*common.Table
	nsm, dsm *layout.Fragment
}

// Create makes an empty mirrored relation.
func (e *Engine) Create(name string, s *schema.Schema) (engine.Table, error) {
	rel := layout.NewRelation(name, s)
	const initialCap = 64
	nsmLayout := layout.NewLayout("nsm-mirror", s)
	dsmLayout := layout.NewLayout("dsm-mirror", s)
	nsm, err := layout.NewFragment(e.env.Host, s, layout.AllCols(s), layout.RowRange{Begin: 0, End: initialCap}, layout.NSM)
	if err != nil {
		return nil, fmt.Errorf("mirrors: %w", err)
	}
	dsm, err := layout.NewFragment(e.env.Host, s, layout.AllCols(s), layout.RowRange{Begin: 0, End: initialCap}, layout.DSM)
	if err != nil {
		nsm.Free()
		return nil, fmt.Errorf("mirrors: %w", err)
	}
	nsmLayout.Add(nsm)
	dsmLayout.Add(dsm)
	rel.AddLayout(nsmLayout)
	rel.AddLayout(dsmLayout)
	t := &Table{Table: common.NewTable(e.env, rel), nsm: nsm, dsm: dsm}
	t.Append = t.appendRecord
	return t, nil
}

// appendRecord writes the record into both mirrors, growing them as
// needed.
func (t *Table) appendRecord(_ uint64, rec schema.Record) error {
	var err error
	if t.nsm.Len() == t.nsm.Cap() {
		grown, gerr := t.nsm.Grow(t.Env.Host, t.nsm.Cap()*2)
		if gerr != nil {
			return fmt.Errorf("mirrors: growing NSM mirror: %w", gerr)
		}
		if err = t.Rel.Layouts()[0].Replace(t.nsm, grown); err != nil {
			return err
		}
		t.nsm = grown
	}
	if t.dsm.Len() == t.dsm.Cap() {
		grown, gerr := t.dsm.Grow(t.Env.Host, t.dsm.Cap()*2)
		if gerr != nil {
			return fmt.Errorf("mirrors: growing DSM mirror: %w", gerr)
		}
		if err = t.Rel.Layouts()[1].Replace(t.dsm, grown); err != nil {
			return err
		}
		t.dsm = grown
	}
	return common.AppendToFragments(rec, t.nsm, t.dsm)
}
