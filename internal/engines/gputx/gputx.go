// Package gputx implements GPUTx (He & Yu, 2011; paper Section IV-B.1):
// an in-memory relational prototype that executes transactions in bulk on
// the graphics card to overcome the under-utilization a single small
// transaction would cause. Relations are thin directly-linearized
// sub-relation columns resident in device memory (a weak flexible,
// static, device-memory-only engine) — the storage Table 1 classifies.
//
// Every update arrives on its own, so each executes as a bulk step of
// one: one scatter kernel on one stream. GPUTx's K-set partitioning of a
// batch into conflict-free sets has nothing to partition here and is not
// modelled.
package gputx

import (
	"fmt"

	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
)

// Engine is the GPUTx storage engine.
type Engine struct {
	env *engine.Env
}

// New creates the engine.
func New(env *engine.Env) *Engine { return &Engine{env: env} }

// Name returns the survey name.
func (e *Engine) Name() string { return "GPUTx" }

// Capabilities declares the paper's Table-1 row.
func (e *Engine) Capabilities() taxonomy.Capabilities {
	return taxonomy.Capabilities{
		Processors: taxonomy.GPUOnly,
		Workloads:  taxonomy.OLTP,
		Year:       2011,
	}
}

// Table is a GPUTx relation: device-resident thin columns.
type Table struct {
	env  *engine.Env
	rel  *layout.Relation
	s    *schema.Schema
	cols []*layout.Fragment
	rows uint64
}

// Create makes an empty relation with device-resident columns. Creation
// fails with mem.ErrOutOfMemory when the device cannot hold the columns.
func (e *Engine) Create(name string, s *schema.Schema) (engine.Table, error) {
	rel := layout.NewRelation(name, s)
	l := layout.NewLayout("device-columns", s)
	t := &Table{env: e.env, rel: rel, s: s}
	const initialCap = 64
	for c := 0; c < s.Arity(); c++ {
		f, err := layout.NewFragment(t.env.GPU.Allocator(), s, []int{c},
			layout.RowRange{Begin: 0, End: initialCap}, layout.Direct)
		if err != nil {
			l.Free()
			return nil, fmt.Errorf("gputx: allocating device column: %w", err)
		}
		l.Add(f)
		t.cols = append(t.cols, f)
	}
	rel.AddLayout(l)
	return t, nil
}

// Schema returns the relation schema.
func (t *Table) Schema() *schema.Schema { return t.s }

// Rows returns the row count.
func (t *Table) Rows() uint64 { return t.rows }

// Snapshot digests the live structure (all fragments device-resident).
func (t *Table) Snapshot() layout.Snapshot { return t.rel.Digest() }

// Free releases the device columns.
func (t *Table) Free() {
	t.rel.Free()
	t.cols = nil
	t.rows = 0
}

// Insert bulk-loads one record into the device columns, charging the bus
// for the transferred tuplet bytes.
func (t *Table) Insert(rec schema.Record) (uint64, error) {
	if err := schema.ValidateRecord(t.s, rec); err != nil {
		return 0, err
	}
	l, _ := t.rel.Primary()
	for c, f := range t.cols {
		if f.Len() == f.Cap() {
			grown, err := f.Grow(t.env.GPU.Allocator(), f.Cap()*2)
			if err != nil {
				return 0, fmt.Errorf("gputx: growing device column: %w", err)
			}
			// Device-to-device move: charge global-memory bandwidth.
			if t.env.Clock != nil {
				t.env.Clock.Advance(float64(grown.SizeBytes()) / t.env.GPU.Profile().GlobalBandwidth * 1e9)
			}
			if err := l.Replace(f, grown); err != nil {
				return 0, err
			}
			t.cols[c] = grown
			f = grown
		}
		if err := f.AppendTuplet([]schema.Value{rec[c]}); err != nil {
			return 0, err
		}
	}
	// One host→device shipment per inserted record (the write batch of a
	// transaction crossing the bus).
	if t.env.Clock != nil {
		t.env.Clock.Advance(t.env.GPU.Profile().TransferNs(int64(t.s.Width())))
	}
	row := t.rows
	t.rows++
	t.rel.SetRows(t.rows)
	return row, nil
}

// gatherRecord materializes one row from the device columns into host
// memory, charging gather + transfer.
func (t *Table) gatherRecord(row uint64) (schema.Record, error) {
	rec := make(schema.Record, t.s.Arity())
	for c, f := range t.cols {
		v, err := f.Get(int(row), c)
		if err != nil {
			return nil, err
		}
		rec[c] = v
	}
	if t.env.Clock != nil {
		p := t.env.GPU.Profile()
		t.env.Clock.Advance(p.GatherKernelNs(1, int64(t.rows), t.s.Width()) + p.TransferNs(int64(t.s.Width())))
	}
	return rec, nil
}

// Get executes a single-read batch.
func (t *Table) Get(row uint64) (schema.Record, error) {
	if row >= t.rows {
		return nil, fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, t.rows)
	}
	return t.gatherRecord(row)
}

// Update executes one update as a bulk step of one transaction. The row,
// the column and the value are checked before anything runs, so a
// rejected update changes nothing.
func (t *Table) Update(row uint64, col int, v schema.Value) error {
	if row >= t.rows {
		return fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, t.rows)
	}
	if col < 0 || col >= t.s.Arity() {
		return fmt.Errorf("%w: col %d", layout.ErrOutOfRange, col)
	}
	a := t.s.Attr(col)
	buf := make([]byte, a.Size)
	if err := schema.EncodeValue(buf, a, v); err != nil {
		return fmt.Errorf("gputx: encoding update: %w", err)
	}
	f := t.cols[col]
	// Scatter writes bypass Fragment.Set, so the column's zone would
	// silently narrow; widen it here to keep it a conservative envelope.
	if z := f.Stats(col); z != nil {
		z.WidenFloat64(v.F)
	}
	vec, err := f.ColVector(col)
	if err != nil {
		return err
	}
	s := t.env.GPU.NewStream()
	defer s.Wait()
	if err := s.Scatter(exec.DeviceVec(vec), []int{int(row)}, buf); err != nil {
		return fmt.Errorf("gputx: scatter on column %d: %w", col, err)
	}
	// Scatter writes bypass Fragment.Set; bump the version by hand so
	// device-cached images of the column stop validating.
	f.BumpVersion()
	return nil
}

// Pieces is the table as a scan source: every column is one piece
// resident in device memory (no bus crossing: the data already lives on
// the device), carrying the column's zone so a predicate it proves
// match-free launches no kernel at all.
func (t *Table) Pieces(p exec.Plan) (keys, vals []exec.Piece, err error) {
	return engine.ColumnPieces(p, func(col int) ([]exec.Piece, error) {
		f := t.cols[col]
		v, err := f.ColVector(col)
		if err != nil {
			return nil, err
		}
		return []exec.Piece{{
			Rows: layout.RowRange{Begin: 0, End: uint64(v.Len)},
			Vec:  v, Place: exec.Resident, Zone: f.Stats(col),
			FragID: f.ID(), FragVersion: f.Version(),
		}}, nil
	})
}

// Scan answers one aggregate plan through the shared scan body, on the
// table's own card: the reduction kernels for the sums, ONE fused
// group-reduce launch for the predicated group-by (only the group table
// crosses the bus).
func (t *Table) Scan(p exec.Plan) (exec.Result, error) {
	return engine.Scan(t, exec.Config{}, exec.DeviceScan{GPU: t.env.GPU}, p)
}

// Materialize gathers a position list into the host result pool format.
func (t *Table) Materialize(positions []uint64) ([]schema.Record, error) {
	out := make([]schema.Record, len(positions))
	for i, p := range positions {
		rec, err := t.Get(p)
		if err != nil {
			return nil, err
		}
		out[i] = rec
	}
	return out, nil
}
