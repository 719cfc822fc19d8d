// Package gputx implements GPUTx (He & Yu, 2011; paper Section IV-B.1):
// an in-memory relational prototype that executes transactions in bulk on
// the graphics card to overcome the under-utilization a single small
// transaction would cause. Relations are thin directly-linearized
// sub-relation columns resident in device memory (a weak flexible,
// static, device-memory-only engine); a result pool in host memory
// receives the copies query answers are delivered through.
//
// Transactions are submitted to a batch queue and executed together
// following GPUTx's K-set model: the batch is partitioned into a sequence
// of conflict-free sets — transactions within one set touch pairwise
// disjoint rows, so the whole set executes as one parallel step on the
// device (updates fuse into one scatter kernel per column, reads into
// gathers delivering to the host result pool). Sets execute in order, so
// cross-set semantics are serial; within a transaction, operations see
// the transaction's own earlier writes.
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

// TxOp is one operation of a bulk-submitted transaction.
type TxOp struct {
	// Read reports whether this is a read (true) or an update (false).
	Read bool
	// Row is the target position.
	Row uint64
	// Col is the attribute (updates only).
	Col int
	// Val is the new value (updates only).
	Val schema.Value
}

// Table is a GPUTx relation: device-resident thin columns plus the host
// result pool and the pending transaction batch.
type Table struct {
	env  *engine.Env
	rel  *layout.Relation
	s    *schema.Schema
	cols []*layout.Fragment
	rows uint64

	batch    [][]TxOp
	lastSets int
	results  []schema.Record
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
	if len(rec) != t.s.Arity() {
		return 0, fmt.Errorf("%w: arity %d vs schema %d", schema.ErrArityMismatch, len(rec), t.s.Arity())
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

// Submit queues one transaction (a list of operations) for bulk
// execution.
func (t *Table) Submit(ops ...TxOp) {
	t.batch = append(t.batch, append([]TxOp(nil), ops...))
}

// Pending returns the queued operation count.
func (t *Table) Pending() int {
	n := 0
	for _, tx := range t.batch {
		n += len(tx)
	}
	return n
}

// KSets reports how many conflict-free sets the last ExecuteBatch ran —
// the degree of inter-transaction parallelism GPUTx extracted (1 set =
// the whole batch ran as one parallel step).
func (t *Table) KSets() int { return t.lastSets }

// ResultPool returns the host-side results delivered by executed read
// operations, in execution order, and clears the pool.
func (t *Table) ResultPool() []schema.Record {
	out := t.results
	t.results = nil
	return out
}

// ExecuteBatch partitions the queued transactions into conflict-free
// K-sets and executes the sets in order: within a set, all updates fuse
// into one scatter kernel per column and reads gather into the host
// result pool (in submission order). Validation happens before any set
// executes, so a bad batch changes nothing.
func (t *Table) ExecuteBatch() error {
	for _, txn := range t.batch {
		for _, op := range txn {
			if op.Row >= t.rows {
				return fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, op.Row, t.rows)
			}
			if !op.Read && (op.Col < 0 || op.Col >= t.s.Arity()) {
				return fmt.Errorf("%w: col %d", layout.ErrOutOfRange, op.Col)
			}
		}
	}
	sets := t.conflictSets()
	t.lastSets = len(sets)
	for _, set := range sets {
		if err := t.executeSet(set); err != nil {
			return err
		}
	}
	t.batch = nil
	return nil
}

// conflictSets greedily assigns each transaction to the first set in
// which it conflicts with no member (two transactions conflict when they
// touch a common row).
func (t *Table) conflictSets() [][][]TxOp {
	var sets [][][]TxOp
	var setRows []map[uint64]bool
	for _, txn := range t.batch {
		rows := map[uint64]bool{}
		for _, op := range txn {
			rows[op.Row] = true
		}
		placed := false
		for si := range sets {
			conflict := false
			for r := range rows {
				if setRows[si][r] {
					conflict = true
					break
				}
			}
			if !conflict {
				sets[si] = append(sets[si], txn)
				for r := range rows {
					setRows[si][r] = true
				}
				placed = true
				break
			}
		}
		if !placed {
			sets = append(sets, [][]TxOp{txn})
			setRows = append(setRows, rows)
		}
	}
	return sets
}

// executeSet runs one conflict-free set: reads resolve against the
// pre-set device state merged with the transaction's own earlier writes,
// and all updates land in one scatter kernel per column at the end.
func (t *Table) executeSet(set [][]TxOp) error {
	type colUpdates struct {
		positions []int
		vals      []byte
	}
	pending := make(map[int]*colUpdates)
	for _, txn := range set {
		// ownWrites: (row,col) → value written earlier in this txn.
		type cell struct {
			row uint64
			col int
		}
		ownWrites := map[cell]schema.Value{}
		for _, op := range txn {
			if op.Read {
				rec, err := t.gatherRecord(op.Row)
				if err != nil {
					return err
				}
				for c := 0; c < t.s.Arity(); c++ {
					if v, ok := ownWrites[cell{op.Row, c}]; ok {
						rec[c] = v
					}
				}
				t.results = append(t.results, rec)
				continue
			}
			a := t.s.Attr(op.Col)
			buf := make([]byte, a.Size)
			if err := schema.EncodeValue(buf, a, op.Val); err != nil {
				return fmt.Errorf("gputx: encoding update: %w", err)
			}
			// Scatter writes bypass Fragment.Set, so the column's zone
			// would silently narrow; widen it here to keep it a
			// conservative envelope.
			if z := t.cols[op.Col].Stats(op.Col); z != nil {
				switch a.Kind {
				case schema.Int64:
					z.WidenInt64(op.Val.I)
				case schema.Float64:
					z.WidenFloat64(op.Val.F)
				}
			}
			ownWrites[cell{op.Row, op.Col}] = op.Val
			u := pending[op.Col]
			if u == nil {
				u = &colUpdates{}
				pending[op.Col] = u
			}
			u.positions = append(u.positions, int(op.Row))
			u.vals = append(u.vals, buf...)
		}
	}
	// All per-column scatters of the set go down one stream: each column's
	// value bytes overlap the bus with the previous column's scatter
	// kernel, and one Wait settles the overlapped total.
	s := t.env.GPU.NewStream()
	defer s.Wait()
	for col, u := range pending {
		f := t.cols[col]
		v, err := f.ColVector(col)
		if err != nil {
			return err
		}
		if err := s.Scatter(exec.DeviceVec(v), u.positions, u.vals); err != nil {
			return fmt.Errorf("gputx: scatter on column %d: %w", col, err)
		}
		// Scatter writes bypass Fragment.Set; bump the version by hand so
		// device-cached images of the column stop validating.
		f.BumpVersion()
	}
	return nil
}

// gatherRecord materializes one row from the device columns into host
// memory (the result-pool delivery path), charging gather + transfer.
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

// Update executes a single-update batch.
func (t *Table) Update(row uint64, col int, v schema.Value) error {
	if col < 0 || col >= t.s.Arity() {
		return fmt.Errorf("%w: col %d", layout.ErrOutOfRange, col)
	}
	t.Submit(TxOp{Row: row, Col: col, Val: v})
	return t.ExecuteBatch()
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

// SumFloat64 aggregates col.
func (t *Table) SumFloat64(col int) (float64, error) {
	r, err := t.Scan(exec.Plan{Op: exec.KindSum, Col: col})
	return r.Sum, err
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
