// Package hyper implements the HyPer storage engine as surveyed in the
// paper (Kemper & Neumann 2011, storage renewed by Funke et al. 2012;
// Section IV-B.2): a single-layout, constrained strong flexible engine
// that organizes a relation as a hierarchy of partitions, chunks and
// vectors — vertical partitioning first, each partition split into
// horizontal chunks, each chunk holding one thin directly-linearized
// vector per attribute (DSM-emulated linearization; the chunk boundaries
// constrain the vectors, hence "constrained").
//
// Two hallmark HyPer behaviours are reproduced:
//
//   - Analytic snapshots: AnalyticSnapshot pins the current state;
//     subsequent transactional updates copy-on-write the affected chunk,
//     so long-running analytics never observe (or block) OLTP — the
//     paper's challenge (b.iii), originally realized with virtual-memory
//     snapshots.
//   - Compaction (Funke et al.): chunks untouched by updates turn cold
//     and Compact fuses runs of adjacent full cold chunks into wider
//     frozen chunks, shrinking fragment counts for scan efficiency.
package hyper

import (
	"fmt"
	"sync"

	"hybridstore/internal/engine"
	"hybridstore/internal/engines/common"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
	"hybridstore/internal/taxonomy"
)

// DefaultChunkRows is the default chunk capacity.
const DefaultChunkRows = 1024

// Engine is the HyPer storage engine.
type Engine struct {
	env       *engine.Env
	chunkRows uint64
}

// New creates the engine with the given chunk capacity (0 uses
// DefaultChunkRows).
func New(env *engine.Env, chunkRows uint64) *Engine {
	if chunkRows == 0 {
		chunkRows = DefaultChunkRows
	}
	return &Engine{env: env, chunkRows: chunkRows}
}

// Name returns the survey name.
func (e *Engine) Name() string { return "HyPer" }

// Capabilities declares the paper's Table-1 row.
func (e *Engine) Capabilities() taxonomy.Capabilities {
	return taxonomy.Capabilities{
		Responsive: true,
		Processors: taxonomy.CPUOnly,
		Workloads:  taxonomy.HTAP,
		Year:       2015,
	}
}

// chunk is one horizontal slice of the relation: a set of thin vectors,
// one per attribute, plus sharing and temperature state.
type chunk struct {
	rows    layout.RowRange
	vectors []*layout.Fragment // indexed by attribute
	refs    int                // analytic snapshots referencing this chunk
	updates int                // writes since last Compact (temperature)
	frozen  bool               // produced by compaction
}

// len returns the filled tuplets (all vectors fill in lockstep).
func (c *chunk) len() int { return c.vectors[0].Len() }

// free releases the chunk's vectors.
func (c *chunk) free() {
	for _, v := range c.vectors {
		v.Free()
	}
}

// Table is a HyPer relation.
//
// mu guards the chunk list, chunk contents, refcounts and the detached
// set: writers (Insert via appendRecord, Update, Compact, snapshot
// pin/release, Free) take it exclusively, readers (scans, point reads,
// snapshot scans) share it. The promoted common.Table entry points are
// re-declared in locked.go so every public method participates.
type Table struct {
	*common.Table
	mu        sync.RWMutex
	chunkRows uint64
	chunks    []*chunk
	// detached holds chunks that were replaced (by COW or compaction)
	// while snapshots still reference them.
	detached []*chunk
}

// Create makes an empty relation.
func (e *Engine) Create(name string, s *schema.Schema) (engine.Table, error) {
	rel := layout.NewRelation(name, s)
	rel.AddLayout(layout.NewLayout("chunks", s))
	t := &Table{Table: common.NewTable(e.env, rel), chunkRows: e.chunkRows}
	t.Append = t.appendRecord
	t.Run = t.scan
	return t, nil
}

// newChunk allocates a chunk's vectors starting at row begin.
func (t *Table) newChunk(begin, capRows uint64) (*chunk, error) {
	s := t.Rel.Schema()
	c := &chunk{rows: layout.RowRange{Begin: begin, End: begin + capRows}}
	for col := 0; col < s.Arity(); col++ {
		f, err := layout.NewFragment(t.Env.Host, s, []int{col}, c.rows, layout.Direct)
		if err != nil {
			c.free()
			return nil, fmt.Errorf("hyper: allocating vector: %w", err)
		}
		c.vectors = append(c.vectors, f)
	}
	return c, nil
}

// attach adds the chunk's vectors to the relation layout.
func (t *Table) attach(c *chunk) error {
	l, err := t.Rel.Primary()
	if err != nil {
		return err
	}
	for _, v := range c.vectors {
		if err := l.Add(v); err != nil {
			return err
		}
	}
	return nil
}

// detach removes the chunk's vectors from the relation layout and either
// frees the chunk or parks it for live snapshots.
func (t *Table) detach(c *chunk) {
	l, _ := t.Rel.Primary()
	for _, v := range c.vectors {
		l.Remove(v)
	}
	if c.refs > 0 {
		t.detached = append(t.detached, c)
	} else {
		c.free()
	}
}

// appendRecord routes an insert into the tail chunk, allocating and
// attaching a fresh chunk when the current tail is full (or absent).
func (t *Table) appendRecord(row uint64, rec schema.Record) error {
	if n := len(t.chunks); n == 0 || t.chunks[n-1].len() == t.chunks[n-1].Cap() {
		c, err := t.newChunk(row, t.chunkRows)
		if err != nil {
			return err
		}
		if err := t.attach(c); err != nil {
			c.free()
			return err
		}
		t.chunks = append(t.chunks, c)
	}
	for col, v := range t.chunks[len(t.chunks)-1].vectors {
		if err := v.AppendTuplet([]schema.Value{rec[col]}); err != nil {
			return err
		}
	}
	return nil
}

// Cap returns the chunk's row capacity.
func (c *chunk) Cap() int { return int(c.rows.Len()) }

// chunkFor locates the chunk covering row.
func (t *Table) chunkFor(row uint64) (*chunk, error) {
	for _, c := range t.chunks {
		if c.rows.Contains(row) {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: row %d", engine.ErrNoSuchRow, row)
}

// Update copy-on-writes the chunk when an analytic snapshot references
// it, then writes in place and heats the chunk.
func (t *Table) Update(row uint64, col int, v schema.Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if row >= t.Rel.Rows() {
		return fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, t.Rel.Rows())
	}
	c, err := t.chunkFor(row)
	if err != nil {
		return err
	}
	if col < 0 || col >= len(c.vectors) {
		return fmt.Errorf("%w: col %d", layout.ErrOutOfRange, col)
	}
	if c.refs > 0 {
		clone, err := t.cloneChunk(c)
		if err != nil {
			return err
		}
		for i := range t.chunks {
			if t.chunks[i] == c {
				t.chunks[i] = clone
			}
		}
		t.detach(c)
		if err := t.attach(clone); err != nil {
			return err
		}
		c = clone
	}
	c.updates++
	c.frozen = false
	return c.vectors[col].Set(int(row-c.rows.Begin), col, v)
}

// cloneChunk deep-copies a chunk's vectors (the COW step).
func (t *Table) cloneChunk(c *chunk) (*chunk, error) {
	clone := &chunk{rows: c.rows, updates: c.updates, frozen: c.frozen}
	for _, v := range c.vectors {
		nv, err := v.CloneTo(t.Env.Host)
		if err != nil {
			for _, done := range clone.vectors {
				done.Free()
			}
			return nil, fmt.Errorf("hyper: copy-on-write: %w", err)
		}
		clone.vectors = append(clone.vectors, nv)
	}
	return clone, nil
}

// Chunks returns the live chunk count.
func (t *Table) Chunks() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.chunks)
}

// FrozenChunks counts compaction-produced chunks.
func (t *Table) FrozenChunks() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, c := range t.chunks {
		if c.frozen {
			n++
		}
	}
	return n
}

// Compact fuses adjacent, full, cold (update-free) chunks into single
// wider frozen chunks and cools every chunk for the next round. It
// returns the number of chunks eliminated.
func (t *Table) Compact() (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*chunk
	merged := 0
	i := 0
	for i < len(t.chunks) {
		// Extend a run of adjacent full cold chunks.
		j := i
		for j < len(t.chunks) && t.chunks[j].updates == 0 &&
			t.chunks[j].len() == t.chunks[j].Cap() &&
			(j == i || t.chunks[j].rows.Begin == t.chunks[j-1].rows.End) {
			j++
		}
		if j-i >= 2 {
			fused, err := t.fuse(t.chunks[i:j])
			if err != nil {
				return merged, err
			}
			out = append(out, fused)
			merged += j - i - 1
			i = j
			continue
		}
		out = append(out, t.chunks[i])
		i++
	}
	for _, c := range out {
		c.updates = 0
	}
	t.chunks = out
	return merged, nil
}

// fuse concatenates a run of chunks into one frozen chunk.
func (t *Table) fuse(run []*chunk) (*chunk, error) {
	begin := run[0].rows.Begin
	end := run[len(run)-1].rows.End
	fused, err := t.newChunk(begin, end-begin)
	if err != nil {
		return nil, err
	}
	fused.frozen = true
	s := t.Rel.Schema()
	for col := 0; col < s.Arity(); col++ {
		for _, c := range run {
			for i := 0; i < c.len(); i++ {
				v, err := c.vectors[col].Get(i, col)
				if err != nil {
					fused.free()
					return nil, err
				}
				if err := fused.vectors[col].AppendTuplet([]schema.Value{v}); err != nil {
					fused.free()
					return nil, err
				}
			}
		}
	}
	// A compaction-produced chunk is frozen: seal exact per-vector bounds
	// so predicate scans can prune it (a later in-place Update widens the
	// zone and clears the seal).
	for _, v := range fused.vectors {
		v.SealStats()
	}
	if err := t.attach(fused); err != nil {
		fused.free()
		return nil, err
	}
	for _, c := range run {
		t.detach(c)
	}
	return fused, nil
}

// piecesOf builds the host scan pieces of col over a chunk list holding
// rows rows. Caller holds t.mu.
func (t *Table) piecesOf(chunks []*chunk, rows uint64, col int) ([]exec.Piece, error) {
	pieces := make([]exec.Piece, 0, len(chunks))
	for _, c := range chunks {
		if c.rows.Begin >= rows {
			break
		}
		f := c.vectors[col]
		v, err := f.ColVector(col)
		if err != nil {
			return nil, err
		}
		if end := c.rows.Begin + uint64(v.Len); end > rows {
			v.Len = int(rows - c.rows.Begin)
		}
		pieces = append(pieces, exec.Piece{
			Rows: layout.RowRange{Begin: c.rows.Begin, End: c.rows.Begin + uint64(v.Len)},
			Vec:  v, Zone: f.Stats(col),
		})
	}
	return pieces, nil
}

// Pieces is the table as a scan source: every chunk's vector of the
// plan's columns, in host memory. Caller holds t.mu.
func (t *Table) Pieces(p exec.Plan) (keys, vals []exec.Piece, err error) {
	return engine.ColumnPieces(p, func(col int) ([]exec.Piece, error) {
		return t.piecesOf(t.chunks, t.Rel.Rows(), col)
	})
}

// scan answers one aggregate plan through the shared scan body, under
// the reader lock from piece construction through the fold (pieces alias
// live chunk bytes).
func (t *Table) scan(p exec.Plan) (exec.Result, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return engine.Scan(t, t.Cfg, nil, p)
}

// AnalyticSnapshot pins the current state for long-running analytics.
// The snapshot sees exactly the rows present now; concurrent updates
// copy-on-write and never disturb it. Callers must Release it.
type AnalyticSnapshot struct {
	t      *Table
	chunks []*chunk
	rows   uint64
	freed  bool
}

// AnalyticSnapshot creates a snapshot of the table.
func (t *Table) AnalyticSnapshot() *AnalyticSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := &AnalyticSnapshot{t: t, rows: t.Rel.Rows()}
	for _, c := range t.chunks {
		c.refs++
		snap.chunks = append(snap.chunks, c)
	}
	return snap
}

// Rows returns the snapshot's pinned row count.
func (s *AnalyticSnapshot) Rows() uint64 { return s.rows }

// Schema returns the schema of the snapshotted relation.
func (s *AnalyticSnapshot) Schema() *schema.Schema { return s.t.Rel.Schema() }

// Pieces is the snapshot as a scan source: the pinned chunks are just
// another piece list, clipped to the pinned row count and scanned on the
// host. Caller holds the table lock.
func (s *AnalyticSnapshot) Pieces(p exec.Plan) (keys, vals []exec.Piece, err error) {
	return engine.ColumnPieces(p, func(col int) ([]exec.Piece, error) {
		return s.t.piecesOf(s.chunks, s.rows, col)
	})
}

// SumFloat64 aggregates col over the snapshot's pinned chunks.
func (s *AnalyticSnapshot) SumFloat64(col int) (float64, error) {
	s.t.mu.RLock()
	defer s.t.mu.RUnlock()
	if s.freed {
		return 0, fmt.Errorf("hyper: %w: snapshot released", engine.ErrUnsupported)
	}
	r, err := engine.Scan(s, s.t.Cfg, nil, exec.Plan{Op: exec.KindSum, Col: col})
	return r.Sum, err
}

// Release unpins the snapshot; parked chunks with no remaining
// references are freed.
func (s *AnalyticSnapshot) Release() {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.freed {
		return
	}
	s.freed = true
	for _, c := range s.chunks {
		c.refs--
	}
	var still []*chunk
	for _, c := range s.t.detached {
		if c.refs <= 0 {
			c.free()
		} else {
			still = append(still, c)
		}
	}
	s.t.detached = still
}

// Free releases the table, its chunks and any parked chunks.
func (t *Table) Free() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Table.Free() // frees everything attached to the layout
	for _, c := range t.detached {
		c.free()
	}
	t.detached, t.chunks = nil, nil
}
