// Package hyper implements the HyPer storage engine as surveyed in the
// paper (Kemper & Neumann 2011, storage renewed by Funke et al. 2012;
// Section IV-B.2): a single-layout, constrained strong flexible engine
// that organizes a relation as a hierarchy of partitions, chunks and
// vectors — vertical partitioning first, each partition split into
// horizontal chunks, each chunk holding one thin directly-linearized
// vector per attribute (DSM-emulated linearization; the chunk boundaries
// constrain the vectors, hence "constrained").
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

// ChunkRows is the capacity of one chunk.
const ChunkRows = 128

// Engine is the HyPer storage engine.
type Engine struct{ env *engine.Env }

// New creates the engine.
func New(env *engine.Env) *Engine { return &Engine{env: env} }

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
// one per attribute.
type chunk struct {
	rows    layout.RowRange
	vectors []*layout.Fragment // indexed by attribute
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
// mu guards the chunk list and chunk contents: writers (Insert via
// appendRecord, Update, Free) take it exclusively, readers (scans, point
// reads) share it. The promoted common.Table entry points are
// re-declared in locked.go so every public method participates.
type Table struct {
	*common.Table
	mu     sync.RWMutex
	chunks []*chunk
}

// Create makes an empty relation.
func (e *Engine) Create(name string, s *schema.Schema) (engine.Table, error) {
	rel := layout.NewRelation(name, s)
	rel.AddLayout(layout.NewLayout("chunks", s))
	t := &Table{Table: common.NewTable(e.env, rel)}
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

// appendRecord routes an insert into the tail chunk, allocating and
// attaching a fresh chunk when the current tail is full (or absent).
func (t *Table) appendRecord(row uint64, rec schema.Record) error {
	if n := len(t.chunks); n == 0 || t.chunks[n-1].len() == t.chunks[n-1].Cap() {
		c, err := t.newChunk(row, ChunkRows)
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

// Update writes in place.
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
	return c.vectors[col].Set(int(row-c.rows.Begin), col, v)
}

// Pieces is the table as a scan source: every chunk's vector of the
// plan's columns, in host memory, clipped to the committed row count.
// Caller holds t.mu.
func (t *Table) Pieces(p exec.Plan) (keys, vals []exec.Piece, err error) {
	return engine.ColumnPieces(p, func(col int) ([]exec.Piece, error) {
		rows := t.Rel.Rows()
		pieces := make([]exec.Piece, 0, len(t.chunks))
		for _, c := range t.chunks {
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

// Free releases the table and its chunks.
func (t *Table) Free() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Table.Free() // frees everything attached to the layout
	t.chunks = nil
}
