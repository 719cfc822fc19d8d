// Package lstore implements the L-Store storage engine (Sadoghi et al.,
// 2016; paper Section IV-B.4): a single-layout, strong flexible engine
// with lineage-based updates and historic querying. Each attribute of a
// relation is one vertical fragment, split into a read-optimized base
// page region and an append-only tail page region; a page dictionary maps
// each logical record to its current slots and hides whether a value
// comes from base or tail pages. Updating a field appends a tail record
// carrying the new value and linking to its predecessor (its lineage),
// so every prior state remains queryable; Merge folds tails back into
// fresh base pages.
//
// Matching the paper's description of the base region as "read-only (and
// compressed)", Merge seals the base pages through internal/compress:
// after a merge, each attribute's settled prefix lives in a compressed
// column image (RLE/dictionary/frame-of-reference, whichever is
// smallest), while post-merge inserts land in an uncompressed appendable
// region that the next merge seals.
package lstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"hybridstore/internal/compress"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/mem"
	"hybridstore/internal/schema"
	"hybridstore/internal/stats"
	"hybridstore/internal/taxonomy"
)

// Engine is the L-Store storage engine.
type Engine struct {
	env *engine.Env
}

// New creates the engine.
func New(env *engine.Env) *Engine { return &Engine{env: env} }

// Name returns the survey name.
func (e *Engine) Name() string { return "L-Store" }

// Capabilities declares the paper's Table-1 row.
func (e *Engine) Capabilities() taxonomy.Capabilities {
	return taxonomy.Capabilities{
		Responsive: true,
		Scheme:     taxonomy.SchemeDelegation,
		Processors: taxonomy.CPUOnly,
		Workloads:  taxonomy.HTAP,
		Year:       2016,
	}
}

// tailEntry is one lineage step of one attribute: the tail slot holding
// the value written by one update, linking back to the previous state.
type tailEntry struct {
	slot int // index into the attribute's tail fragment
	prev int // previous tailEntry index in the column's lineage arena, -1 = base
}

// column is one attribute's storage: a sealed (compressed, read-only)
// base region, an appendable uncompressed base region for post-merge
// inserts, and the append-only tail with its lineage arena.
type column struct {
	sealed  *compress.Column // rows [0, sealedRows); nil before first Merge
	zone    *stats.Zone      // sealed-region bounds, built by Merge; nil for non-numeric attrs
	active  *layout.Fragment // rows [sealedRows, ...)
	tail    *layout.Fragment
	lineage []tailEntry
}

// Table is an L-Store relation.
// mu guards the column pages, the page dictionary and lineage chains:
// writers (Insert, Update, Merge, Free) take it exclusively, readers
// (point reads, scans, grouped scans, stats accessors) share it.
type Table struct {
	mu sync.RWMutex

	env *engine.Env
	rel *layout.Relation
	cfg exec.Config
	s   *schema.Schema
	// cols holds per-attribute storage.
	cols []*column
	// dict is the page dictionary: dict[row][col] is -1 when the current
	// value lives in the base region, else the index of the newest
	// tailEntry in the column's lineage arena.
	dict       [][]int32
	rows       uint64
	sealedRows uint64
}

// Create makes an empty relation.
func (e *Engine) Create(name string, s *schema.Schema) (engine.Table, error) {
	rel := layout.NewRelation(name, s)
	t := &Table{env: e.env, rel: rel, s: s,
		cfg: exec.Config{Policy: e.env.ExecPolicy, Host: e.env.HostProfile, Clock: e.env.Clock}}
	l := layout.NewLayout("base+tail", s)
	const initialCap = 64
	for c := 0; c < s.Arity(); c++ {
		active, err := layout.NewFragment(e.env.Host, s, []int{c}, layout.RowRange{Begin: 0, End: initialCap}, layout.Direct)
		if err != nil {
			l.Free()
			return nil, fmt.Errorf("lstore: %w", err)
		}
		tail, err := layout.NewFragment(e.env.Host, s, []int{c}, layout.RowRange{Begin: 0, End: initialCap}, layout.Direct)
		if err != nil {
			active.Free()
			l.Free()
			return nil, fmt.Errorf("lstore: %w", err)
		}
		l.Add(active)
		t.cols = append(t.cols, &column{active: active, tail: tail})
	}
	rel.AddLayout(l)
	return t, nil
}

// Schema returns the relation schema.
func (t *Table) Schema() *schema.Schema { return t.s }

// Rows returns the row count.
func (t *Table) Rows() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// SealedRows returns how many rows live in the compressed base region.
func (t *Table) SealedRows() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sealedRows
}

// CompressionRatio returns the aggregate base-region compression ratio
// (uncompressed bytes / compressed bytes), or 1 before the first merge.
func (t *Table) CompressionRatio() float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var raw, packed float64
	for c, col := range t.cols {
		if col.sealed == nil {
			continue
		}
		raw += float64(col.sealed.Len() * t.s.Attr(c).Size)
		packed += float64(col.sealed.CompressedBytes())
	}
	if packed == 0 {
		return 1
	}
	return raw / packed
}

// TailLength returns the total live tail records across all columns.
func (t *Table) TailLength() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, c := range t.cols {
		n += c.tail.Len()
	}
	return n
}

// Insert appends a base record to the appendable region.
func (t *Table) Insert(rec schema.Record) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := schema.ValidateRecord(t.s, rec); err != nil {
		return 0, err
	}
	// Grow every full column before appending to any, so a failed growth
	// leaves the columns aligned.
	l, _ := t.rel.Primary()
	for _, col := range t.cols {
		if col.active.Len() == col.active.Cap() {
			grown, err := col.active.Grow(t.env.Host, col.active.Cap()*2)
			if err != nil {
				return 0, fmt.Errorf("lstore: growing base: %w", err)
			}
			if err := l.Replace(col.active, grown); err != nil {
				return 0, err
			}
			col.active = grown
		}
	}
	for c, col := range t.cols {
		if err := col.active.AppendTuplet([]schema.Value{rec[c]}); err != nil {
			return 0, err
		}
	}
	row := t.rows
	t.dict = append(t.dict, newDictRow(t.s.Arity()))
	t.rows++
	t.rel.SetRows(t.rows)
	return row, nil
}

// newDictRow is a dictionary row with every attribute resolving to base.
func newDictRow(arity int) []int32 {
	d := make([]int32, arity)
	for i := range d {
		d[i] = -1
	}
	return d
}

// Update appends a tail record for (row, col) with lineage to the prior
// state; the base region is never written (delegation between the base
// and tail regions of the layout).
func (t *Table) Update(row uint64, col int, v schema.Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if row >= t.rows {
		return fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, t.rows)
	}
	if col < 0 || col >= t.s.Arity() {
		return fmt.Errorf("%w: col %d", layout.ErrOutOfRange, col)
	}
	c := t.cols[col]
	if c.tail.Len() == c.tail.Cap() {
		grown, err := c.tail.Grow(t.env.Host, c.tail.Cap()*2)
		if err != nil {
			return fmt.Errorf("lstore: growing tail: %w", err)
		}
		c.tail = grown
	}
	slot := c.tail.Len()
	if err := c.tail.AppendTuplet([]schema.Value{v}); err != nil {
		return err
	}
	c.lineage = append(c.lineage, tailEntry{slot: slot, prev: int(t.dict[row][col])})
	t.dict[row][col] = int32(len(c.lineage) - 1)
	return nil
}

// baseValue reads (row, col) from the base region: the sealed compressed
// image for settled rows, the appendable fragment otherwise.
func (t *Table) baseValue(row uint64, col int) (schema.Value, error) {
	c := t.cols[col]
	if row < t.sealedRows {
		buf := make([]byte, t.s.Attr(col).Size)
		el, err := c.sealed.At(int(row), buf)
		if err != nil {
			return schema.Value{}, err
		}
		return schema.DecodeValue(el, t.s.Attr(col))
	}
	return c.active.Get(int(row-t.sealedRows), col)
}

// valueAsOf resolves (row, col) walking `back` lineage steps (0 = newest).
func (t *Table) valueAsOf(row uint64, col int, back int) (schema.Value, error) {
	c := t.cols[col]
	cur := int(t.dict[row][col])
	for back > 0 && cur >= 0 {
		cur = c.lineage[cur].prev
		back--
	}
	if cur < 0 {
		return t.baseValue(row, col)
	}
	return c.tail.Get(c.lineage[cur].slot, col)
}

// Get materializes the current record, dereferencing base or tail slots
// through the page dictionary.
func (t *Table) Get(row uint64) (schema.Record, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.getLocked(row)
}

// getLocked is Get under an already-held lock (Materialize shares it;
// RWMutex read locks must not recurse while a writer waits).
func (t *Table) getLocked(row uint64) (schema.Record, error) {
	if row >= t.rows {
		return nil, fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, t.rows)
	}
	rec := make(schema.Record, t.s.Arity())
	for c := 0; c < t.s.Arity(); c++ {
		v, err := t.valueAsOf(row, c, 0)
		if err != nil {
			return nil, err
		}
		rec[c] = v
	}
	return rec, nil
}

// GetVersion materializes the record as of `back` updates ago per
// attribute (0 = current) — L-Store's historic querying.
func (t *Table) GetVersion(row uint64, back int) (schema.Record, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if row >= t.rows {
		return nil, fmt.Errorf("%w: row %d of %d", engine.ErrNoSuchRow, row, t.rows)
	}
	if back < 0 {
		return nil, fmt.Errorf("%w: negative history depth %d", layout.ErrOutOfRange, back)
	}
	rec := make(schema.Record, t.s.Arity())
	for c := 0; c < t.s.Arity(); c++ {
		v, err := t.valueAsOf(row, c, back)
		if err != nil {
			return nil, err
		}
		rec[c] = v
	}
	return rec, nil
}

// piecesOf builds the scan pieces of col, written once for every plan
// kind: the sealed base region as one compressed piece — it executes in
// the compressed domain, the vector carrying only the logical metadata,
// and when its zone proves a predicate match-free the image is never
// touched, so the pruning win compounds with the compression win — then
// the appendable region raw.
func (t *Table) piecesOf(col int) ([]exec.Piece, error) {
	c := t.cols[col]
	var pieces []exec.Piece
	if c.sealed != nil && t.sealedRows > 0 {
		size := t.s.Attr(col).Size
		pieces = append(pieces, exec.Piece{
			Rows: layout.RowRange{Begin: 0, End: t.sealedRows},
			Vec:  layout.ColVector{Stride: size, Size: size, Len: int(t.sealedRows)},
			Zone: c.zone,
			Comp: c.sealed,
		})
	}
	v, err := c.active.ColVector(col)
	if err != nil {
		return nil, err
	}
	return append(pieces, exec.Piece{
		Rows: layout.RowRange{Begin: t.sealedRows, End: t.sealedRows + uint64(v.Len)},
		Vec:  v,
		Zone: c.active.Stats(col),
	}), nil
}

// Pieces is the table as a scan source: the base region of the plan's
// columns, all in host memory. Caller holds t.mu.
func (t *Table) Pieces(p exec.Plan) (keys, vals []exec.Piece, err error) {
	return engine.ColumnPieces(p, t.piecesOf)
}

// Patches is the one tail-patch iterator: every row whose newest value
// of a plan column lives in a tail page, with its base-region cell and
// its current cell through the dictionary — a tail update may change the
// key, the value, or both. Caller holds t.mu.
func (t *Table) Patches(p exec.Plan, fn func(base, cur engine.Cell)) error {
	grouped := p.Op.Grouped()
	for row := uint64(0); row < t.rows; row++ {
		if t.dict[row][p.Col] < 0 && (!grouped || t.dict[row][p.KeyCol] < 0) {
			continue
		}
		var base, cur engine.Cell
		bv, err := t.baseValue(row, p.Col)
		if err != nil {
			return err
		}
		cv, err := t.valueAsOf(row, p.Col, 0)
		if err != nil {
			return err
		}
		base.Val, cur.Val = bv.F, cv.F
		if grouped {
			bk, err := t.baseValue(row, p.KeyCol)
			if err != nil {
				return err
			}
			ck, err := t.valueAsOf(row, p.KeyCol, 0)
			if err != nil {
				return err
			}
			base.Key, cur.Key = bk.I, ck.I
		}
		fn(base, cur)
	}
	return nil
}

// Scan answers one aggregate plan through the shared scan body: the
// base region is aggregated in bulk, then rows with tail versions are
// patched through the dictionary. The reader lock covers piece
// construction through the fold (pieces alias live page bytes).
func (t *Table) Scan(p exec.Plan) (exec.Result, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return engine.Scan(t, t.cfg, nil, p)
}

// SumFloat64 aggregates col.
func (t *Table) SumFloat64(col int) (float64, error) {
	r, err := t.Scan(exec.Plan{Op: exec.KindSum, Col: col})
	return r.Sum, err
}

// Materialize resolves a position list through the dictionary.
func (t *Table) Materialize(positions []uint64) ([]schema.Record, error) {
	out := make([]schema.Record, len(positions))
	for i, p := range positions {
		rec, err := t.getLocked(p)
		if err != nil {
			return nil, err
		}
		out[i] = rec
	}
	return out, nil
}

// Merge folds every column's tail values into the base region, seals it
// as a fresh compressed image, resets the appendable region and the
// dictionary — the read-optimization pass that keeps L-Store's analytic
// scans fast. Historic versions are consolidated away, exactly like
// L-Store's epoch-based merge.
func (t *Table) Merge() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, _ := t.rel.Primary()
	for col, c := range t.cols {
		size := t.s.Attr(col).Size
		// Materialize the full settled column image: sealed + active,
		// with the newest tail value patched per row.
		image := make([]byte, int(t.rows)*size)
		if c.sealed != nil {
			if _, err := c.sealed.DecompressInto(image); err != nil {
				return fmt.Errorf("lstore: unsealing column %d: %w", col, err)
			}
		}
		activeBytes := int(t.rows-t.sealedRows) * size
		if activeBytes > 0 {
			v, err := c.active.ColVector(col)
			if err != nil {
				return err
			}
			copy(image[int(t.sealedRows)*size:], v.Data[v.Base:v.Base+activeBytes])
		}
		for row := uint64(0); row < t.rows; row++ {
			li := t.dict[row][col]
			if li < 0 {
				continue
			}
			tv, err := c.tail.FieldBytes(c.lineage[li].slot, col)
			if err != nil {
				return err
			}
			copy(image[int(row)*size:], tv)
		}
		sealed, err := compress.Compress(image, int(t.rows), size)
		if err != nil {
			return fmt.Errorf("lstore: sealing column %d: %w", col, err)
		}
		c.sealed = sealed
		c.zone = sealZone(image, int(t.rows), t.s.Attr(col))
		// Reset the appendable and tail regions.
		fresh, err := layout.NewFragment(t.env.Host, t.s, []int{col},
			layout.RowRange{Begin: t.rows, End: t.rows + 64}, layout.Direct)
		if err != nil {
			return err
		}
		if err := l.Replace(c.active, fresh); err != nil {
			fresh.Free()
			return err
		}
		c.active.Free()
		c.active = fresh
		if err := c.tail.SetLen(0); err != nil {
			return err
		}
		c.lineage = c.lineage[:0]
	}
	for row := range t.dict {
		for col := range t.dict[row] {
			t.dict[row][col] = -1
		}
	}
	t.sealedRows = t.rows
	return nil
}

// sealZone computes the sealed-region zone map from the settled column
// image — the merge pass is the base region's freeze point, so the
// bounds are exact and marked sealed. Non-8-byte and non-numeric
// attributes get no zone (their scans never prune).
func sealZone(image []byte, n int, a schema.Attribute) *stats.Zone {
	var z *stats.Zone
	switch {
	case a.Kind == schema.Int64 && a.Size == 8:
		z = stats.NewZone(stats.Int64)
	case a.Kind == schema.Float64 && a.Size == 8:
		z = stats.NewZone(stats.Float64)
	default:
		return nil
	}
	for i := 0; i < n; i++ {
		bits := binary.LittleEndian.Uint64(image[i*8:])
		if z.Kind() == stats.Int64 {
			z.ObserveInt64(int64(bits))
		} else {
			z.ObserveFloat64(math.Float64frombits(bits))
		}
	}
	z.MarkSealed()
	return z
}

// Snapshot digests the live structure. The sealed, appendable and tail
// regions are all part of the physical layout even though reads route
// through the dictionary; reporting them together is what makes the
// classifier see the combined (strong flexible) partitioning: vertical
// per attribute, horizontal base/tail within each attribute.
func (t *Table) Snapshot() layout.Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := layout.Snapshot{Relation: t.rel.Name(), Arity: t.s.Arity(), Rows: t.rows}
	li := layout.LayoutInfo{Name: "base+tail"}
	for col, c := range t.cols {
		if c.sealed != nil {
			li.Fragments = append(li.Fragments, layout.FragmentInfo{
				Rows:  layout.RowRange{Begin: 0, End: t.sealedRows},
				Cols:  []int{col},
				Lin:   layout.Direct,
				Space: mem.Host,
			})
		}
		ad := c.active.Digest()
		td := c.tail.Digest()
		// Tail rows live logically after the base region.
		td.Rows = layout.RowRange{Begin: ad.Rows.End, End: ad.Rows.End + uint64(c.tail.Cap())}
		li.Fragments = append(li.Fragments, ad, td)
	}
	li.Combined = true
	s.Layouts = append(s.Layouts, li)
	return s
}

// Free releases all storage.
func (t *Table) Free() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.cols {
		c.tail.Free()
	}
	t.rel.Free()
	t.cols, t.dict = nil, nil
	t.rows, t.sealedRows = 0, 0
}
