package core

import (
	"sync"

	"hybridstore/internal/agg"
	"hybridstore/internal/engine"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
	"hybridstore/internal/tx"
)

// scanSource is the table under one reader's snapshot as the shared scan
// body sees it: where each chunk's fragments live (engine.Source) and
// which rows the snapshot's visible deltas have moved on from the base
// (engine.Patcher). Execute holds the read lock for as long as the body
// runs — pieces alias live fragment bytes.
type scanSource struct {
	t      *Table
	reader *tx.Tx
	// keys and vals back the lists Pieces returns. They are per chunk,
	// not per scan, so they are recycled with the source.
	keys, vals []exec.Piece
}

// The lists start empty but not nil: from Pieces a nil key list means
// "not grouped".
var sourcePool = sync.Pool{New: func() any {
	return &scanSource{keys: []exec.Piece{}, vals: []exec.Piece{}}
}}

// source returns a scan source over t under reader's snapshot; the
// caller releases it when the scan body is done with its pieces.
func (t *Table) source(reader *tx.Tx) *scanSource {
	s := sourcePool.Get().(*scanSource)
	s.t, s.reader = t, reader
	return s
}

// release recycles the source, every fragment reference cleared.
func (s *scanSource) release() {
	clear(s.keys[:cap(s.keys)])
	clear(s.vals[:cap(s.vals)])
	*s = scanSource{keys: s.keys[:0], vals: s.vals[:0]}
	sourcePool.Put(s)
}

// Schema returns the relation schema.
func (s *scanSource) Schema() *schema.Schema { return s.t.s }

// Pieces hands out a copy of the table's piece list for the plan's
// shape, built by the one chunk walk behind every aggregate kind (list)
// and kept until the next base mutation, and charges the bus for the
// device bytes the host reads.
func (s *scanSource) Pieces(p exec.Plan) (keys, vals []exec.Piece, err error) {
	t := s.t
	l, err := t.list(p)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; t.env.Clock != nil && i < len(l.charges); i++ {
		t.env.Clock.Advance(l.charges[i])
	}
	// The source keeps the lists, grown or not, for the next scan.
	s.vals = append(s.vals[:0], l.vals...)
	if l.keys != nil {
		s.keys = append(s.keys[:0], l.keys...)
		keys = s.keys
	}
	return keys, s.vals, nil
}

// pieceList is the answer of one chunk walk for a plan shape and
// whether a kernel exists for it: the value pieces, the key pieces of a
// grouped shape (else nil), and the bus time of each chunk whose device
// bytes the host reads. It is immutable once published.
type pieceList struct {
	shape      exec.Plan
	kernel     bool
	keys, vals []exec.Piece
	charges    []float64
}

// list returns the table's piece list for p's shape: the one a scan
// built since the last base mutation, or a new one from the one chunk
// walk behind every aggregate kind — per chunk the plan's value piece
// and, for the grouped kinds, its key piece, zone maps attached. Scans
// under the read lock may build it together; each publishes an equal
// list. A pair whose fragments all live in device memory is Resident
// when a kernel exists for the plan; where none does (the unpredicated
// group-by), or only one side of a pair was placed, the host reads the
// device bytes across the bus, charged on the simulated clock.
// Everything else scans from its side-car compressed image where one
// covers it. With DeviceCache on, cold chunks are Shipped when a kernel
// exists: they ride the fragment cache, group keys raw (the fused kernel
// sweeps them beside the values). Hot chunks stay on the host — every
// insert would invalidate their image, so caching them only thrashes
// the bus.
func (t *Table) list(p exec.Plan) (*pieceList, error) {
	slot, kernel := &t.lists[0], p.DeviceOK()
	if p.Op.Grouped() {
		slot = &t.lists[1]
	}
	if l := slot.Load(); l != nil && l.shape == p.Shape() && l.kernel == kernel {
		return l, nil
	}
	l := &pieceList{shape: p.Shape(), kernel: kernel, vals: make([]exec.Piece, 0, len(t.chunks))}
	if p.Op.Grouped() {
		l.keys = make([]exec.Piece, 0, len(t.chunks))
	}
	rows := t.rel.Rows()
	ship := kernel && t.eng.opts.DeviceCache
	for _, c := range t.chunks {
		if c.rows.Begin >= rows {
			break
		}
		vp, devBytes, err := t.pieceFor(c, p.Col)
		if err != nil {
			return nil, err
		}
		var kp exec.Piece
		placed := devBytes > 0
		if l.keys != nil {
			var keyBytes int64
			if kp, keyBytes, err = t.pieceFor(c, p.KeyCol); err != nil {
				return nil, err
			}
			placed = placed && keyBytes > 0
			devBytes += keyBytes
		}
		if placed && kernel {
			vp.Place = exec.Resident
		} else {
			if devBytes > 0 {
				l.charges = append(l.charges, t.env.GPU.Profile().TransferNs(devBytes))
			}
			t.attachCompressed(&vp, c, p.Col)
			if ship && c.state == cold && devBytes == 0 {
				vp.Place = exec.Shipped
			} else if l.keys != nil {
				t.attachCompressed(&kp, c, p.KeyCol)
			}
		}
		l.vals = append(l.vals, vp)
		if l.keys != nil {
			l.keys = append(l.keys, kp)
		}
	}
	slot.Store(l)
	return l, nil
}

// Patches hands the scan body the MVCC patch: for every row the
// snapshot sees a delta version of, its base cell and its current one,
// ascending by row, as the table's patch projection holds them — its
// columns viewed as float64 values and int64 keys, not copied. The scan
// first advances the projection to its snapshot (projection.go); a table
// without delta versions has an empty patch and never takes its lock. A
// snapshot older than the projection's does not move it back: it builds
// a projection of its own (recycled, so its cells are not garbage), at
// what a scan cost before there was one, and leaves the shared one where
// the newer scans need it. The fold runs under the lock — fn is the scan
// body's fold, which takes no lock and does not call back into the table.
func (s *scanSource) Patches(p exec.Plan, fn func(engine.Patch)) error {
	t := s.t
	if t.deltas.Versions() == 0 {
		return nil
	}
	ts, pj := s.reader.SnapshotTS(), &t.proj
	pj.mu.Lock()
	if pj.ahead(t, ts) {
		pj.mu.Unlock()
		if pj, _ = t.older.Get().(*projection); pj == nil {
			pj = new(projection)
		}
		pj.ok = false
		defer t.older.Put(pj)
	} else {
		defer pj.mu.Unlock()
	}
	vals, keys, err := pj.advance(t, ts, p)
	if err != nil {
		return err
	}
	mPatchRows.Add(int64(len(pj.rows)))
	pa := engine.Patch{Base: agg.Cells[float64](vals.base), Cur: agg.Cells[float64](vals.cur)}
	if keys != nil {
		pa.BaseKey, pa.CurKey = agg.Cells[int64](keys.base), agg.Cells[int64](keys.cur)
	}
	fn(pa)
	return nil
}

// colVectorFor returns the strided view of col in the chunk's base
// fragment holding it.
func (t *Table) colVectorFor(c *chunk, col int) (layout.ColVector, error) {
	frag, err := t.fragmentForCol(c, col)
	if err != nil {
		return layout.ColVector{}, err
	}
	return frag.ColVector(col)
}

// pieceFor builds one zone-carrying column piece for a chunk, reporting
// device-resident bytes (which callers charge to the bus or route to
// the device kernels).
func (t *Table) pieceFor(c *chunk, col int) (exec.Piece, int64, error) {
	frag, err := t.fragmentForCol(c, col)
	if err != nil {
		return exec.Piece{}, 0, err
	}
	v, err := frag.ColVector(col)
	if err != nil {
		return exec.Piece{}, 0, err
	}
	var devBytes int64
	if frag.Space() == t.env.GPU.Allocator().Space() {
		devBytes = int64(v.Len * v.Size)
	}
	return exec.Piece{
		Rows:   layout.RowRange{Begin: c.rows.Begin, End: c.rows.Begin + uint64(v.Len)},
		Vec:    v,
		Zone:   frag.Stats(col),
		FragID: frag.ID(), FragVersion: frag.Version(),
	}, devBytes, nil
}
