package core

import (
	"fmt"
	"slices"
	"sync"

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

// Pieces is the one chunk walk behind every aggregate kind: per chunk
// the plan's value piece and, for the grouped kinds, its key piece, zone
// maps attached. A pair whose fragments all live in device memory is
// Resident when a kernel exists for the plan; where none does (the
// unpredicated group-by), or only one side of a pair was placed, the
// host reads the device bytes across the bus, charged on the simulated
// clock. Everything else scans from its side-car compressed image where
// one covers it. With DeviceCache on, cold chunks are Shipped when a
// kernel exists: they ride the fragment cache, group keys raw (the
// fused kernel sweeps them beside the values). Hot chunks stay on the
// host — every insert would invalidate their image, so caching them
// only thrashes the bus.
func (s *scanSource) Pieces(p exec.Plan) (keys, vals []exec.Piece, err error) {
	t := s.t
	rows := t.rel.Rows()
	kernel := p.DeviceOK()
	ship := kernel && t.eng.opts.DeviceCache && t.env.Cache != nil
	vals = slices.Grow(s.vals[:0], len(t.chunks))
	if p.Op.Grouped() {
		keys = slices.Grow(s.keys[:0], len(t.chunks))
	}
	for _, c := range t.chunks {
		if c.rows.Begin >= rows {
			break
		}
		vp, devBytes, err := t.pieceFor(c, p.Col)
		if err != nil {
			return nil, nil, err
		}
		var kp exec.Piece
		placed := devBytes > 0
		if keys != nil {
			var keyBytes int64
			if kp, keyBytes, err = t.pieceFor(c, p.KeyCol); err != nil {
				return nil, nil, err
			}
			placed = placed && keyBytes > 0
			devBytes += keyBytes
		}
		if placed && kernel {
			vp.Place = exec.Resident
		} else {
			if devBytes > 0 && t.env.Clock != nil {
				t.env.Clock.Advance(t.env.GPU.Profile().TransferNs(devBytes))
			}
			t.attachCompressed(&vp, c, p.Col)
			if ship && c.state == cold && devBytes == 0 {
				vp.Place = exec.Shipped
			} else if keys != nil {
				t.attachCompressed(&kp, c, p.KeyCol)
			}
		}
		vals = append(vals, vp)
		if keys != nil {
			keys = append(keys, kp)
		}
	}
	// The source keeps the lists, grown or not, for the next scan.
	s.vals = vals
	if keys != nil {
		s.keys = keys
	}
	return keys, vals, nil
}

// Patches hands the scan body the MVCC patch: for every row the
// snapshot sees a delta version of, its base cell and its current one.
// Rows arrive ascending, so the chunk and the vectors of its value and
// key columns are resolved once per chunk, not per row, and a base cell
// is one typed load from the fragment's bytes (the scan body has checked
// the plan against the schema: the value column is float64, the key
// column int64 or int32).
func (s *scanSource) Patches(p exec.Plan, fn func(base, cur engine.Cell)) error {
	t := s.t
	grouped := p.Op.Grouped()
	var c *chunk
	var vals, keys layout.ColVector
	return t.patchRows(s.reader, func(row uint64, rec schema.Record, _ uint64) (err error) {
		if c == nil || !c.rows.Contains(row) {
			if c, err = t.chunkFor(row); err != nil {
				return err
			}
			if vals, err = t.colVectorFor(c, p.Col); err == nil && grouped {
				keys, err = t.colVectorFor(c, p.KeyCol)
			}
			if err != nil {
				return err // which ends the walk: the cursor is not read again
			}
		}
		i := int(row - c.rows.Begin)
		if i >= vals.Len || grouped && i >= keys.Len {
			return fmt.Errorf("%w: tuplet %d of %d", layout.ErrOutOfRange, i, vals.Len)
		}
		base, cur := engine.Cell{Val: vals.Float64(i)}, engine.Cell{Val: rec[p.Col].F}
		if grouped {
			base.Key, cur.Key = keys.Int(i), rec[p.KeyCol].I
		}
		fn(base, cur)
		return nil
	})
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
