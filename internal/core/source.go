package core

import (
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
}

// Schema returns the relation schema.
func (s scanSource) Schema() *schema.Schema { return s.t.s }

// Pieces is the one chunk walk behind every aggregate kind: per chunk
// the plan's value piece and, for the grouped kinds, its key piece, zone
// maps attached. A pair whose fragments all live in device memory is
// Resident when a kernel exists for the plan; where none does (the
// unpredicated group-by), or only one side of a pair was placed, the
// host reads the device bytes across the bus, charged on the simulated
// clock. Everything else scans from its side-car compressed image where
// one covers it — not for group_sum, whose host operator takes raw
// pieces only. With DeviceCache on, cold chunks are Shipped when a
// kernel exists: they ride the fragment cache, group keys raw (the
// fused kernel sweeps them beside the values). Hot chunks stay on the
// host — every insert would invalidate their image, so caching them
// only thrashes the bus.
func (s scanSource) Pieces(p exec.Plan) (keys, vals []exec.Piece, err error) {
	t := s.t
	rows := t.rel.Rows()
	kernel := p.DeviceOK()
	ship := kernel && t.eng.opts.DeviceCache && t.env.Cache != nil
	comp := p.Op != exec.KindGroupSum
	vals = make([]exec.Piece, 0, len(t.chunks))
	if p.Op.Grouped() {
		keys = make([]exec.Piece, 0, len(t.chunks))
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
			if comp {
				t.attachCompressed(&vp, c, p.Col)
			}
			if ship && c.state == cold && devBytes == 0 {
				vp.Place = exec.Shipped
			} else if comp && keys != nil {
				t.attachCompressed(&kp, c, p.KeyCol)
			}
		}
		vals = append(vals, vp)
		if keys != nil {
			keys = append(keys, kp)
		}
	}
	return keys, vals, nil
}

// Patches hands the scan body the MVCC patch: for every row the
// snapshot sees a delta version of, its base cell and its current one.
func (s scanSource) Patches(p exec.Plan, fn func(base, cur engine.Cell)) error {
	t := s.t
	grouped := p.Op.Grouped()
	return t.patchRows(s.reader, func(row uint64, rec schema.Record, _ uint64) error {
		v, err := t.baseValue(row, p.Col)
		if err != nil {
			return err
		}
		base, cur := engine.Cell{Val: v.F}, engine.Cell{Val: rec[p.Col].F}
		if grouped {
			k, err := t.baseValue(row, p.KeyCol)
			if err != nil {
				return err
			}
			base.Key, cur.Key = k.I, rec[p.KeyCol].I
		}
		fn(base, cur)
		return nil
	})
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
