// Durability for the reference engine: write-ahead logging of inserts
// and MVCC commits, MVCC-consistent checkpoint serialization, and the
// recovery twins (restore + replay) of both.
//
// The protocol:
//
//   - Every Insert appends a KindInsert record before the row mutates
//     the hot region; the ack waits on group-commit durability.
//   - Every MVCC commit appends a KindCommit record inside the commit
//     critical section (tx.CommitLogger), so log order equals
//     commit-timestamp order and replay preserves first-committer-wins.
//   - A checkpoint begins a read transaction like any other reader —
//     its snapshot fences Merge/Prune from dropping versions the
//     checkpoint can still see — and serializes base fragments
//     byte-for-byte with their sealed zone maps and compressed side-cars,
//     the delta versions visible at that snapshot, and the
//     device-resident column manifest. Restore rebuilds all of it
//     without re-sealing a single zone map and re-primes the device
//     fragment cache.
package core

import (
	"errors"
	"fmt"

	"hybridstore/internal/compress"
	"hybridstore/internal/device"
	"hybridstore/internal/exec"
	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
	"hybridstore/internal/stats"
	"hybridstore/internal/tx"
	"hybridstore/internal/wal"
)

// ErrReplayDiverged is returned when replaying the log against restored
// state disagrees with what the log says happened — corruption, never
// something recovery may paper over.
var ErrReplayDiverged = errors.New("core: wal replay diverged from recovered state")

// EnableWAL attaches the shared log to this table: from now on every
// Insert appends (and waits durable) before acknowledging, and every
// transaction commit appends its write set at its commit timestamp
// inside the commit critical section. Call after recovery replay so
// replayed operations are not re-logged.
func (t *Table) EnableWAL(l *wal.Log) {
	t.mu.Lock()
	t.walLog = l
	t.mu.Unlock()
	name := t.rel.Name()
	t.deltas.SetCommitLogger(func(ts uint64, writes []tx.LoggedWrite) (func() error, error) {
		ops := make([]wal.Op, len(writes))
		for i, w := range writes {
			ops[i] = wal.Op(w) // the same two fields
		}
		lsn, err := l.Append(&wal.Record{Kind: wal.KindCommit, Table: name, TS: ts, Ops: ops})
		if err != nil {
			return nil, err
		}
		return func() error { return l.Sync(lsn) }, nil
	})
}

// ReplayInsert re-applies one logged insert during recovery. The row
// position is the log's claim; landing anywhere else means the restored
// base state and the log disagree.
func (t *Table) ReplayInsert(row uint64, rec schema.Record) error {
	got, err := t.Insert(rec)
	if err != nil {
		return fmt.Errorf("core: replaying insert at row %d: %w", row, err)
	}
	if got != row {
		return fmt.Errorf("%w: insert landed at row %d, log says %d", ErrReplayDiverged, got, row)
	}
	return nil
}

// ReplayCommit re-installs one logged transaction commit at its
// original timestamp. InstallAt rejects out-of-order installs, so a
// write-write conflict that validation rejected before the crash can
// never slip in during replay.
func (t *Table) ReplayCommit(ts uint64, ops []wal.Op) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, op := range ops {
		if err := t.deltas.InstallAt(op.Row, op.Rec, ts); err != nil {
			return fmt.Errorf("%w: %v", ErrReplayDiverged, err)
		}
	}
	t.deltas.AdvanceTo(ts)
	return nil
}

// CheckpointTo serializes the table into enc at one MVCC snapshot,
// returning its timestamp and the serialized row count — the
// coordinates log truncation keys on (commits at ts <= ckptTS and
// inserts at row < ckptRows are covered by the image). The reader holds
// MinActiveTS back for its duration, so a concurrent Merge/Prune cannot
// fold or drop versions the serialization still needs.
func (t *Table) CheckpointTo(enc *wal.Encoder) (ckptTS, ckptRows uint64, err error) {
	reader := t.deltas.Begin()
	defer reader.Abort()
	pinTS := reader.SnapshotTS()
	t.mu.RLock()
	defer t.mu.RUnlock()

	rows := t.rel.Rows()
	enc.U64(pinTS)
	enc.U64(rows)

	enc.U32(uint32(len(t.chunks)))
	for _, c := range t.chunks {
		enc.U8(uint8(c.state))
		enc.U64(c.rows.Begin)
		enc.U64(c.rows.End)
		if c.state == hot {
			encodeFragment(enc, c.nsm)
			continue
		}
		enc.U32(uint32(len(c.groups)))
		for _, g := range c.groups {
			enc.U32(uint32(len(g)))
			for _, col := range g {
				enc.U32(uint32(col))
			}
		}
		for _, f := range c.frags {
			encodeFragment(enc, f)
		}
		var comps []int
		for col, cc := range c.comp {
			if cc != nil {
				comps = append(comps, col)
			}
		}
		enc.U32(uint32(len(comps)))
		for _, col := range comps {
			enc.U32(uint32(col))
			enc.Blob(c.comp[col].Marshal())
		}
	}

	// Delta versions visible at the snapshot, stamped with their real
	// commit timestamps so restore rebuilds the same chains.
	type deltaEntry struct {
		row uint64
		rec schema.Record
		ts  uint64
	}
	var deltas []deltaEntry
	t.deltas.RangeVisible(pinTS, func(row uint64, rec schema.Record, verTS uint64) bool {
		deltas = append(deltas, deltaEntry{row: row, rec: rec, ts: verTS})
		return true
	})
	enc.U32(uint32(len(deltas)))
	for _, d := range deltas {
		enc.U64(d.row)
		enc.U64(d.ts)
		enc.U8(0) // reserved, as in a commit op
		enc.Record(d.rec)
	}

	// Device-cache manifest: which columns were warm, in which format.
	var resident []device.ResidentCol
	if t.eng.opts.DeviceCache && t.env.Cache != nil {
		resident = t.env.Cache.ResidentColumns(t.rel.Name())
	}
	enc.U32(uint32(len(resident)))
	for _, rc := range resident {
		enc.U32(uint32(rc.Col))
		enc.Bool(rc.Comp)
	}
	return pinTS, rows, nil
}

// encodeFragment serializes one base fragment: linearization, length,
// the full block bytes, and every zone snapshot (sealed flags included).
func encodeFragment(enc *wal.Encoder, f *layout.Fragment) {
	enc.U8(uint8(f.Lin()))
	enc.U32(uint32(f.Len()))
	enc.Blob(f.Raw())
	cols := f.Cols()
	var zoned []int
	for _, c := range cols {
		if f.Stats(c) != nil {
			zoned = append(zoned, c)
		}
	}
	enc.U32(uint32(len(zoned)))
	for _, c := range zoned {
		enc.U32(uint32(c))
		encodeZone(enc, f.Stats(c).Snapshot())
	}
}

// encodeZone/decodeZone serialize a stats.Snapshot.
func encodeZone(enc *wal.Encoder, s stats.Snapshot) {
	enc.U8(uint8(s.Kind))
	enc.U64(uint64(s.Count))
	enc.U64(uint64(s.MinI))
	enc.U64(uint64(s.MaxI))
	enc.F64(s.MinF)
	enc.F64(s.MaxF)
	enc.Bool(s.Sealed)
	enc.Bool(s.Invalid)
}

func decodeZone(d *wal.Decoder) stats.Snapshot {
	return stats.Snapshot{
		Kind:    stats.Kind(d.U8()),
		Count:   int64(d.U64()),
		MinI:    int64(d.U64()),
		MaxI:    int64(d.U64()),
		MinF:    d.F64(),
		MaxF:    d.F64(),
		Sealed:  d.Bool(),
		Invalid: d.Bool(),
	}
}

// restoreFragment rebuilds one serialized fragment with the given
// column set, installing content and zone snapshots without a re-seal.
func (t *Table) restoreFragment(d *wal.Decoder, cols []int, rows layout.RowRange) (*layout.Fragment, error) {
	lin := layout.Linearization(d.U8())
	n := int(d.U32())
	raw := d.Blob()
	f, err := layout.NewFragment(t.env.Host, t.s, cols, rows, lin)
	if err != nil {
		return nil, fmt.Errorf("core: restoring fragment: %w", err)
	}
	if err := f.RestoreContent(raw, n); err != nil {
		f.Free()
		return nil, fmt.Errorf("core: restoring fragment: %w", err)
	}
	nz := int(d.U32())
	for i := 0; i < nz; i++ {
		col := int(d.U32())
		zs := decodeZone(d)
		if err := f.RestoreZone(col, zs); err != nil {
			f.Free()
			return nil, fmt.Errorf("core: restoring zone of col %d: %w", col, err)
		}
	}
	if err := d.Err(); err != nil {
		f.Free()
		return nil, err
	}
	return f, nil
}

// RestoreTable rebuilds a table from a checkpoint section written by
// CheckpointTo: base fragments byte-identical with sealed zone maps
// (zero re-seals), compressed side-cars decoded from their marshaled
// images, delta chains at their original commit timestamps, the clock
// advanced to the checkpoint timestamp, the PK index rebuilt, and the
// device fragment cache re-primed from the manifest.
func (e *Engine) RestoreTable(name string, s *schema.Schema, d *wal.Decoder) (*Table, error) {
	et, err := e.Create(name, s)
	if err != nil {
		return nil, err
	}
	t := et.(*Table)

	ckptTS := d.U64()
	rows := d.U64()
	nchunks := int(d.U32())
	for ci := 0; ci < nchunks; ci++ {
		state := chunkState(d.U8())
		rr := layout.RowRange{Begin: d.U64(), End: d.U64()}
		c := &chunk{rows: rr, state: state}
		if state == hot {
			f, err := t.restoreFragment(d, layout.AllCols(t.s), rr)
			if err != nil {
				return nil, err
			}
			if err := t.oltp.Add(f); err != nil {
				f.Free()
				return nil, err
			}
			c.nsm = f
		} else {
			ng := int(d.U32())
			groups := make([][]int, 0, ng)
			for gi := 0; gi < ng; gi++ {
				gl := int(d.U32())
				g := make([]int, 0, gl)
				for k := 0; k < gl; k++ {
					g = append(g, int(d.U32()))
				}
				groups = append(groups, g)
			}
			if err := d.Err(); err != nil {
				return nil, err
			}
			c.groups = groups
			for _, g := range groups {
				f, err := t.restoreFragment(d, g, rr)
				if err != nil {
					freeAll(c.frags)
					return nil, err
				}
				c.frags = append(c.frags, f)
			}
			for _, f := range c.frags {
				if err := t.olap.Add(f); err != nil {
					return nil, err
				}
			}
			nc := int(d.U32())
			if nc > 0 {
				c.comp = make([]*compress.Column, t.s.Arity())
				for k := 0; k < nc; k++ {
					col := int(d.U32())
					img := d.Blob()
					if d.Err() != nil {
						return nil, d.Err()
					}
					cc, err := compress.Decode(img)
					if err != nil {
						return nil, fmt.Errorf("core: restoring compressed side-car of col %d: %w", col, err)
					}
					if col < len(c.comp) {
						c.comp[col] = cc
					}
				}
			}
		}
		t.chunks = append(t.chunks, c)
	}
	t.rel.SetRows(rows)

	// Rebuild the PK index from the restored base region. Keys are
	// immutable under MVCC, so the base value is always the indexed one.
	if t.pk != nil {
		for row := uint64(0); row < rows; row++ {
			v, err := t.baseValue(row, 0)
			if err != nil {
				return nil, fmt.Errorf("core: rebuilding pk at row %d: %w", row, err)
			}
			if err := t.pk.Put(v.I, row); err != nil {
				return nil, fmt.Errorf("core: rebuilding pk at row %d: %w", row, err)
			}
		}
	}

	nd := int(d.U32())
	for i := 0; i < nd; i++ {
		row := d.U64()
		verTS := d.U64()
		if d.U8() != 0 {
			return nil, fmt.Errorf("%w: delta of row %d has its reserved byte set", wal.ErrCorrupt, row)
		}
		rec := d.Record()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if err := t.deltas.InstallAt(row, rec, verTS); err != nil {
			return nil, fmt.Errorf("core: restoring delta of row %d: %w", row, err)
		}
	}
	t.deltas.AdvanceTo(ckptTS)

	nr := int(d.U32())
	resident := make([]device.ResidentCol, 0, nr)
	for i := 0; i < nr; i++ {
		rc := device.ResidentCol{Col: int(d.U32())}
		rc.Comp = d.Bool()
		resident = append(resident, rc)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(resident) > 0 {
		if err := t.PrimeDeviceCache(resident); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// PrimeDeviceCache uploads the listed columns' cold fragments into the
// device fragment cache — the warm-restart path that restores the
// pre-crash working set before the first scans arrive. Columns ride the
// same piece geometry scans use, so scan-time cache keys match. A table
// without the cache enabled skips priming.
func (t *Table) PrimeDeviceCache(cols []device.ResidentCol) error {
	if !t.eng.opts.DeviceCache || t.env.Cache == nil {
		return nil
	}
	ds := t.env.DeviceExec(t.rel.Name())
	t.mu.RLock()
	defer t.mu.RUnlock()
	rows := t.rel.Rows()
	for _, rc := range cols {
		if rc.Col < 0 || rc.Col >= t.s.Arity() {
			continue
		}
		var pieces []exec.Piece
		for _, c := range t.chunks {
			if c.state != cold || c.rows.Begin >= rows {
				continue
			}
			piece, devBytes, err := t.pieceFor(c, rc.Col)
			if err != nil {
				return err
			}
			if devBytes > 0 {
				continue // device-placed fragments have no host bytes to ship
			}
			if rc.Comp {
				if t.attachCompressed(&piece, c, rc.Col); piece.Comp == nil {
					continue
				}
			}
			pieces = append(pieces, piece)
		}
		if err := ds.Prime(rc.Col, pieces); err != nil {
			return err
		}
	}
	return nil
}
