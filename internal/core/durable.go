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
	"slices"

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
// fold or drop versions the serialization still needs. enc grows once,
// to a bound of the image's size taken before anything is written.
func (t *Table) CheckpointTo(enc *wal.Encoder) (ckptTS, ckptRows uint64, err error) {
	reader := t.deltas.Begin()
	defer reader.Abort()
	pinTS := reader.SnapshotTS()
	t.mu.RLock()
	defer t.mu.RUnlock()

	// Delta versions visible at the snapshot, stamped with their real
	// commit timestamps so restore rebuilds the same chains.
	deltas := make([]deltaEntry, 0, t.deltas.Versions())
	t.deltas.RangeVisible(0, pinTS, func(row uint64, rec schema.Record, verTS uint64) bool {
		deltas = append(deltas, deltaEntry{row: row, rec: rec, ts: verTS})
		return true
	})
	// Device-cache manifest: which columns were warm, in which format.
	var resident []device.ResidentCol
	if t.eng.opts.DeviceCache {
		resident = t.env.Cache.ResidentColumns(t.rel.Name())
	}
	enc.Grow(t.imageBound(deltas, resident))

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
			enc.BlobWith(c.comp[col].MarshaledBytes(), c.comp[col].AppendMarshal)
		}
	}

	enc.U32(uint32(len(deltas)))
	for _, d := range deltas {
		enc.U64(d.row)
		enc.U64(d.ts)
		enc.U8(0) // reserved, as in a commit op
		enc.Record(d.rec)
	}

	enc.U32(uint32(len(resident)))
	for _, rc := range resident {
		enc.U32(uint32(rc.Col))
		enc.Bool(rc.Comp)
	}
	return pinTS, rows, nil
}

// deltaEntry is one delta version a checkpoint writes.
type deltaEntry struct {
	row uint64
	rec schema.Record
	ts  uint64
}

// imageBound is at least the byte length CheckpointTo writes for the
// table with these deltas and this manifest: the fragments' SizeBytes
// and the side-cars' MarshaledBytes, plus every fixed-width field, with
// a zone counted for every column of a fragment. Called with t.mu held.
func (t *Table) imageBound(deltas []deltaEntry, resident []device.ResidentCol) int {
	fragment := func(f *layout.Fragment) int {
		return 13 + f.SizeBytes() + 47*len(f.Cols()) // lin, len, blob length, zone count; per zone col + snapshot
	}
	n := 20 + 4 + 4 + 5*len(resident) // coordinates and chunk count; delta count; manifest
	for _, c := range t.chunks {
		n += 17 // state and row range
		if c.state == hot {
			n += fragment(c.nsm)
			continue
		}
		n += 8 // group and side-car counts
		for i, g := range c.groups {
			n += 4 + 4*len(g) + fragment(c.frags[i])
		}
		for _, cc := range c.comp {
			if cc != nil {
				n += 8 + cc.MarshaledBytes()
			}
		}
	}
	for _, d := range deltas {
		n += 17 + 4 // row, ts, reserved byte; value count
		for _, v := range d.rec {
			if v.Kind == schema.Char {
				n += 1 + 4 + len(v.S) // kind tag, length, bytes
			} else {
				n += 1 + 8 // kind tag, fixed-width payload
			}
		}
	}
	return n
}

// encodeFragment serializes one base fragment: linearization, length,
// the full block bytes, and every zone snapshot.
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

// A zone record is 43 fixed bytes: a kind byte, the count, two int64
// bounds, the two float64 bounds, a sealed byte and the invalid byte.
// Only float64 columns carry a zone, so the writer emits zeros for the
// int64 bounds and false for the sealed byte, and the reader skips all
// three: the layout stays the one older builds read and write. An older
// image's int64 zone (kind zoneInt64 on an Int64 column) is read and
// dropped.
const (
	zoneInt64   = 0
	zoneFloat64 = 1
)

// encodeZone/decodeZone serialize a stats.Snapshot.
func encodeZone(enc *wal.Encoder, s stats.Snapshot) {
	enc.U8(zoneFloat64)
	enc.U64(uint64(s.Count))
	enc.U64(0)
	enc.U64(0)
	enc.F64(s.Min)
	enc.F64(s.Max)
	enc.Bool(false)
	enc.Bool(s.Invalid)
}

func decodeZone(d *wal.Decoder) (kind uint8, s stats.Snapshot) {
	kind = d.U8()
	s.Count = int64(d.U64())
	d.U64()
	d.U64()
	s.Min, s.Max = d.F64(), d.F64()
	d.Bool()
	s.Invalid = d.Bool()
	return kind, s
}

// restoreFragment rebuilds one serialized fragment with the given
// column set, holding want tuplets, installing content and zone
// snapshots without a re-seal. The row range is checked against the
// blob before it sizes an allocation: the host allocator has no limit,
// so a range the image does not carry would be memory nothing fills.
func (t *Table) restoreFragment(d *wal.Decoder, cols []int, rows layout.RowRange, want int) (*layout.Fragment, error) {
	lin := layout.Linearization(d.U8())
	n := int(d.U32())
	raw := d.Blob()
	if err := d.Err(); err != nil {
		return nil, err
	}
	width := 0
	for _, col := range cols {
		width += t.s.Attr(col).Size
	}
	if n != want || rows.Len() > uint64(len(raw)/width) {
		return nil, corrupt("fragment of %d tuplets over %v from a %d-byte blob, want %d tuplets", n, rows, len(raw), want)
	}
	f, err := layout.NewFragment(t.env.Host, t.s, cols, rows, lin)
	if err != nil {
		return nil, fmt.Errorf("core: restoring fragment: %w", err)
	}
	if err := f.RestoreContent(raw, n); err != nil {
		f.Free()
		return nil, fmt.Errorf("core: restoring fragment: %w", err)
	}
	nz := int(d.U32())
	for i := 0; i < nz && d.Err() == nil; i++ {
		col := int(d.U32())
		kind, zs := decodeZone(d)
		switch {
		case d.Err() != nil:
		case kind == zoneInt64 && slices.Contains(cols, col) && t.s.Attr(col).Kind == schema.Int64:
			// An older image's int64 zone: no predicate reads one.
		case kind != zoneFloat64 || f.RestoreZone(col, zs) != nil:
			f.Free()
			return nil, corrupt("zone of kind %d on col %d", kind, col)
		}
	}
	if err := d.Err(); err != nil {
		f.Free()
		return nil, err
	}
	return f, nil
}

// corrupt reports a checkpoint section that no CheckpointTo wrote.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: checkpoint %s", wal.ErrCorrupt, fmt.Sprintf(format, args...))
}

// RestoreTable rebuilds a table from a checkpoint section written by
// CheckpointTo: base fragments byte-identical with sealed zone maps
// (zero re-seals), compressed side-cars decoded from their marshaled
// images (an older image's Raw side-cars validated, then dropped), delta
// chains at their original commit timestamps, the clock
// advanced to the checkpoint timestamp, the PK index rebuilt, and the
// device fragment cache re-primed from the manifest.
//
// The section is untrusted bytes — a file checksum only guards against
// random damage — so no count in it sizes anything unchecked: column
// groups are bounded by the schema, a fragment's rows by its blob, and
// every other count drives only a loop that stops at the first read
// past the end. A state CheckpointTo cannot have written — chunks that
// do not tile the rows, groups that do not partition the columns — is
// wal.ErrCorrupt.
func (e *Engine) RestoreTable(name string, s *schema.Schema, d *wal.Decoder) (*Table, error) {
	et, err := e.Create(name, s)
	if err != nil {
		return nil, err
	}
	t := et.(*Table)

	ckptTS := d.U64()
	rows := d.U64()
	nchunks := int(d.U32())
	var end uint64 // where the next chunk begins
	for ci := 0; ci < nchunks; ci++ {
		c, err := t.restoreChunk(d, end, rows)
		if err != nil {
			return nil, err
		}
		t.chunks = append(t.chunks, c)
		t.touch(c)
		end = c.rows.End
	}
	if end < rows {
		return nil, corrupt("chunks end at row %d of %d", end, rows)
	}
	t.rel.SetRows(rows)

	// Rebuild the PK index from the restored base region. Keys are
	// immutable under MVCC, so the base value is always the indexed one.
	if t.pk != nil {
		for row := uint64(0); row < rows; row++ {
			v, err := t.baseValue(row, 0)
			if err == nil {
				err = t.pk.Put(v.I, row)
			}
			if err != nil {
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
		if row >= rows || verTS == 0 || verTS > ckptTS || schema.ValidateRecord(t.s, rec) != nil {
			return nil, corrupt("delta %v of row %d at ts %d, %d rows at ts %d", rec, row, verTS, rows, ckptTS)
		}
		if err := t.deltas.InstallAt(row, rec, verTS); err != nil {
			return nil, fmt.Errorf("core: restoring delta of row %d: %w", row, err)
		}
	}
	t.deltas.AdvanceTo(ckptTS)

	nr := int(d.U32())
	var resident []device.ResidentCol
	for i := 0; i < nr && d.Err() == nil; i++ {
		resident = append(resident, device.ResidentCol{Col: int(d.U32()), Comp: d.Bool()})
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

// restoreChunk rebuilds one checkpointed chunk, which begins at row
// begin and holds every row below rows that it covers.
func (t *Table) restoreChunk(d *wal.Decoder, begin, rows uint64) (*chunk, error) {
	state := chunkState(d.U8())
	rr := layout.RowRange{Begin: d.U64(), End: d.U64()}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if state != hot && state != cold || rr.Begin != begin || rr.End <= begin {
		return nil, corrupt("chunk in state %d over %v after row %d", state, rr, begin)
	}
	want := int(min(max(rows, begin), rr.End) - begin)
	c := &chunk{rows: rr, state: state}
	if state == hot {
		f, err := t.restoreFragment(d, layout.AllCols(t.s), rr, want)
		if err != nil {
			return nil, err
		}
		if err := t.oltp.Add(f); err != nil {
			f.Free()
			return nil, err
		}
		c.nsm = f
		return c, nil
	}
	// The groups partition the columns — the scan and the point read
	// resolve every column through them — so the schema bounds them.
	arity := t.s.Arity()
	ng := int(d.U32())
	if ng > arity {
		return nil, corrupt("%d column groups over %d columns", ng, arity)
	}
	var grouped []int
	for gi := 0; gi < ng; gi++ {
		gl := int(d.U32())
		if gl < 1 || gl > arity {
			return nil, corrupt("column group of %d over %d columns", gl, arity)
		}
		g := make([]int, gl)
		for k := range g {
			g[k] = int(d.U32())
		}
		c.groups = append(c.groups, g)
		grouped = append(grouped, g...)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if slices.Sort(grouped); !slices.Equal(grouped, layout.AllCols(t.s)) {
		return nil, corrupt("column groups %v do not partition %d columns", c.groups, arity)
	}
	for _, g := range c.groups {
		f, err := t.restoreFragment(d, g, rr, want)
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
	for k := 0; k < nc; k++ {
		col := int(d.U32())
		img := d.Blob()
		if err := d.Err(); err != nil {
			return nil, err
		}
		cc, err := compress.Decode(img)
		if err != nil {
			return nil, fmt.Errorf("core: restoring compressed side-car of col %d: %w", col, err)
		}
		// Only what sealChunkCompression seals: an image of a thin
		// 8-byte numeric column holding every tuplet of the chunk.
		if _, f := t.thinFragment(c, col); f == nil || !compressible(t.s.Attr(col)) || cc.Len() != want || cc.ElementSize() != 8 {
			return nil, corrupt("compressed side-car of col %d over %d elements, chunk holds %d", col, cc.Len(), want)
		}
		// An older image's Raw side-car is a copy of the fragment
		// just restored: valid, and dropped, as a seal would.
		if cc.Encoding() == compress.Raw {
			continue
		}
		if c.comp == nil {
			c.comp = make([]*compress.Column, arity)
		}
		c.comp[col] = cc
	}
	return c, nil
}

// PrimeDeviceCache uploads the listed columns' cold fragments into the
// device fragment cache — the warm-restart path that restores the
// pre-crash working set before the first scans arrive. Columns ride the
// same piece geometry scans use, so scan-time cache keys match. A table
// without the cache enabled skips priming.
func (t *Table) PrimeDeviceCache(cols []device.ResidentCol) error {
	if !t.eng.opts.DeviceCache {
		return nil
	}
	ds := t.dev
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
			// A chunk with no image — an older manifest named its Raw
			// side-car — primes the bytes its scans now ship.
			if rc.Comp {
				t.attachCompressed(&piece, c, rc.Col)
			}
			pieces = append(pieces, piece)
		}
		if err := ds.Prime(rc.Col, pieces); err != nil {
			return err
		}
	}
	return nil
}
