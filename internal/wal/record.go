// Package wal implements the durability substrate: a write-ahead log
// with per-record CRC32 framing and group commit, plus the checked
// binary encoding shared by log records and checkpoint snapshot files.
//
// The log is logical: each record describes one storage-engine event
// (table create, base insert, MVCC commit) rather than page images.
// Recovery replays records in log order, which — because every producer
// appends inside its engine's commit critical section — is also
// commit-timestamp order per table, preserving the tx layer's
// first-committer-wins semantics (a conflict during replay is corruption,
// not something to skip).
//
// Frame format, little-endian:
//
//	[u32 payload length][u32 CRC-32 (IEEE) of payload][payload]
//
// A torn final frame (short header, short payload, or CRC mismatch) is
// truncated on Open; anything before it is trusted. A frame whose CRC
// matches but whose payload does not decode was written that way —
// corruption or version skew, never a torn write — and fails Open with
// ErrCorrupt, leaving the file untouched.
package wal

import (
	"errors"
	"fmt"

	"hybridstore/internal/schema"
)

// Kind tags what a log record describes.
type Kind uint8

// Log record kinds.
const (
	// KindCreate records a table creation: name, engine and schema.
	KindCreate Kind = 1
	// KindInsert records one base-region insert at a known row position.
	KindInsert Kind = 2
	// KindCommit records one MVCC transaction commit: the commit
	// timestamp and the full write set, in install order.
	KindCommit Kind = 3
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCreate:
		return "create"
	case KindInsert:
		return "insert"
	case KindCommit:
		return "commit"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Op is one entry of a commit record's write set.
type Op struct {
	// Row is the row the version installs at.
	Row uint64
	// Rec is the after-image.
	Rec schema.Record
}

// Record is one logical log record. Only the fields relevant to its
// Kind are populated.
type Record struct {
	// Kind selects which fields below are meaningful.
	Kind Kind
	// Table is the owning table name (all kinds).
	Table string
	// Engine is the engine registry name (KindCreate).
	Engine string
	// Schema is the created table's schema (KindCreate).
	Schema *schema.Schema
	// Row is the base row position (KindInsert).
	Row uint64
	// Rec is the inserted record (KindInsert).
	Rec schema.Record
	// TS is the commit timestamp (KindCommit).
	TS uint64
	// Ops is the commit write set in install order (KindCommit).
	Ops []Op
}

// Encoding errors.
var (
	// ErrCorrupt is returned when a payload does not decode.
	ErrCorrupt = errors.New("wal: corrupt record")
)

// encode appends the record payload (no frame header) to e. It refuses
// exactly the kinds decodeRecord refuses, so the log never holds a frame
// it cannot read back.
func (r *Record) encode(e *Encoder) error {
	e.U8(uint8(r.Kind))
	e.Str(r.Table)
	switch r.Kind {
	case KindCreate:
		e.Str(r.Engine)
		e.Schema(r.Schema)
	case KindInsert:
		e.U64(r.Row)
		e.Record(r.Rec)
	case KindCommit:
		e.U64(r.TS)
		e.U32(uint32(len(r.Ops)))
		for _, op := range r.Ops {
			e.U64(op.Row)
			e.U8(0) // reserved: a flag no writer ever set
			e.Record(op.Rec)
		}
	default:
		return fmt.Errorf("wal: cannot encode record kind %d", r.Kind)
	}
	return nil
}

// decodeRecord parses one payload back into a Record.
func decodeRecord(payload []byte) (*Record, error) {
	d := NewDecoder(payload)
	r := &Record{Kind: Kind(d.U8()), Table: d.Str()}
	switch r.Kind {
	case KindCreate:
		r.Engine = d.Str()
		r.Schema = d.Schema()
	case KindInsert:
		r.Row = d.U64()
		r.Rec = d.Record()
	case KindCommit:
		r.TS = d.U64()
		n := int(d.U32())
		if n > len(payload) { // cheap sanity bound before allocating
			return nil, fmt.Errorf("%w: %d ops in %d bytes", ErrCorrupt, n, len(payload))
		}
		r.Ops = make([]Op, 0, n)
		for i := 0; i < n; i++ {
			row := d.U64()
			if d.U8() != 0 {
				return nil, fmt.Errorf("%w: op %d of commit %d has its reserved byte set", ErrCorrupt, i, r.TS)
			}
			r.Ops = append(r.Ops, Op{Row: row, Rec: d.Record()})
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, r.Kind)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}
