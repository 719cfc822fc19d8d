package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"hybridstore/internal/schema"
)

// Encoder builds the little-endian binary encoding shared by log
// payloads and checkpoint snapshot files. The zero value is ready to
// use; Bytes returns the accumulated buffer.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset empties the encoder, keeping the backing array.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// F64 appends an IEEE-754 double.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Value appends a self-describing schema.Value (kind tag + payload).
func (e *Encoder) Value(v schema.Value) {
	e.U8(uint8(v.Kind))
	switch v.Kind {
	case schema.Int32, schema.Int64:
		e.U64(uint64(v.I))
	case schema.Float64:
		e.F64(v.F)
	case schema.Char:
		e.Str(v.S)
	}
}

// Record appends a length-prefixed sequence of self-describing values.
func (e *Encoder) Record(rec schema.Record) {
	e.U32(uint32(len(rec)))
	for _, v := range rec {
		e.Value(v)
	}
}

// Schema appends a full schema description (arity, then per attribute
// its kind, byte width and name).
func (e *Encoder) Schema(s *schema.Schema) {
	e.U32(uint32(s.Arity()))
	for i := 0; i < s.Arity(); i++ {
		a := s.Attr(i)
		e.U8(uint8(a.Kind))
		e.U32(uint32(a.Size))
		e.Str(a.Name)
	}
}

// Decoder reads the Encoder's format. Errors are sticky: the first
// malformed read poisons the decoder and every later read returns zero
// values, so call sites check Err once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps buf for reading.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: short buffer reading %s at offset %d", ErrCorrupt, what, d.off)
	}
}

func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads an IEEE-754 double.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := int(d.U32())
	b := d.take(n, "string")
	if b == nil {
		return ""
	}
	return string(b)
}

// Blob reads a length-prefixed byte slice (copied out of the buffer).
func (d *Decoder) Blob() []byte {
	n := int(d.U32())
	b := d.take(n, "blob")
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// Value reads a self-describing schema.Value.
func (d *Decoder) Value() schema.Value {
	k := schema.Kind(d.U8())
	switch k {
	case schema.Int32, schema.Int64:
		return schema.Value{Kind: k, I: int64(d.U64())}
	case schema.Float64:
		return schema.Value{Kind: k, F: d.F64()}
	case schema.Char:
		return schema.Value{Kind: k, S: d.Str()}
	default:
		if d.err == nil && k != 0 { // kind 0 from a poisoned read stays silent
			d.err = fmt.Errorf("%w: unknown value kind %d", ErrCorrupt, k)
		}
		return schema.Value{}
	}
}

// Record reads a length-prefixed value sequence.
func (d *Decoder) Record() schema.Record {
	n := int(d.U32())
	if d.err != nil || n > d.Remaining() {
		d.fail("record")
		return nil
	}
	rec := make(schema.Record, 0, n)
	for i := 0; i < n; i++ {
		rec = append(rec, d.Value())
	}
	return rec
}

// Schema reads a schema description and rebuilds the schema.
func (d *Decoder) Schema() *schema.Schema {
	n := int(d.U32())
	if d.err != nil || n > d.Remaining() {
		d.fail("schema")
		return nil
	}
	attrs := make([]schema.Attribute, 0, n)
	for i := 0; i < n; i++ {
		a := schema.Attribute{Kind: schema.Kind(d.U8())}
		a.Size = int(d.U32())
		a.Name = d.Str()
		attrs = append(attrs, a)
	}
	if d.err != nil {
		return nil
	}
	s, err := schema.New(attrs...)
	if err != nil {
		d.err = fmt.Errorf("%w: rebuilding schema: %v", ErrCorrupt, err)
		return nil
	}
	return s
}
