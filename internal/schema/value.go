package schema

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
)

// Value is a dynamically-typed field value. It is a small tagged union kept
// allocation-free for the numeric kinds; Char values carry a string.
type Value struct {
	// Kind tags which member is valid.
	Kind Kind
	// I holds Int32 and Int64 payloads.
	I int64
	// F holds Float64 payloads.
	F float64
	// S holds Char payloads (unpadded).
	S string
}

// IntValue returns an Int64 value.
func IntValue(v int64) Value { return Value{Kind: Int64, I: v} }

// Int32Value returns an Int32 value.
func Int32Value(v int32) Value { return Value{Kind: Int32, I: int64(v)} }

// FloatValue returns a Float64 value.
func FloatValue(v float64) Value { return Value{Kind: Float64, F: v} }

// CharValue returns a Char value.
func CharValue(v string) Value { return Value{Kind: Char, S: v} }

// String renders the value for debugging and harness output.
func (v Value) String() string {
	switch v.Kind {
	case Int32, Int64:
		return fmt.Sprintf("%d", v.I)
	case Float64:
		return fmt.Sprintf("%g", v.F)
	case Char:
		return fmt.Sprintf("%q", v.S)
	default:
		return fmt.Sprintf("Value{kind=%d}", v.Kind)
	}
}

// Equal reports semantic equality (same kind and payload).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case Int32, Int64:
		return v.I == o.I
	case Float64:
		return v.F == o.F || (math.IsNaN(v.F) && math.IsNaN(o.F))
	case Char:
		return v.S == o.S
	default:
		return false
	}
}

// Encoding errors.
var (
	// ErrKindMismatch is returned when a value's kind does not match the
	// attribute it is encoded into.
	ErrKindMismatch = errors.New("schema: value kind does not match attribute")
	// ErrCharTooLong is returned when a Char value exceeds the attribute width.
	ErrCharTooLong = errors.New("schema: char value exceeds attribute width")
	// ErrShortBuffer is returned when the destination or source buffer is
	// smaller than the attribute size.
	ErrShortBuffer = errors.New("schema: buffer shorter than attribute size")
)

// ValidateValue checks that v can be encoded under a without writing
// anywhere: the kinds must match and CHAR payloads must fit. Engines
// call it before logging a write so the WAL only ever holds records
// that will apply.
func ValidateValue(a Attribute, v Value) error {
	if v.Kind != a.Kind {
		return fmt.Errorf("%w: attribute %s is %s, value is %s", ErrKindMismatch, a.Name, a.Kind, v.Kind)
	}
	switch a.Kind {
	case Int32, Int64, Float64:
	case Char:
		if len(v.S) > a.Size {
			return fmt.Errorf("%w: %q into CHAR(%d)", ErrCharTooLong, v.S, a.Size)
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadAttribute, a.Kind)
	}
	return nil
}

// ValidateRecord applies ValidateValue across a record positionally
// aligned with s's attributes, checking arity first.
func ValidateRecord(s *Schema, rec Record) error {
	if len(rec) != s.Arity() {
		return fmt.Errorf("%w: arity %d vs schema %d", ErrArityMismatch, len(rec), s.Arity())
	}
	for i, v := range rec {
		if err := ValidateValue(s.Attr(i), v); err != nil {
			return err
		}
	}
	return nil
}

// EncodeValue writes v into dst according to a. dst must be at least a.Size
// bytes; only the first a.Size bytes are written.
func EncodeValue(dst []byte, a Attribute, v Value) error {
	if len(dst) < a.Size {
		return fmt.Errorf("%w: need %d, have %d", ErrShortBuffer, a.Size, len(dst))
	}
	if err := ValidateValue(a, v); err != nil {
		return err
	}
	switch a.Kind {
	case Int32:
		binary.LittleEndian.PutUint32(dst, uint32(int32(v.I)))
	case Int64:
		binary.LittleEndian.PutUint64(dst, uint64(v.I))
	case Float64:
		binary.LittleEndian.PutUint64(dst, math.Float64bits(v.F))
	case Char:
		n := copy(dst[:a.Size], v.S)
		for i := n; i < a.Size; i++ {
			dst[i] = 0
		}
	}
	return nil
}

// DecodeValue reads a value of attribute a from src. src must be at least
// a.Size bytes.
func DecodeValue(src []byte, a Attribute) (Value, error) {
	if len(src) < a.Size {
		return Value{}, fmt.Errorf("%w: need %d, have %d", ErrShortBuffer, a.Size, len(src))
	}
	switch a.Kind {
	case Int32:
		return Value{Kind: Int32, I: int64(int32(binary.LittleEndian.Uint32(src)))}, nil
	case Int64:
		return Value{Kind: Int64, I: int64(binary.LittleEndian.Uint64(src))}, nil
	case Float64:
		return Value{Kind: Float64, F: math.Float64frombits(binary.LittleEndian.Uint64(src))}, nil
	case Char:
		return Value{Kind: Char, S: strings.TrimRight(string(src[:a.Size]), "\x00")}, nil
	default:
		return Value{}, fmt.Errorf("%w: unknown kind %d", ErrBadAttribute, a.Kind)
	}
}

// Record is one tuple's values, positionally aligned with a schema.
type Record []Value

// ErrArityMismatch is returned when a record's length differs from the
// schema arity.
var ErrArityMismatch = errors.New("schema: record arity does not match schema")

// Equal reports whether two records are value-wise equal.
func (r Record) Equal(o Record) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	out := make(Record, len(r))
	copy(out, r)
	return out
}

// String renders the record as "[v1 v2 ...]".
func (r Record) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range r {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.String())
	}
	b.WriteByte(']')
	return b.String()
}
