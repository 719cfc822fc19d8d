// Package schema defines attribute types, relation schemas and typed values
// with a fixed-width binary encoding.
//
// The storage engines in this module store tuplets as raw bytes so that the
// NSM/DSM linearizations discussed in the paper (Pinnecke et al., ICDE 2017,
// Section II-A) are physically real: a record occupies exactly
// Schema.Width() consecutive bytes under NSM, and a column of n records
// occupies n*attr.Size consecutive bytes under DSM. All encodings are
// little-endian via encoding/binary.
package schema

import (
	"errors"
	"fmt"
	"strings"
)

// Kind enumerates the supported attribute types. All kinds are fixed-width,
// which keeps tuplet geometry static — a prerequisite for the byte-exact
// layout experiments in the benchmark harness.
type Kind uint8

// Supported attribute kinds.
const (
	// Int32 is a 32-bit signed integer (4 bytes).
	Int32 Kind = iota
	// Int64 is a 64-bit signed integer (8 bytes).
	Int64
	// Float64 is an IEEE-754 double (8 bytes).
	Float64
	// Char is a fixed-width character field; its width is given per
	// attribute. Shorter strings are zero-padded, longer ones rejected.
	Char
)

// String returns the SQL-flavoured name of the kind.
func (k Kind) String() string {
	switch k {
	case Int32:
		return "INT32"
	case Int64:
		return "INT64"
	case Float64:
		return "FLOAT64"
	case Char:
		return "CHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// FixedSize returns the encoded size of the kind in bytes, or 0 if the size
// is per-attribute (Char).
func (k Kind) FixedSize() int {
	switch k {
	case Int32:
		return 4
	case Int64, Float64:
		return 8
	default:
		return 0
	}
}

// Attribute describes a single column of a relation.
type Attribute struct {
	// Name is the attribute name; must be non-empty and unique in a schema.
	Name string
	// Kind is the attribute type.
	Kind Kind
	// Size is the encoded width in bytes. For Char it must be set
	// explicitly (>0); for all other kinds it is derived from the Kind.
	Size int
}

// Int32Attr returns a 4-byte integer attribute.
func Int32Attr(name string) Attribute { return Attribute{Name: name, Kind: Int32, Size: 4} }

// Int64Attr returns an 8-byte integer attribute.
func Int64Attr(name string) Attribute { return Attribute{Name: name, Kind: Int64, Size: 8} }

// Float64Attr returns an 8-byte floating-point attribute.
func Float64Attr(name string) Attribute { return Attribute{Name: name, Kind: Float64, Size: 8} }

// CharAttr returns a fixed-width character attribute of n bytes.
func CharAttr(name string, n int) Attribute { return Attribute{Name: name, Kind: Char, Size: n} }

// String renders the attribute as "name TYPE(size)".
func (a Attribute) String() string {
	if a.Kind == Char {
		return fmt.Sprintf("%s CHAR(%d)", a.Name, a.Size)
	}
	return fmt.Sprintf("%s %s", a.Name, a.Kind)
}

// Validation errors returned by New.
var (
	// ErrEmptySchema is returned when a schema has no attributes.
	ErrEmptySchema = errors.New("schema: no attributes")
	// ErrBadAttribute is returned when an attribute is malformed.
	ErrBadAttribute = errors.New("schema: bad attribute")
	// ErrDuplicateName is returned when two attributes share a name.
	ErrDuplicateName = errors.New("schema: duplicate attribute name")
)

// Schema is an ordered list of attributes together with the derived NSM
// record width. Schemas are immutable after construction.
type Schema struct {
	attrs []Attribute
	width int
	index map[string]int
}

// New validates the attributes and builds a schema. The NSM record width is
// the sum of the attribute sizes (no alignment padding — the paper's record
// geometry, e.g. 96 bytes for 21 customer fields, is densely packed).
func New(attrs ...Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, ErrEmptySchema
	}
	s := &Schema{
		attrs: make([]Attribute, len(attrs)),
		index: make(map[string]int, len(attrs)),
	}
	copy(s.attrs, attrs)
	for i, a := range s.attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("%w: attribute %d has empty name", ErrBadAttribute, i)
		}
		if fixed := a.Kind.FixedSize(); fixed != 0 && a.Size != fixed {
			return nil, fmt.Errorf("%w: %s must have size %d, got %d", ErrBadAttribute, a.Name, fixed, a.Size)
		}
		if a.Kind == Char && a.Size <= 0 {
			return nil, fmt.Errorf("%w: %s CHAR requires positive size", ErrBadAttribute, a.Name)
		}
		if a.Kind > Char {
			return nil, fmt.Errorf("%w: %s has unknown kind %d", ErrBadAttribute, a.Name, a.Kind)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateName, a.Name)
		}
		s.index[a.Name] = i
		s.width += a.Size
	}
	return s, nil
}

// MustNew is New that panics on error; for statically-known schemas.
func MustNew(attrs ...Attribute) *Schema {
	s, err := New(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Width returns the NSM record width in bytes.
func (s *Schema) Width() int { return s.width }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Equal reports whether two schemas have identical attribute lists.
func (s *Schema) Equal(o *Schema) bool {
	if s == nil || o == nil {
		return s == o
	}
	if len(s.attrs) != len(o.attrs) {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != o.attrs[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(a INT64, b CHAR(8), ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte(')')
	return b.String()
}
