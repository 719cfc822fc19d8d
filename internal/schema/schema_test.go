package schema

import (
	"errors"
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := New(
		Int64Attr("id"),
		CharAttr("name", 12),
		Float64Attr("price"),
		Int32Attr("qty"),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestNewComputesWidth(t *testing.T) {
	s := testSchema(t)
	if got := s.Arity(); got != 4 {
		t.Fatalf("Arity = %d, want 4", got)
	}
	if got := s.Width(); got != 32 {
		t.Errorf("Width = %d, want 32", got)
	}
}

func TestNewRejectsEmptySchema(t *testing.T) {
	if _, err := New(); !errors.Is(err, ErrEmptySchema) {
		t.Fatalf("err = %v, want ErrEmptySchema", err)
	}
}

func TestNewRejectsEmptyName(t *testing.T) {
	if _, err := New(Attribute{Name: "", Kind: Int64, Size: 8}); !errors.Is(err, ErrBadAttribute) {
		t.Fatalf("err = %v, want ErrBadAttribute", err)
	}
}

func TestNewRejectsWrongFixedSize(t *testing.T) {
	if _, err := New(Attribute{Name: "a", Kind: Int64, Size: 4}); !errors.Is(err, ErrBadAttribute) {
		t.Fatalf("err = %v, want ErrBadAttribute", err)
	}
}

func TestNewRejectsZeroWidthChar(t *testing.T) {
	if _, err := New(Attribute{Name: "a", Kind: Char, Size: 0}); !errors.Is(err, ErrBadAttribute) {
		t.Fatalf("err = %v, want ErrBadAttribute", err)
	}
}

func TestNewRejectsUnknownKind(t *testing.T) {
	if _, err := New(Attribute{Name: "a", Kind: Kind(99), Size: 8}); !errors.Is(err, ErrBadAttribute) {
		t.Fatalf("err = %v, want ErrBadAttribute", err)
	}
}

func TestNewRejectsDuplicateNames(t *testing.T) {
	if _, err := New(Int64Attr("a"), Float64Attr("a")); !errors.Is(err, ErrDuplicateName) {
		t.Fatalf("err = %v, want ErrDuplicateName", err)
	}
}

func TestSchemaEqual(t *testing.T) {
	a := testSchema(t)
	b := testSchema(t)
	if !a.Equal(b) {
		t.Error("identical schemas reported unequal")
	}
	c := MustNew(Int64Attr("id"))
	if a.Equal(c) {
		t.Error("different schemas reported equal")
	}
	var nilSchema *Schema
	if a.Equal(nilSchema) || nilSchema.Equal(a) {
		t.Error("nil comparison should be false")
	}
	if !nilSchema.Equal(nil) {
		t.Error("nil.Equal(nil) should be true")
	}
}

func TestSchemaString(t *testing.T) {
	s := testSchema(t)
	got := s.String()
	for _, want := range []string{"id INT64", "name CHAR(12)", "price FLOAT64", "qty INT32"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q missing %q", got, want)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with invalid schema did not panic")
		}
	}()
	MustNew()
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Int32: "INT32", Int64: "INT64", Float64: "FLOAT64", Char: "CHAR", Kind(42): "Kind(42)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}
