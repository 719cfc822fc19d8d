package schema

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeValueRoundTrip(t *testing.T) {
	cases := []struct {
		attr Attribute
		val  Value
	}{
		{Int32Attr("a"), Int32Value(-12345)},
		{Int32Attr("a"), Int32Value(math.MaxInt32)},
		{Int64Attr("a"), IntValue(math.MinInt64)},
		{Float64Attr("a"), FloatValue(3.14159)},
		{Float64Attr("a"), FloatValue(math.Inf(-1))},
		{CharAttr("a", 8), CharValue("abc")},
		{CharAttr("a", 8), CharValue("12345678")},
		{CharAttr("a", 3), CharValue("")},
	}
	for _, c := range cases {
		buf := make([]byte, c.attr.Size)
		if err := EncodeValue(buf, c.attr, c.val); err != nil {
			t.Fatalf("EncodeValue(%v, %v): %v", c.attr, c.val, err)
		}
		got, err := DecodeValue(buf, c.attr)
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", c.attr, err)
		}
		if !got.Equal(c.val) {
			t.Errorf("round trip %v via %v = %v", c.val, c.attr, got)
		}
	}
}

func TestEncodeValueErrors(t *testing.T) {
	a := Int64Attr("a")
	if err := EncodeValue(make([]byte, 4), a, IntValue(1)); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("short buffer: err = %v, want ErrShortBuffer", err)
	}
	if err := EncodeValue(make([]byte, 8), a, FloatValue(1)); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("kind mismatch: err = %v, want ErrKindMismatch", err)
	}
	c := CharAttr("c", 2)
	if err := EncodeValue(make([]byte, 2), c, CharValue("abc")); !errors.Is(err, ErrCharTooLong) {
		t.Errorf("long char: err = %v, want ErrCharTooLong", err)
	}
}

func TestDecodeValueShortBuffer(t *testing.T) {
	if _, err := DecodeValue(make([]byte, 2), Int64Attr("a")); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("err = %v, want ErrShortBuffer", err)
	}
}

func TestEncodeValueOverwritesStaleCharBytes(t *testing.T) {
	a := CharAttr("c", 6)
	buf := []byte{'x', 'x', 'x', 'x', 'x', 'x'}
	if err := EncodeValue(buf, a, CharValue("ab")); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeValue(buf, a)
	if err != nil {
		t.Fatal(err)
	}
	if got.S != "ab" {
		t.Errorf("decoded %q, want %q (stale bytes not cleared)", got.S, "ab")
	}
}

func TestValueEqual(t *testing.T) {
	if !FloatValue(math.NaN()).Equal(FloatValue(math.NaN())) {
		t.Error("NaN should equal NaN under Value.Equal")
	}
	if IntValue(1).Equal(FloatValue(1)) {
		t.Error("different kinds should not be equal")
	}
	if !CharValue("x").Equal(CharValue("x")) {
		t.Error("equal chars reported unequal")
	}
}

func TestValueLess(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{IntValue(1), IntValue(2), true},
		{IntValue(2), IntValue(1), false},
		{FloatValue(1.5), FloatValue(2.5), true},
		{CharValue("a"), CharValue("b"), true},
		{Int32Value(1), IntValue(1), true}, // kind tag ordering
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRecordCloneIsDeep(t *testing.T) {
	r := Record{IntValue(1), CharValue("a")}
	c := r.Clone()
	c[0] = IntValue(2)
	if r[0].I != 1 {
		t.Error("Clone shares backing storage")
	}
}

// randomRecord builds a random record for s; shared with other tests in
// this package via export_test-style reuse.
func randomRecord(r *rand.Rand, s *Schema) Record {
	rec := make(Record, s.Arity())
	for i := 0; i < s.Arity(); i++ {
		a := s.Attr(i)
		switch a.Kind {
		case Int32:
			rec[i] = Int32Value(int32(r.Int63()))
		case Int64:
			rec[i] = IntValue(r.Int63() - r.Int63())
		case Float64:
			rec[i] = FloatValue(r.NormFloat64() * 1e6)
		case Char:
			n := r.Intn(a.Size + 1)
			b := make([]byte, n)
			for j := range b {
				b[j] = byte('a' + r.Intn(26))
			}
			rec[i] = CharValue(string(b))
		}
	}
	return rec
}

func TestQuickValueRoundTripAllKinds(t *testing.T) {
	attrs := []Attribute{Int32Attr("a"), Int64Attr("b"), Float64Attr("c"), CharAttr("d", 16)}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, a := range attrs {
			s := MustNew(a)
			v := randomRecord(r, s)[0]
			buf := make([]byte, a.Size)
			if err := EncodeValue(buf, a, v); err != nil {
				return false
			}
			got, err := DecodeValue(buf, a)
			if err != nil || !got.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestValueStringFormats(t *testing.T) {
	cases := map[string]Value{
		"42":   IntValue(42),
		"1.5":  FloatValue(1.5),
		`"ab"`: CharValue("ab"),
		"-7":   Int32Value(-7),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
}

func TestRecordString(t *testing.T) {
	r := Record{IntValue(1), CharValue("x")}
	if got, want := r.String(), `[1 "x"]`; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// Ensure Kind values used in reflection-based tests stay distinct.
func TestKindsDistinct(t *testing.T) {
	kinds := []Kind{Int32, Int64, Float64, Char}
	seen := map[Kind]bool{}
	for _, k := range kinds {
		if seen[k] {
			t.Fatalf("duplicate kind value %d", k)
		}
		seen[k] = true
	}
	if !reflect.DeepEqual(len(seen), 4) {
		t.Fatal("expected 4 distinct kinds")
	}
}
