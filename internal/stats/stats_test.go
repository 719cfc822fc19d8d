package stats

import (
	"math"
	"testing"
)

func TestPruneZoneObserveAndBounds(t *testing.T) {
	z := NewZone(Float64)
	if _, _, ok := z.Float64Bounds(); ok {
		t.Fatal("empty zone must not expose bounds")
	}
	for _, x := range []float64{3, -1, 7, 2} {
		z.ObserveFloat64(x)
	}
	min, max, ok := z.Float64Bounds()
	if !ok || min != -1 || max != 7 {
		t.Fatalf("bounds = (%g,%g,%v), want (-1,7,true)", min, max, ok)
	}
	if s := z.Snapshot(); s.Count != 4 || s.Kind != Float64 {
		t.Fatalf("snapshot = %+v, want 4 float64 observations", s)
	}

	zi := NewZone(Int64)
	for _, x := range []int64{5, -9, 5} {
		zi.ObserveInt64(x)
	}
	if s := zi.Snapshot(); s.MinI != -9 || s.MaxI != 5 || s.Count != 3 || s.Invalid {
		t.Fatalf("int snapshot = %+v, want [-9,5] over 3", s)
	}
	if _, _, ok := zi.Float64Bounds(); ok {
		t.Fatal("int64 zone must not answer float64 bounds")
	}
}

func TestPruneZoneSealAndWiden(t *testing.T) {
	z := NewZone(Int64)
	z.ObserveInt64(1)
	z.ObserveInt64(10)
	z.MarkSealed()
	if !z.Snapshot().Sealed {
		t.Fatal("zone should be sealed")
	}
	// Widening outside the envelope clears the sealed flag but keeps
	// conservative bounds.
	z.ObserveInt64(42)
	if s := z.Snapshot(); s.Sealed || s.MinI != 1 || s.MaxI != 42 || s.Invalid {
		t.Fatalf("snapshot = %+v, want unsealed [1,42]", s)
	}
}

func TestPruneZoneInvalidate(t *testing.T) {
	z := NewZone(Float64)
	z.ObserveFloat64(1)
	z.Invalidate()
	if !z.Snapshot().Invalid {
		t.Fatal("invalidated zone reports valid")
	}
	if _, _, ok := z.Float64Bounds(); ok {
		t.Fatal("invalid zone must not expose bounds")
	}
	z.Reset()
	if s := z.Snapshot(); s.Invalid || s.Count != 0 {
		t.Fatal("reset must restore an empty valid zone")
	}
}

func TestPruneZoneNaNInvalidates(t *testing.T) {
	z := NewZone(Float64)
	z.ObserveFloat64(1)
	z.ObserveFloat64(math.NaN())
	if _, _, ok := z.Float64Bounds(); ok {
		t.Fatal("NaN observation must invalidate the envelope")
	}
}

func TestPruneZoneClone(t *testing.T) {
	z := NewZone(Int64)
	z.ObserveInt64(3)
	z.MarkSealed()
	c := z.Clone()
	c.ObserveInt64(100)
	if s := z.Snapshot(); s.MinI != 3 || s.MaxI != 3 {
		t.Fatalf("clone mutated original: (%d,%d)", s.MinI, s.MaxI)
	}
	if !z.Snapshot().Sealed || c.Snapshot().Sealed {
		t.Fatal("sealed flags should be independent")
	}
	var nilZone *Zone
	if nilZone.Clone() != nil {
		t.Fatal("nil clone should be nil")
	}
	if _, _, ok := nilZone.Float64Bounds(); ok {
		t.Fatal("nil zone must not expose bounds")
	}
}
