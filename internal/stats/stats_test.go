package stats

import (
	"math"
	"testing"
)

func TestPruneZoneObserveAndBounds(t *testing.T) {
	z := NewZone()
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
	if s := z.Snapshot(); s.Count != 4 {
		t.Fatalf("snapshot = %+v, want 4 observations", s)
	}
}

func TestPruneZoneWiden(t *testing.T) {
	z := NewZone()
	z.ObserveFloat64(1)
	z.ObserveFloat64(10)
	// An overwrite outside the envelope widens it; the count stays.
	z.WidenFloat64(42)
	if s := z.Snapshot(); s.Min != 1 || s.Max != 42 || s.Count != 2 || s.Invalid {
		t.Fatalf("snapshot = %+v, want [1,42] over 2", s)
	}
	// An empty zone has no envelope to widen.
	e := NewZone()
	e.WidenFloat64(5)
	if _, _, ok := e.Float64Bounds(); ok {
		t.Fatal("widening an empty zone must not expose bounds")
	}
}

// TestPruneZoneKeepsSignedZero pins the compare-and-assign updates: a
// +0 bound stays +0 when a -0 arrives (the builtin min would take -0),
// so a checkpoint image keeps its bytes.
func TestPruneZoneKeepsSignedZero(t *testing.T) {
	z := NewZone()
	z.ObserveFloat64(0)
	z.ObserveFloat64(math.Copysign(0, -1))
	z.WidenFloat64(math.Copysign(0, -1))
	s := z.Snapshot()
	if math.Signbit(s.Min) || math.Signbit(s.Max) {
		t.Fatalf("bounds (%g,%g) took the sign of -0", s.Min, s.Max)
	}
}

func TestPruneZoneInvalidate(t *testing.T) {
	z := NewZone()
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
	z := NewZone()
	z.ObserveFloat64(1)
	z.ObserveFloat64(math.NaN())
	if _, _, ok := z.Float64Bounds(); ok {
		t.Fatal("NaN observation must invalidate the envelope")
	}
	w := NewZone()
	w.ObserveFloat64(1)
	w.WidenFloat64(math.NaN())
	if _, _, ok := w.Float64Bounds(); ok {
		t.Fatal("NaN overwrite must invalidate the envelope")
	}
}

func TestPruneZoneClone(t *testing.T) {
	z := NewZone()
	z.ObserveFloat64(3)
	c := z.Clone()
	c.ObserveFloat64(100)
	if s := z.Snapshot(); s.Min != 3 || s.Max != 3 {
		t.Fatalf("clone mutated original: (%g,%g)", s.Min, s.Max)
	}
	var nilZone *Zone
	if nilZone.Clone() != nil {
		t.Fatal("nil clone should be nil")
	}
	if _, _, ok := nilZone.Float64Bounds(); ok {
		t.Fatal("nil zone must not expose bounds")
	}
}
