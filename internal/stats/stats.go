// Package stats implements per-fragment, per-column small materialized
// aggregates — zone maps — for the data-skipping layer (paper Section
// II-B: the crossovers are byte-volume driven, so the cheapest bytes are
// the ones never touched). A Zone tracks the minimum, maximum and count
// of one 8-byte float64 column of one fragment: every predicate is a
// float64 one, so that is the only column a zone can prune. Zones are
// maintained incrementally as tuplets are appended, widen conservatively
// on in-place updates, and are recomputed to exact bounds when a
// fragment freezes (core hot→cold, L-Store base merge).
//
// A zone is always a conservative envelope: the true value range of the
// column is contained in [Min, Max] whenever the zone is valid. Pruning
// with a conservative envelope can only err on the side of scanning, so
// predicate evaluation stays exact.
package stats

// Zone is the min/max/count envelope of one column of one fragment.
// The zero value is not usable; construct with NewZone. Zones are not
// internally synchronized: they share the owning fragment's locking
// discipline.
type Zone struct {
	count    int64
	min, max float64
	invalid  bool
}

// NewZone returns an empty, valid zone.
func NewZone() *Zone { return &Zone{} }

// Reset empties the zone: valid, no observations.
func (z *Zone) Reset() { *z = Zone{} }

// Invalidate marks the envelope untrustworthy until the next Reset.
// Pruning must treat invalid zones as "may contain anything".
func (z *Zone) Invalidate() { z.invalid = true }

// ObserveFloat64 widens the envelope with one appended value. NaNs
// invalidate the zone: a NaN is outside every interval, so no finite
// envelope can stay conservative for equality/range predicates over it.
// The bounds move by compare-and-assign, not the builtin min/max, which
// would turn a +0 bound into -0 and change checkpoint image bytes.
func (z *Zone) ObserveFloat64(x float64) {
	if x != x { // NaN
		z.Invalidate()
		z.count++
		return
	}
	if z.count == 0 {
		z.min, z.max = x, x
	} else {
		if x < z.min {
			z.min = x
		}
		if x > z.max {
			z.max = x
		}
	}
	z.count++
}

// WidenFloat64 widens the envelope for an in-place overwrite: the old
// value may or may not still be present elsewhere, so the envelope can
// only grow and the count stays put. NaNs invalidate.
func (z *Zone) WidenFloat64(x float64) {
	if z.invalid {
		return
	}
	if x != x { // NaN
		z.Invalidate()
		return
	}
	if z.count == 0 {
		return
	}
	if x < z.min {
		z.min = x
	}
	if x > z.max {
		z.max = x
	}
}

// Float64Bounds returns the envelope. ok is false when the zone is nil,
// invalid or empty — callers must then scan unconditionally.
func (z *Zone) Float64Bounds() (min, max float64, ok bool) {
	if z == nil || z.invalid || z.count == 0 {
		return 0, 0, false
	}
	return z.min, z.max, true
}

// Clone returns an independent copy (used when fragments are cloned
// across memory spaces).
func (z *Zone) Clone() *Zone {
	if z == nil {
		return nil
	}
	c := *z
	return &c
}
