// Package stats implements per-fragment, per-column small materialized
// aggregates — zone maps — for the data-skipping layer (paper Section
// II-B: the crossovers are byte-volume driven, so the cheapest bytes are
// the ones never touched). A Zone tracks the minimum, maximum and count
// of one 8-byte numeric column of one fragment. Zones are maintained
// incrementally as tuplets are appended, widen conservatively on
// in-place updates, and are sealed — recomputed to exact bounds — when a
// fragment freezes (core hot→cold, L-Store base merge).
//
// A zone is always a conservative envelope: the true value range of the
// column is contained in [Min, Max] whenever the zone is valid. Pruning
// with a conservative envelope can only err on the side of scanning, so
// predicate evaluation stays exact.
package stats

// Kind tags the element type a Zone summarizes. Only the 8-byte numeric
// kinds participate in data skipping; other columns carry no zone.
type Kind uint8

// Zone element kinds.
const (
	// Int64 summarizes signed 8-byte integers.
	Int64 Kind = iota
	// Float64 summarizes IEEE-754 doubles.
	Float64
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	default:
		return "Kind(?)"
	}
}

// Zone is the min/max/count envelope of one column of one fragment.
// The zero value is not usable; construct with NewZone. Zones are not
// internally synchronized: they share the owning fragment's locking
// discipline.
type Zone struct {
	kind    Kind
	count   int64
	minI    int64
	maxI    int64
	minF    float64
	maxF    float64
	sealed  bool
	invalid bool
}

// NewZone returns an empty, valid, unsealed zone for the given kind.
func NewZone(k Kind) *Zone {
	z := &Zone{kind: k}
	z.Reset()
	return z
}

// Kind returns the element kind the zone summarizes.
func (z *Zone) Kind() Kind { return z.kind }

// Reset empties the zone: valid, unsealed, no observations.
func (z *Zone) Reset() {
	z.count = 0
	z.sealed = false
	z.invalid = false
	z.minI, z.maxI = 0, 0
	z.minF, z.maxF = 0, 0
}

// Invalidate marks the envelope untrustworthy until the next Reset or
// Seal. Pruning must treat invalid zones as "may contain anything".
func (z *Zone) Invalidate() {
	z.invalid = true
	z.sealed = false
}

// MarkSealed records that the current bounds are exact. Callers (the
// freeze points) must have recomputed the envelope from the stored
// bytes immediately before.
func (z *Zone) MarkSealed() {
	if !z.invalid {
		z.sealed = true
	}
}

// ObserveInt64 widens the envelope with one appended or updated value.
// Widening after sealing clears the sealed flag (the bounds stay
// conservative but may no longer be tight).
func (z *Zone) ObserveInt64(x int64) {
	if z.count == 0 {
		z.minI, z.maxI = x, x
	} else {
		if x < z.minI {
			z.minI = x
		}
		if x > z.maxI {
			z.maxI = x
		}
		if z.sealed {
			z.sealed = false
		}
	}
	z.count++
}

// ObserveFloat64 is ObserveInt64 for doubles. NaNs invalidate the zone:
// a NaN is outside every interval, so no finite envelope can stay
// conservative for equality/range predicates over it.
func (z *Zone) ObserveFloat64(x float64) {
	if x != x { // NaN
		z.Invalidate()
		z.count++
		return
	}
	if z.count == 0 {
		z.minF, z.maxF = x, x
	} else {
		if x < z.minF {
			z.minF = x
		}
		if x > z.maxF {
			z.maxF = x
		}
		if z.sealed {
			z.sealed = false
		}
	}
	z.count++
}

// WidenInt64 widens the envelope for an in-place overwrite: the old
// value may or may not still be present elsewhere, so the envelope can
// only grow and the count stays put. Clears the sealed flag — after an
// update the bounds are conservative, not necessarily tight.
func (z *Zone) WidenInt64(x int64) {
	if z.invalid {
		return
	}
	z.sealed = false
	if z.count == 0 {
		return
	}
	if x < z.minI {
		z.minI = x
	}
	if x > z.maxI {
		z.maxI = x
	}
}

// WidenFloat64 is WidenInt64 for doubles; NaNs invalidate.
func (z *Zone) WidenFloat64(x float64) {
	if z.invalid {
		return
	}
	if x != x { // NaN
		z.Invalidate()
		return
	}
	z.sealed = false
	if z.count == 0 {
		return
	}
	if x < z.minF {
		z.minF = x
	}
	if x > z.maxF {
		z.maxF = x
	}
}

// Float64Bounds returns the envelope for a float64 zone. ok is false
// when the zone is invalid, empty, or of the wrong kind — callers must
// then scan unconditionally.
func (z *Zone) Float64Bounds() (min, max float64, ok bool) {
	if z == nil || z.invalid || z.count == 0 || z.kind != Float64 {
		return 0, 0, false
	}
	return z.minF, z.maxF, true
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
