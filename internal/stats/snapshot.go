package stats

// Snapshot is the exported image of a Zone, used by checkpoint files to
// persist frozen envelopes so a warm restart re-seals nothing: the
// restored zone carries the exact bounds the freeze point computed
// before the crash.
type Snapshot struct {
	// Count is the number of observed values.
	Count int64
	// Min/Max are the bounds.
	Min, Max float64
	// Invalid records an untrustworthy envelope (restored as-is: pruning
	// keeps treating it as "may contain anything").
	Invalid bool
}

// Snapshot exports the zone's state.
func (z *Zone) Snapshot() Snapshot {
	return Snapshot{Count: z.count, Min: z.min, Max: z.max, Invalid: z.invalid}
}

// FromSnapshot rebuilds a zone bit-identical to the one Snapshot
// exported, so a restored frozen fragment needs no re-seal pass.
func FromSnapshot(s Snapshot) *Zone {
	return &Zone{count: s.Count, min: s.Min, max: s.Max, invalid: s.Invalid}
}
