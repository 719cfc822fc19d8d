package exec

import (
	"fmt"

	"hybridstore/internal/layout"
	"hybridstore/internal/schema"
)

// Materialize resolves a sorted position list against a layout and returns
// the full records (the paper's record-centric access pattern: the output
// of the preceding join operator is a sorted position list, and the
// operator materializes all fields of the addressed records). The
// position list is partitioned under the configured policy; on failure
// it returns the error of the first failing position in the first slot
// that failed, which under the sequential and blockwise policies is the
// first failing position of the list.
func Materialize(cfg Config, l *layout.Layout, positions []uint64) ([]schema.Record, error) {
	ot := obsMaterialize.start(cfg.Policy)
	out := make([]schema.Record, len(positions))
	slots := cfg.slots()
	errs := make([]error, slots)
	cfg.partition(slots, len(positions), func(slot, from, to int) {
		if errs[slot] != nil {
			return
		}
		for i := from; i < to; i++ {
			rec, err := l.Record(positions[i])
			if err != nil {
				errs[slot] = fmt.Errorf("materializing position %d: %w", positions[i], err)
				return
			}
			out[i] = rec
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	cfg.chargeMaterialize(l, len(positions))
	ot.end()
	return out, nil
}

// chargeMaterialize prices a record-centric materialization: the number
// of distinct fragments a record's fields are spread over determines the
// cache misses per record (1-2 lines for NSM, one miss per attribute for
// emulated DSM).
func (c Config) chargeMaterialize(l *layout.Layout, k int) {
	if c.Clock == nil || k == 0 {
		return
	}
	s := l.Schema()
	// Count the distinct fragments covering row 0's attributes as the
	// per-record spread; uniform layouts make this exact.
	frags := make(map[*layout.Fragment]bool)
	for col := 0; col < s.Arity(); col++ {
		if f, err := l.FragmentAt(0, col); err == nil {
			frags[f] = true
		}
	}
	spread := len(frags)
	if spread == 0 {
		spread = 1
	}
	var rows uint64
	for _, f := range l.Fragments() {
		if f.Rows().End > rows {
			rows = f.Rows().End
		}
	}
	if c.Policy == MorselDriven {
		c.Clock.Advance(c.Host.MaterializeMorselNs(int64(k), int64(rows), s.Width(), spread, c.threads()))
		return
	}
	c.Clock.Advance(c.Host.MaterializeNs(int64(k), int64(rows), s.Width(), spread, c.threads()))
}
