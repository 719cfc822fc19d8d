package exec

import (
	"fmt"

	"hybridstore/internal/agg"
)

// GroupResult is one group of a grouped aggregation: Key (int64-widened),
// Sum and Count. It is the group table's own entry type, so a table's
// rows are a result without a copy.
type GroupResult = agg.Group

// GroupSumFloat64 computes SELECT key, SUM(val), COUNT(*) GROUP BY key
// over two parallel column views ("mostly aggregations and groupings are
// executed on read-only data" is the paper's characterization of the
// OLAP side, Section II-A). keys must be an int64 or int32 column view,
// vals a float64 one; both must cover the same positions. Results come
// back sorted by key. Under MultiThreaded, workers build partial tables
// over blockwise partitions which are then merged.
func GroupSumFloat64(cfg Config, keys, vals []Piece) ([]GroupResult, error) {
	if err := checkAligned(keys, vals); err != nil {
		return nil, err
	}
	if err := checkSize8(vals, "float64 aggregate"); err != nil {
		return nil, err
	}
	for _, col := range [][]Piece{keys, vals} {
		if err := rejectComp(col, "unpredicated group-by"); err != nil {
			return nil, err
		}
	}
	for _, p := range keys {
		if p.Vec.Size != 8 && p.Vec.Size != 4 {
			return nil, fmt.Errorf("%w: group key of %d bytes", ErrBadColumn, p.Vec.Size)
		}
	}
	ot := obsGroupBy.start(cfg.Policy)
	// The unpredicated group-by is the fused kernel with every range
	// dense: no compare, every element folded.
	out := mergeGroupTables(groupTables(cfg, totalLen(keys), func(table *agg.Table, gFrom, gTo int) {
		eachAligned(keys, gFrom, gTo, func(pi, from, to int) {
			foldGroupRange(table, keysOf(keys[pi].Vec), vals[pi].Vec, from, to, 0, 0, true)
		})
	}))
	cfg.chargeScan(keys)
	cfg.chargeScan(vals)
	ot.end()
	return out, nil
}

// checkAligned verifies both views cover identical position runs.
func checkAligned(keys, vals []Piece) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("%w: %d key pieces vs %d value pieces", ErrBadColumn, len(keys), len(vals))
	}
	for i := range keys {
		if keys[i].Rows != vals[i].Rows || keys[i].Vec.Len != vals[i].Vec.Len {
			return fmt.Errorf("%w: piece %d misaligned (%v vs %v)", ErrBadColumn, i, keys[i].Rows, vals[i].Rows)
		}
	}
	return nil
}
