package exec

import (
	"cmp"
	"slices"

	"hybridstore/internal/agg"
)

// SortGroupResults orders a group table by key. Group tables are the
// tail of every grouped-aggregate answer, so this runs on the serving
// hot path — slices.SortFunc compiles to a monomorphic comparison,
// where sort.Slice pays reflect.Swapper per element.
func SortGroupResults(out []GroupResult) {
	slices.SortFunc(out, func(a, b GroupResult) int { return cmp.Compare(a.Key, b.Key) })
}

// MergeGroupResults folds any number of partial group-result slices
// (e.g. a host-fused table and a device-fused table over disjoint
// fragments) into one table sorted by key. Each part must itself be a
// group table — one entry per key — as every producer emits; a single
// non-empty part short-circuits to a sorted copy.
func MergeGroupResults(parts ...[]GroupResult) []GroupResult {
	single := -1
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		if single >= 0 {
			single = -2
			break
		}
		single = i
	}
	if single == -1 {
		return nil
	}
	if single >= 0 {
		out := append([]GroupResult(nil), parts[single]...)
		SortGroupResults(out)
		return out
	}
	var t agg.Table
	for _, part := range parts {
		t.Merge(part)
	}
	return t.Drain(nil)
}
