package exec

import (
	"cmp"
	"slices"
	"sync"

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
// fragments) into one table sorted by key, through a recycled group
// table: the answer is the one allocation.
func MergeGroupResults(parts ...[]GroupResult) []GroupResult {
	t := mergeTables.Get().(*agg.Table)
	for _, part := range parts {
		t.Merge(part)
	}
	out := t.Drain(nil)
	mergeTables.Put(t)
	return out
}

// mergeTables recycles the tables merges fold through: a drained table
// keeps its 256-slot window, which would otherwise be allocated per merge.
var mergeTables = sync.Pool{New: func() any { return new(agg.Table) }}
