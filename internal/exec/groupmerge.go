package exec

import (
	"cmp"
	"slices"
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
	var t groupTable
	for _, part := range parts {
		for _, g := range part {
			t.add(g)
		}
	}
	SortGroupResults(t.rows)
	return t.rows
}

// groupTable folds partial group entries into one entry per key. slot
// indexes into rows (first-seen order) instead of mapping to pointers:
// one growing allocation for the table, not one heap object per group.
// The zero value is ready to use.
type groupTable struct {
	slot map[int64]int
	rows []GroupResult
}

// add folds g into its key's entry.
func (t *groupTable) add(g GroupResult) {
	if j, ok := t.slot[g.Key]; ok {
		t.rows[j].Sum += g.Sum
		t.rows[j].Count += g.Count
		return
	}
	if t.slot == nil {
		t.slot = make(map[int64]int)
	}
	t.slot[g.Key] = len(t.rows)
	t.rows = append(t.rows, g)
}
